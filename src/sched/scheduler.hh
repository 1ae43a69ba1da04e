/**
 * @file
 * The modulo scheduler: BASE algorithm plus the paper's L0-aware
 * extensions (Section 4.2/4.3).
 *
 * One engine serves every architecture; the machine it targets decides
 * the mode and the load latencies, the options only the compiler's
 * choices:
 *
 *  - BASE mode (a machine without L0 buffers): the reference algorithm
 *    for a clustered VLIW — SMS ordering, then one instruction at a
 *    time into the cluster minimising inter-cluster communication with
 *    maximal workload balance, II incremented until a schedule exists.
 *    Loads schedule at MachineConfig::scheduledLoadLatency() (6 for
 *    the unified cache, the local-hit latency on MultiVLIW, the remote
 *    latency on the word-interleaved machine). MultiVLIW keeps the ops
 *    touching one array in one cluster.
 *
 *  - L0-aware mode (a machine with L0 buffers): implements Figure 4.
 *    Strided loads are candidates; the N*NE most slack-critical
 *    candidates start with the L0 latency (the others and every other
 *    load at the L1 latency); num_free_L0_entries is tracked per
 *    cluster; memory-
 *    dependent sets with loads and stores choose 1C or NL0 (or PSR);
 *    scheduling a load updates recommended clusters of its stream
 *    mates; latencies of unplaced candidates are re-derived from the
 *    partial schedule's slack; finally access/mapping/prefetch hints
 *    are attached (step 4) and explicit prefetches inserted for
 *    non-unit-stride L0 loads (step 5).
 */

#ifndef L0VLIW_SCHED_SCHEDULER_HH
#define L0VLIW_SCHED_SCHEDULER_HH

#include <optional>

#include "ir/loop.hh"
#include "machine/machine_config.hh"
#include "sched/coherence.hh"
#include "sched/schedule.hh"

namespace l0vliw::sched
{

/** The compiler's choices; everything else follows from the machine. */
struct SchedulerOptions
{
    /** How L0 buffers of a memory-dependent set stay coherent. */
    CoherenceMode coherence = CoherenceMode::Auto;
    /** false: mark ALL candidates to use the buffers (the Section 5.2
     *  overflow ablation: +6% over selective with 4 entries). */
    bool selectiveL0 = true;
    /** Interleaved-2 heuristic: prefer the cluster statically owning a
     *  strided access's words and, on the word-interleaved machine,
     *  schedule the load there with the local-hit latency. */
    bool ownerAware = false;

    /** The defaults: BASE on a machine without L0 buffers. */
    static SchedulerOptions baseUnified() { return {}; }

    /** The paper's L0-aware configuration with coherence @p mode. */
    static SchedulerOptions
    l0(CoherenceMode mode = CoherenceMode::Auto)
    {
        SchedulerOptions o;
        o.coherence = mode;
        return o;
    }
};

/** Modulo scheduler for the clustered VLIW machine. */
class ModuloScheduler
{
  public:
    ModuloScheduler(const machine::MachineConfig &config,
                    const SchedulerOptions &options);

    /**
     * Schedule an (already unrolled / specialized) loop body: the
     * first II from the MII up at which scheduleAt() fits. fatal()s
     * if no schedule exists up to II 512. The facts about the
     * body that do not depend on the II (incident edges,
     * memory-dependent sets, candidates) are derived once per call
     * and shared by every attempt, and IIs that a bound proves no
     * attempt meets (too few L0 entries for a 1C set's recurrence)
     * are not tried.
     */
    Schedule schedule(ir::Loop body) const;

    /**
     * Schedule @p body at exactly @p ii (at least its MII): the
     * primary attempt, then the fallback order; nullopt when neither
     * fits.
     */
    std::optional<Schedule> scheduleAt(ir::Loop body, int ii) const;

    /**
     * Statically estimated execution time of @p trips iterations —
     * the metric of the unroll-factor choice (step 1).
     */
    std::uint64_t estimateCycles(const ir::Loop &body,
                                 std::uint64_t trips) const;

  private:
    /** The body as attempts see it (PSR-transformed under PSR),
     *  validated. */
    ir::Loop prepare(ir::Loop body) const;

    machine::MachineConfig cfg;
    SchedulerOptions opts;
};

/**
 * Step 1: choose the unroll factor (1 or numClusters) that minimises
 * the statically estimated compute time, using @p sched for the
 * estimates. The same chooser runs for every architecture so that
 * comparisons are not biased by unrolling (Section 5.1).
 */
int chooseUnrollFactor(const ir::Loop &loop, std::uint64_t trips,
                       const ModuloScheduler &sched, int num_clusters);

} // namespace l0vliw::sched

#endif // L0VLIW_SCHED_SCHEDULER_HH
