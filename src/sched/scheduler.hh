/**
 * @file
 * The modulo scheduler: BASE algorithm plus the paper's L0-aware
 * extensions (Section 4.2/4.3).
 *
 * One engine serves every architecture:
 *
 *  - BASE mode (l0Aware=false): the reference algorithm for a
 *    clustered VLIW with a unified L1 — SMS ordering, then one
 *    instruction at a time into the cluster minimising inter-cluster
 *    communication with maximal workload balance, II incremented until
 *    a schedule exists. Loads schedule at memLoadLatency (6 for the
 *    unified cache, the local-hit latency for the distributed
 *    baselines).
 *
 *  - L0-aware mode: implements Figure 4. Strided loads are candidates;
 *    the N*NE most slack-critical candidates start with the L0
 *    latency; num_free_L0_entries is tracked per cluster; memory-
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

/** Knobs selecting the algorithm variant. */
struct SchedulerOptions
{
    /** Enable the Section 4.3 L0-buffer extensions. */
    bool l0Aware = false;
    /** Scheduled latency of a load not using L0 (6 unified; 2 for the
     *  distributed baselines' local hit). */
    int memLoadLatency = 6;
    CoherenceMode coherence = CoherenceMode::Auto;
    /** false: mark ALL candidates to use the buffers (the Section 5.2
     *  overflow ablation: +6% over selective with 4 entries). */
    bool selectiveL0 = true;
    /** Interleaved-2 heuristic: prefer the cluster statically owning a
     *  strided access's words. */
    bool ownerAware = false;
    /** Word-interleaved machines: schedule a strided load with the
     *  local-hit latency when placed in its owner cluster and with the
     *  remote latency elsewhere (memLoadLatency is then the remote /
     *  unpredictable-access latency). */
    bool ownerLatency = false;
    /** MultiVLIW heuristic: keep ops touching one array together. */
    bool arrayAffinity = false;
    /** Give up (fatal) past this II. */
    int maxII = 512;

    /** BASE for the unified no-L0 machine. */
    static SchedulerOptions baseUnified() { return {}; }

    /** The paper's L0-aware configuration. */
    static SchedulerOptions
    l0(CoherenceMode mode = CoherenceMode::Auto)
    {
        SchedulerOptions o;
        o.l0Aware = true;
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
     * if no schedule exists up to options.maxII. The facts about the
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
