/**
 * @file
 * Experiment runner: compiles a benchmark model for an architecture,
 * simulates every loop invocation, and aggregates the statistics the
 * paper's tables and figures report.
 *
 * Normalisation follows Section 5: execution time is divided by that
 * of the clustered VLIW with a unified L1 and no L0 buffers. Inner
 * loops cover ~80% of the dynamic stream, so every benchmark carries a
 * fixed scalar-region cycle budget (25% of its baseline loop time,
 * identical across architectures), bounding attainable speedup exactly
 * as in the paper. The unroll decision is made once per loop with the
 * reference configuration (8-entry L0) and reused everywhere, per the
 * paper's "same loop unrolling heuristic ... for all three
 * architectures".
 *
 * These are the cell primitives. The grid engine calls them only
 * through executeCellJob (driver/executor.hh): a baseline job makes
 * the decision and runs the unified cell, and every other job reuses
 * both.
 */

#ifndef L0VLIW_DRIVER_RUNNER_HH
#define L0VLIW_DRIVER_RUNNER_HH

#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "machine/machine_config.hh"
#include "sched/scheduler.hh"
#include "sim/kernel_plan.hh"
#include "workloads/workload.hh"

namespace l0vliw::driver
{

/** An architecture plus the scheduler variant that targets it. */
struct ArchSpec
{
    std::string label;
    machine::MachineConfig config;
    sched::SchedulerOptions sched;

    /** Unified L1, no L0: the normalisation baseline. */
    static ArchSpec unified();
    /** The paper's proposal with @p entries L0 entries (<0 unbounded). */
    static ArchSpec l0(int entries,
                       sched::CoherenceMode mode =
                           sched::CoherenceMode::Auto);
    /** l0() but marking every candidate (the overflow ablation). */
    static ArchSpec l0AllCandidates(int entries);
    /** l0() with the POSITIVE/NEGATIVE hints fetching @p d subblocks
     *  ahead (the Section 5.2 prefetch-distance experiment). */
    static ArchSpec l0PrefetchDistance(int entries, int d);
    static ArchSpec multiVliw();
    static ArchSpec interleaved1();
    static ArchSpec interleaved2();
};

/** Aggregated outcome of one (benchmark, architecture) run. */
struct BenchmarkRun
{
    std::string bench;
    std::string arch;
    std::uint64_t loopCompute = 0;
    std::uint64_t loopStall = 0;
    std::uint64_t scalarCycles = 0;
    std::uint64_t memAccesses = 0;
    std::uint64_t coherenceViolations = 0;
    StatSet memStats;

    double avgUnroll = 0;       ///< cycle-weighted over the loops
    std::uint64_t l0Hits = 0;
    std::uint64_t l0Misses = 0;
    std::uint64_t fillsLinear = 0;
    std::uint64_t fillsInterleaved = 0;

    std::uint64_t
    totalCycles() const
    {
        return loopCompute + loopStall + scalarCycles;
    }

    double
    l0HitRate() const
    {
        std::uint64_t total = l0Hits + l0Misses;
        return total == 0 ? 0.0
                          : static_cast<double>(l0Hits) / total;
    }
};

/**
 * Reference-configuration unroll decision, one factor per loop of
 * @p bench (the paper's "same loop unrolling heuristic ... for all
 * three architectures"). Pure: depends only on the benchmark model.
 */
std::vector<int> chooseUnrollFactors(const workloads::Benchmark &bench);

/**
 * Compile @p bench's loops for @p arch with the given @p unrolls
 * (from chooseUnrollFactors()), scheduling and validating each once.
 * Pure apart from warn() on invalid schedules; executeCellJob calls
 * this per job, because a KernelPlan's scratch is not reentrant — one
 * plan per thread.
 */
std::vector<std::shared_ptr<sim::KernelPlan>>
buildLoopPlans(const workloads::Benchmark &bench, const ArchSpec &arch,
               const std::vector<int> &unrolls);

/**
 * Execute one (benchmark, architecture) cell: every invocation of
 * every loop against a fresh memory system, aggregated into a
 * BenchmarkRun. @p baseline supplies the architecture-independent
 * scalar-region cycles; pass null for the unified baseline itself
 * (its scalar region is self-referential). Deterministic: the result
 * is bit-identical no matter which thread or order runs it.
 */
BenchmarkRun runCell(const workloads::Benchmark &bench,
                     const ArchSpec &arch,
                     const std::vector<int> &unrolls,
                     const std::vector<std::shared_ptr<sim::KernelPlan>>
                         &plans,
                     const BenchmarkRun *baseline);

} // namespace l0vliw::driver

#endif // L0VLIW_DRIVER_RUNNER_HH
