/**
 * @file
 * Lock-step execution of a modulo schedule against a memory system.
 *
 * The machine runs the kernel in lock step (Table 2): every cluster
 * issues its slots of the current kernel row each cycle. When any
 * operand of the bundle is not yet ready — a load was scheduled too
 * close to a consumer and actually missed — the whole processor stalls
 * until it is ("stall time is due to memory accesses that have been
 * scheduled too close to their consumers", Section 5.2). The simulator
 * therefore tracks an accumulated global stall; scheduled (compute)
 * cycles and stall cycles are reported separately to regenerate the
 * stacked bars of Figures 5 and 7.
 *
 * A golden replay of the invocation in program order provides the
 * expected value of every load; any mismatch with the value the load
 * actually observed (e.g. from a stale L0 entry) is a coherence
 * violation. With the paper's scheduling rules in force the count must
 * be zero — the property tests assert exactly that.
 */

#ifndef L0VLIW_SIM_KERNEL_SIM_HH
#define L0VLIW_SIM_KERNEL_SIM_HH

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/mem_system.hh"
#include "sched/schedule.hh"

namespace l0vliw::sim
{

/** Result of simulating one loop invocation. */
struct InvocationResult
{
    std::uint64_t computeCycles = 0; ///< scheduled (no-stall) cycles
    std::uint64_t stallCycles = 0;
    std::uint64_t coherenceViolations = 0;
    std::uint64_t memAccesses = 0;

    std::uint64_t totalCycles() const
    {
        return computeCycles + stallCycles;
    }
};

/**
 * Options of one simulation run. KernelPlan::run folds a call only
 * into one with equal options (sameOptions() in kernel_plan.cc lists
 * the fields).
 */
struct SimOptions
{
    /** Run the golden replay and compare every load. */
    bool checkCoherence = true;
    /** panic() on the first coherence violation (tests). */
    bool strictCoherence = false;
};

/**
 * Execute @p trips kernel iterations of @p schedule against @p mem,
 * starting the machine clock at @p start_cycle (invocations of
 * successive loops share the clock so bus/fill state carries the right
 * distances). Calls mem.endLoop() at the end — the inter-loop
 * coherence flush of Section 4.1.
 *
 * Convenience wrapper: compiles a sim::KernelPlan and runs it once.
 * Callers simulating many invocations of the same schedule should
 * build the KernelPlan themselves and reuse it — the plan hoists the
 * row buckets, dependence lists, address generators and replay
 * buffers out of the per-invocation path.
 */
InvocationResult simulateInvocation(const sched::Schedule &schedule,
                                    mem::MemSystem &mem,
                                    std::uint64_t trips, Cycle start_cycle,
                                    const SimOptions &opts);

/**
 * The original cycle-walking executor, kept verbatim as the oracle:
 * tests/test_plan.cc asserts the KernelPlan executor matches it
 * bit-for-bit, and bench/micro_perf.cpp uses it as the perf baseline.
 * Semantics are identical to simulateInvocation().
 */
InvocationResult
simulateInvocationReference(const sched::Schedule &schedule,
                            mem::MemSystem &mem, std::uint64_t trips,
                            Cycle start_cycle, const SimOptions &opts);

} // namespace l0vliw::sim

#endif // L0VLIW_SIM_KERNEL_SIM_HH
