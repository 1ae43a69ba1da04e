#include "driver/runner.hh"

#include "common/logging.hh"
#include "ir/memdep.hh"
#include "mem/mem_system.hh"
#include "sched/validate.hh"
#include "sim/kernel_sim.hh"

namespace l0vliw::driver
{

namespace
{

/** Cycles charged per invocation for the specialization check code. */
constexpr std::uint64_t kSpecializationCheckCycles = 4;

/** Scalar (non-modulo-scheduled) share: loops are ~80% of the stream. */
constexpr double kScalarShare = 0.25;

/**
 * Set the L0 fields of a BenchmarkRun or LoopRow: the stats() @p now
 * less those of an earlier boundary, @p since (all 0 on a machine
 * without L0 buffers).
 */
template <typename Row>
void
setL0Fields(Row &row, const StatSet &now, const StatSet &since = {})
{
    row.l0Hits = now.get("l0_hits") - since.get("l0_hits");
    row.l0Misses = now.get("l0_misses") - since.get("l0_misses");
    row.fillsLinear =
        now.get("l0_fills_linear") - since.get("l0_fills_linear");
    row.fillsInterleaved =
        now.get("l0_fills_interleaved") - since.get("l0_fills_interleaved");
}

} // namespace

ArchSpec
ArchSpec::unified()
{
    ArchSpec a;
    a.label = "unified";
    a.config = machine::MachineConfig::paperUnified();
    a.sched = sched::SchedulerOptions::baseUnified();
    return a;
}

ArchSpec
ArchSpec::l0(int entries, sched::CoherenceMode mode)
{
    ArchSpec a;
    a.label = entries < 0 ? "l0-unbounded"
                          : "l0-" + std::to_string(entries);
    // The label is the cell's identity on the wire (workers
    // re-resolve it), so every option that changes scheduling must
    // show up in it.
    if (mode == sched::CoherenceMode::ForceNL0)
        a.label += "-nl0";
    else if (mode == sched::CoherenceMode::Psr)
        a.label += "-psr";
    a.config = machine::MachineConfig::paperL0(entries);
    a.sched = sched::SchedulerOptions::l0(mode);
    return a;
}

ArchSpec
ArchSpec::l0AllCandidates(int entries)
{
    ArchSpec a = l0(entries);
    a.label += "-allcand";
    a.sched.selectiveL0 = false;
    return a;
}

ArchSpec
ArchSpec::l0PrefetchDistance(int entries, int d)
{
    ArchSpec a = l0(entries);
    a.label += "-pf" + std::to_string(d);
    a.config.prefetchDistance = d;
    return a;
}

ArchSpec
ArchSpec::multiVliw()
{
    ArchSpec a;
    a.label = "multivliw";
    a.config = machine::MachineConfig::paperMultiVliw();
    a.sched = sched::SchedulerOptions::baseUnified();
    return a;
}

ArchSpec
ArchSpec::interleaved1()
{
    // Heuristic 1: no ownership analysis — loads schedule with the
    // machine's conservative (remote) latency, so remote accesses do
    // not stall but every load pays the long schedule.
    ArchSpec a;
    a.label = "interleaved-1";
    a.config = machine::MachineConfig::paperInterleaved();
    a.sched = sched::SchedulerOptions::baseUnified();
    return a;
}

ArchSpec
ArchSpec::interleaved2()
{
    // Heuristic 2: owner-aware — strided loads prefer their word's
    // home cluster and schedule with the local-hit latency there.
    ArchSpec a = interleaved1();
    a.label = "interleaved-2";
    a.sched.ownerAware = true;
    return a;
}

ir::Loop
loopBody(const workloads::LoopInstance &li, int unroll)
{
    ir::Loop body = li.specialize ? ir::specializeLoop(li.loop) : li.loop;
    return unroll > 1 ? ir::unrollLoop(body, unroll) : std::move(body);
}

std::vector<int>
chooseUnrollFactors(const workloads::Benchmark &bench)
{
    // Reference configuration for the (architecture-independent)
    // unroll decision: 8-entry L0 buffers, as in the paper's main
    // configuration.
    ArchSpec ref = ArchSpec::l0(8);
    sched::ModuloScheduler scheduler(ref.config, ref.sched);

    std::vector<int> factors;
    for (const auto &li : bench.loops)
        factors.push_back(sched::chooseUnrollFactor(
            loopBody(li), li.trips, scheduler, ref.config.numClusters));
    return factors;
}

std::vector<std::shared_ptr<sim::KernelPlan>>
buildLoopPlans(const workloads::Benchmark &bench, const ArchSpec &arch,
               const std::vector<int> &unrolls)
{
    sched::ModuloScheduler scheduler(arch.config, arch.sched);

    std::vector<std::shared_ptr<sim::KernelPlan>> plans;
    plans.reserve(bench.loops.size());
    for (std::size_t i = 0; i < bench.loops.size(); ++i) {
        sched::Schedule schedule =
            scheduler.schedule(loopBody(bench.loops[i], unrolls[i]));
        // The all-candidates ablation intentionally overflows the L0
        // capacity, so its schedules fail the capacity rule by design.
        if (arch.sched.selectiveL0) {
            auto violations =
                sched::validateSchedule(schedule, arch.config);
            for (const auto &v : violations)
                warn("%s/%s: invalid schedule: %s", bench.name.c_str(),
                     loopBody(bench.loops[i], unrolls[i]).name().c_str(),
                     v.c_str());
        }
        plans.push_back(
            std::make_shared<sim::KernelPlan>(std::move(schedule)));
    }
    return plans;
}

BenchmarkRun
runCell(const workloads::Benchmark &bench, const ArchSpec &arch,
        const std::vector<int> &unrolls,
        const std::vector<std::shared_ptr<sim::KernelPlan>> &plans,
        const BenchmarkRun *baseline, std::vector<LoopRow> *rows)
{
    BenchmarkRun out;
    out.bench = bench.name;
    out.arch = arch.label;

    auto mem = mem::MemSystem::create(arch.config);

    sim::SimOptions sim_opts;
    sim_opts.checkCoherence = true;

    Cycle clock = 0;
    double unroll_weighted = 0;
    std::uint64_t loop_cycles_total = 0;
    StatSet seen; // stats() at the last loop boundary (rows only)

    for (std::size_t i = 0; i < bench.loops.size(); ++i) {
        const workloads::LoopInstance &li = bench.loops[i];
        int u = unrolls[i];
        std::uint64_t trips = li.trips / u;
        std::uint64_t spec_cost =
            li.specialize ? kSpecializationCheckCycles : 0;
        LoopRow row;
        for (std::uint64_t inv = 0; inv < li.invocations; ++inv) {
            sim::InvocationResult res =
                plans[i]->run(*mem, trips, clock, sim_opts);
            clock += res.totalCycles() + spec_cost;
            row.compute += res.computeCycles + spec_cost;
            row.stall += res.stallCycles;
            row.memAccesses += res.memAccesses;
            row.coherenceViolations += res.coherenceViolations;
        }
        out.loopCompute += row.compute;
        out.loopStall += row.stall;
        out.memAccesses += row.memAccesses;
        out.coherenceViolations += row.coherenceViolations;
        std::uint64_t loop_cycles = row.compute + row.stall;
        unroll_weighted += static_cast<double>(loop_cycles) * u;
        loop_cycles_total += loop_cycles;

        if (rows == nullptr)
            continue;
        StatSet now = mem->stats();
        setL0Fields(row, now, seen);
        seen = std::move(now);
        rows->push_back(row);
    }

    out.avgUnroll = loop_cycles_total == 0
                        ? 1.0
                        : unroll_weighted / loop_cycles_total;
    out.memStats = mem->stats();
    setL0Fields(out, out.memStats);

    // Scalar region: fixed share of the *baseline* loop time, identical
    // for every architecture (self-referential for the baseline run).
    if (baseline == nullptr) {
        out.scalarCycles = static_cast<std::uint64_t>(
            kScalarShare * (out.loopCompute + out.loopStall));
    } else {
        out.scalarCycles = baseline->scalarCycles;
    }
    return out;
}

} // namespace l0vliw::driver
