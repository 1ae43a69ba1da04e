/**
 * @file
 * KernelPlan equivalence suite: the compiled-plan executor must
 * reproduce the reference cycle-walking simulator bit-for-bit —
 * computeCycles, stallCycles, memAccesses, coherenceViolations, and
 * every memory-system statistic — across every ArchSpec factory, with
 * plans reused across invocations, and over randomized loops and trip
 * counts (including degenerate trips where ramp-up and drain overlap).
 *
 * The reference walker never folds, so the same comparisons prove the
 * plan's invocation folding exact (ARCHITECTURE.md invariant 11): a
 * behaviour-affecting field missing from a memory system's key, a
 * counter missing from its snapshot or a cycle field missing from its
 * shift makes some step below diverge. Runs are long enough for folds
 * to happen, and the tests assert that they did.
 */

#include <gtest/gtest.h>

#include <functional>

#include "common/rng.hh"
#include "driver/executor.hh"
#include "driver/registry.hh"
#include "driver/runner.hh"
#include "ir/loop.hh"
#include "mem/l0_system.hh"
#include "mem/mem_system.hh"
#include "metrics/registry.hh"
#include "sched/scheduler.hh"
#include "sim/kernel_plan.hh"
#include "sim/kernel_sim.hh"
#include "workloads/kernels.hh"
#include "workloads/workload.hh"

using namespace l0vliw;
using l0vliw::driver::ArchSpec;

namespace
{

/** Every ArchSpec factory, PSR mode included. */
std::vector<ArchSpec>
allArchSpecs()
{
    return {
        ArchSpec::unified(),
        ArchSpec::l0(8),
        ArchSpec::l0(2),
        ArchSpec::l0(-1),
        ArchSpec::l0(8, sched::CoherenceMode::Psr),
        ArchSpec::l0AllCandidates(4),
        ArchSpec::l0PrefetchDistance(8, 2),
        ArchSpec::multiVliw(),
        ArchSpec::interleaved1(),
        ArchSpec::interleaved2(),
    };
}

/** Random loop: strided/irregular streams, dataflow, RMW chains. */
ir::Loop
randomLoop(std::uint64_t seed)
{
    Rng rng(seed);
    ir::Loop l("plan_rand" + std::to_string(seed));

    const int num_loads = static_cast<int>(rng.range(1, 4));
    const int num_rmw = static_cast<int>(rng.range(0, 2));
    const int num_alu = static_cast<int>(rng.range(1, 6));

    std::vector<OpId> values;

    auto add_array = [&] {
        static const std::uint64_t sizes[] = {1024, 4096, 16384};
        ir::ArrayInfo info;
        info.sizeBytes = sizes[rng.below(3)];
        info.name = "arr";
        info.base = 0x100000ULL
                    + 0x20000ULL * static_cast<Addr>(l.arrays().size())
                    + 544 * static_cast<Addr>(l.arrays().size() % 7);
        return l.addArray(info);
    };

    for (int i = 0; i < num_loads; ++i) {
        ir::Operation op;
        op.kind = ir::OpKind::Load;
        op.mem.array = add_array();
        const int elems[] = {1, 2, 4, 8};
        op.mem.elemSize = elems[rng.below(4)];
        op.mem.strided = rng.chance(0.8);
        if (op.mem.strided) {
            const long strides[] = {0, 1, -1, 2, 1, 8, 16};
            op.mem.strideElems = strides[rng.below(7)];
        }
        op.mem.offsetElems = rng.range(-2, 3);
        op.tag = "ld" + std::to_string(i);
        values.push_back(l.addOp(op));
    }

    for (int i = 0; i < num_rmw; ++i) {
        int arr = add_array();
        ir::Operation ld;
        ld.kind = ir::OpKind::Load;
        ld.mem.array = arr;
        ld.mem.elemSize = 4;
        ld.mem.strideElems = 1;
        ld.mem.offsetElems = -static_cast<long>(rng.range(1, 2));
        ld.tag = "rmw_ld" + std::to_string(i);
        OpId lid = l.addOp(ld);
        values.push_back(lid);

        ir::Operation al;
        al.kind = ir::OpKind::IntAlu;
        OpId aid = l.addOp(al);
        l.addRegEdge(lid, aid);

        ir::Operation st;
        st.kind = ir::OpKind::Store;
        st.mem.array = arr;
        st.mem.elemSize = 4;
        st.mem.strideElems = 1;
        st.mem.offsetElems = 0;
        st.tag = "rmw_st" + std::to_string(i);
        OpId sid = l.addOp(st);
        l.addRegEdge(aid, sid);
        int dist = static_cast<int>(-ld.mem.offsetElems);
        l.addMemEdge(sid, lid, dist);
        l.addMemEdge(lid, sid, 0);
    }

    for (int i = 0; i < num_alu; ++i) {
        ir::Operation op;
        op.kind = rng.chance(0.25) ? ir::OpKind::FpAlu
                                   : ir::OpKind::IntAlu;
        OpId id = l.addOp(op);
        l.addRegEdge(values[rng.below(values.size())], id);
        if (rng.chance(0.5))
            l.addRegEdge(values[rng.below(values.size())], id);
        values.push_back(id);
    }

    {
        ir::Operation st;
        st.kind = ir::OpKind::Store;
        st.mem.array = add_array();
        st.mem.elemSize = 4;
        st.mem.strideElems = 1;
        st.tag = "out";
        OpId sid = l.addOp(st);
        l.addRegEdge(values.back(), sid);
    }

    l.validate();
    return l;
}

/** Merged stats of @p mem (system counters plus per-L0 counters). */
std::map<std::string, std::uint64_t>
allStats(mem::MemSystem &mem)
{
    if (auto *l0sys = dynamic_cast<mem::L0MemSystem *>(&mem))
        return l0sys->l0Stats().all();
    return mem.stats().all();
}

/** One plan invocation of a step sequence (see expectStepsEquivalent). */
struct Step
{
    int plan = 0; ///< index into the schedules
    int mem = 0;  ///< which memory system (each has its own clock)
    std::uint64_t trips = 0;
    /** Cycles the memory's clock moves before the step: < 0 overlaps
     *  the previous invocation's tail, > 0 leaves the machine idle. */
    long gap = 0;
};

/** Applied to the plan and the reference memory alike before a step. */
using BetweenFn = std::function<void(std::size_t step, mem::MemSystem &)>;

/**
 * Run @p steps through one reused KernelPlan per schedule and through
 * the reference walker, each on its own fresh memory systems, and
 * assert every result field and, after every step, every stat
 * identical. @return the plans' folded invocations.
 */
std::uint64_t
expectStepsEquivalent(const std::vector<sched::Schedule> &schedules,
                      const ArchSpec &arch, const std::vector<Step> &steps,
                      bool check_coherence = true,
                      const BetweenFn &between = {})
{
    sim::SimOptions opts;
    opts.checkCoherence = check_coherence;

    int num_mems = 0;
    for (const Step &st : steps)
        num_mems = std::max(num_mems, st.mem + 1);
    std::vector<std::unique_ptr<mem::MemSystem>> ref_mems, plan_mems;
    for (int m = 0; m < num_mems; ++m) {
        ref_mems.push_back(mem::MemSystem::create(arch.config));
        plan_mems.push_back(mem::MemSystem::create(arch.config));
    }
    std::vector<std::unique_ptr<sim::KernelPlan>> plans;
    for (const sched::Schedule &s : schedules)
        plans.push_back(std::make_unique<sim::KernelPlan>(s));

    std::vector<Cycle> ref_clock(num_mems, 0), plan_clock(num_mems, 0);
    for (std::size_t i = 0; i < steps.size(); ++i) {
        const Step &st = steps[i];
        SCOPED_TRACE("step " + std::to_string(i));
        ref_clock[st.mem] += st.gap;
        plan_clock[st.mem] += st.gap;
        if (between) {
            between(i, *ref_mems[st.mem]);
            between(i, *plan_mems[st.mem]);
        }
        sim::InvocationResult r = sim::simulateInvocationReference(
            schedules[st.plan], *ref_mems[st.mem], st.trips,
            ref_clock[st.mem], opts);
        sim::InvocationResult p = plans[st.plan]->run(
            *plan_mems[st.mem], st.trips, plan_clock[st.mem], opts);
        ref_clock[st.mem] += r.totalCycles();
        plan_clock[st.mem] += p.totalCycles();

        EXPECT_EQ(p.computeCycles, r.computeCycles);
        EXPECT_EQ(p.stallCycles, r.stallCycles);
        EXPECT_EQ(p.memAccesses, r.memAccesses);
        EXPECT_EQ(p.coherenceViolations, r.coherenceViolations);
        EXPECT_EQ(allStats(*plan_mems[st.mem]), allStats(*ref_mems[st.mem]));
    }
    std::uint64_t folds = 0;
    for (const auto &plan : plans)
        folds += plan->foldedRuns();
    return folds;
}

/**
 * @p invocations of @p schedule with a shared clock through both
 * executors on one memory system each. @return the folded invocations.
 */
std::uint64_t
expectEquivalent(const sched::Schedule &schedule, const ArchSpec &arch,
                 std::uint64_t trips, int invocations,
                 bool check_coherence = true)
{
    SCOPED_TRACE("arch=" + arch.label + " trips="
                 + std::to_string(trips));
    return expectStepsEquivalent(
        {schedule}, arch,
        std::vector<Step>(static_cast<std::size_t>(invocations),
                          Step{0, 0, trips}),
        check_coherence);
}

sched::Schedule
scheduleFor(const ir::Loop &body, const ArchSpec &arch)
{
    return sched::ModuloScheduler(arch.config, arch.sched)
        .schedule(body);
}

/** A representative loop body: a MediaBench-style stream kernel. */
ir::Loop
streamBody(int unroll)
{
    workloads::AddressSpace as;
    workloads::StreamParams p;
    p.elemSize = 2;
    p.loadStreams = 3;
    p.storeStreams = 1;
    p.intOps = 4;
    ir::Loop l = workloads::streamMap(as, "plan_stream", p);
    return unroll > 1 ? ir::unrollLoop(l, unroll) : l;
}

} // namespace

TEST(KernelPlanEquivalence, EveryArchSpecFactory)
{
    ir::Loop body = streamBody(4);
    for (const ArchSpec &arch : allArchSpecs()) {
        sched::Schedule s = scheduleFor(body, arch);
        // 256 trips fill the L1; 64 reach a steady state that folds.
        expectEquivalent(s, arch, 256, 6);
        EXPECT_GT(expectEquivalent(s, arch, 64, 6), 0u) << arch.label;
    }
}

TEST(KernelPlanEquivalence, CoherenceCheckOff)
{
    ir::Loop body = streamBody(4);
    for (const ArchSpec &arch : allArchSpecs()) {
        sched::Schedule s = scheduleFor(body, arch);
        expectEquivalent(s, arch, 256, 6, /*check_coherence=*/false);
        EXPECT_GT(expectEquivalent(s, arch, 64, 6,
                                   /*check_coherence=*/false),
                  0u)
            << arch.label;
    }
}

TEST(KernelPlanEquivalence, DegenerateTripCounts)
{
    // trips below / at / just above the stage count exercise the
    // overlapped ramp-up and drain phases with no steady state.
    ir::Loop body = streamBody(2);
    ArchSpec arch = ArchSpec::l0(8);
    sched::Schedule s = scheduleFor(body, arch);
    for (std::uint64_t trips : {1, 2, 3, 5, 17}) {
        expectEquivalent(s, arch, trips, 2);
    }
}

TEST(KernelPlanEquivalence, ZeroTripsIsEmpty)
{
    ir::Loop body = streamBody(1);
    ArchSpec arch = ArchSpec::l0(8);
    sched::Schedule s = scheduleFor(body, arch);
    auto mem = mem::MemSystem::create(arch.config);
    sim::KernelPlan plan(s);
    sim::SimOptions opts;
    auto r = plan.run(*mem, 0, 0, opts);
    EXPECT_EQ(r.totalCycles(), 0u);
    EXPECT_EQ(r.memAccesses, 0u);
}

TEST(KernelPlanEquivalence, MisalignedWideAccessesStraddleChunks)
{
    // 8-byte elements on a base 61 bytes into a page: golden-replay
    // reads and writes straddle the overlay's chunk boundaries.
    ir::Loop l("straddle");
    int arr = l.addArray({"arr", 0x10000 + 61, 4096});
    ir::Operation ld;
    ld.kind = ir::OpKind::Load;
    ld.mem.array = arr;
    ld.mem.elemSize = 8;
    ld.mem.strideElems = 1;
    ld.mem.offsetElems = -1;
    OpId lid = l.addOp(ld);
    ir::Operation al;
    al.kind = ir::OpKind::IntAlu;
    OpId aid = l.addOp(al);
    l.addRegEdge(lid, aid);
    ir::Operation st;
    st.kind = ir::OpKind::Store;
    st.mem.array = arr;
    st.mem.elemSize = 8;
    st.mem.strideElems = 1;
    st.mem.offsetElems = 0;
    OpId sid = l.addOp(st);
    l.addRegEdge(aid, sid);
    l.addMemEdge(sid, lid, 1);
    l.addMemEdge(lid, sid, 0);
    l.validate();

    for (const ArchSpec &arch : {ArchSpec::unified(), ArchSpec::l0(8)}) {
        sched::Schedule s = scheduleFor(l, arch);
        expectEquivalent(s, arch, 300, 3);
    }
}

TEST(KernelPlanEquivalence, PlanReuseMatchesFreshPlans)
{
    // The same plan object run back-to-back from identical machine
    // state must not leak scratch state between invocations.
    ir::Loop body = streamBody(4);
    ArchSpec arch = ArchSpec::l0(8);
    sched::Schedule s = scheduleFor(body, arch);
    sim::SimOptions opts;

    sim::KernelPlan reused(s);
    auto m1 = mem::MemSystem::create(arch.config);
    auto first = reused.run(*m1, 200, 0, opts);

    auto m2 = mem::MemSystem::create(arch.config);
    auto again = reused.run(*m2, 200, 0, opts);
    EXPECT_EQ(again.totalCycles(), first.totalCycles());
    EXPECT_EQ(again.stallCycles, first.stallCycles);
    EXPECT_EQ(again.memAccesses, first.memAccesses);
    EXPECT_EQ(allStats(*m2), allStats(*m1));
}

class RandomLoopEquivalence
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RandomLoopEquivalence, PlanMatchesReferenceBitForBit)
{
    const std::uint64_t seed = GetParam();
    ir::Loop loop = randomLoop(seed);
    ir::Loop body = seed % 2 == 0 ? ir::unrollLoop(loop, 4) : loop;

    Rng trips_rng(seed * 7919 + 1);
    const std::uint64_t trips =
        static_cast<std::uint64_t>(trips_rng.range(1, 300));

    const ArchSpec archs[] = {
        ArchSpec::unified(),
        ArchSpec::l0(8),
        ArchSpec::l0(2),
        ArchSpec::interleaved2(),
    };
    std::uint64_t folds = 0;
    for (const ArchSpec &arch : archs) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        sched::Schedule s = scheduleFor(body, arch);
        folds += expectEquivalent(s, arch, trips, 6);
        folds += expectEquivalent(s, arch, trips, 6,
                                  /*check_coherence=*/false);
    }
    EXPECT_GT(folds, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomLoopEquivalence,
                         ::testing::Range<std::uint64_t>(1, 31));

namespace
{

/** A read-modify-write stream over @p elems 4-byte elements. */
ir::Loop
rmwLoop(const std::string &name, std::uint64_t elems)
{
    ir::Loop l(name);
    int arr = l.addArray({"arr", 0x40000, elems * 4});
    ir::Operation ld;
    ld.kind = ir::OpKind::Load;
    ld.mem.array = arr;
    ld.mem.elemSize = 4;
    ld.mem.strideElems = 1;
    ld.mem.offsetElems = -1;
    OpId lid = l.addOp(ld);
    ir::Operation al;
    al.kind = ir::OpKind::IntAlu;
    OpId aid = l.addOp(al);
    l.addRegEdge(lid, aid);
    ir::Operation st;
    st.kind = ir::OpKind::Store;
    st.mem.array = arr;
    st.mem.elemSize = 4;
    st.mem.strideElems = 1;
    OpId sid = l.addOp(st);
    l.addRegEdge(aid, sid);
    l.addMemEdge(sid, lid, 1);
    l.addMemEdge(lid, sid, 0);
    l.validate();
    return l;
}

/** Base address of the first load's array in @p s. */
Addr
firstLoadArray(const sched::Schedule &s)
{
    for (OpId i = 0; i < s.loop.numOps(); ++i)
        if (s.loop.op(i).kind == ir::OpKind::Load)
            return s.loop.array(s.loop.op(i).mem.array).base;
    return 0;
}

/**
 * The cell runCell() aggregates, with every invocation simulated by the
 * reference walker, which never folds, instead of a plan.
 */
driver::BenchmarkRun
referenceCell(const workloads::Benchmark &bench, const ArchSpec &arch,
              const std::vector<int> &unrolls,
              const driver::BenchmarkRun &baseline)
{
    // runner.cc's per-invocation cost of a specialized loop's check.
    constexpr std::uint64_t kSpecializationCheckCycles = 4;

    auto plans = driver::buildLoopPlans(bench, arch, unrolls);
    auto mem = mem::MemSystem::create(arch.config);
    sim::SimOptions opts;

    driver::BenchmarkRun out;
    out.bench = bench.name;
    out.arch = arch.label;
    Cycle clock = 0;
    double unroll_weighted = 0;
    std::uint64_t loop_cycles_total = 0;
    for (std::size_t i = 0; i < bench.loops.size(); ++i) {
        const workloads::LoopInstance &li = bench.loops[i];
        const std::uint64_t spec_cost =
            li.specialize ? kSpecializationCheckCycles : 0;
        std::uint64_t loop_cycles = 0;
        for (std::uint64_t inv = 0; inv < li.invocations; ++inv) {
            sim::InvocationResult r = sim::simulateInvocationReference(
                plans[i]->schedule(), *mem, li.trips / unrolls[i], clock,
                opts);
            clock += r.totalCycles() + spec_cost;
            out.loopCompute += r.computeCycles + spec_cost;
            out.loopStall += r.stallCycles;
            out.memAccesses += r.memAccesses;
            out.coherenceViolations += r.coherenceViolations;
            loop_cycles += r.totalCycles() + spec_cost;
        }
        unroll_weighted += static_cast<double>(loop_cycles) * unrolls[i];
        loop_cycles_total += loop_cycles;
    }
    out.avgUnroll = loop_cycles_total == 0
                        ? 1.0
                        : unroll_weighted / loop_cycles_total;
    if (auto *l0sys = dynamic_cast<mem::L0MemSystem *>(mem.get())) {
        StatSet merged = l0sys->l0Stats();
        out.memStats = merged;
        out.l0Hits = merged.get("l0_hits");
        out.l0Misses = merged.get("l0_misses");
        out.fillsLinear = merged.get("l0_fills_linear");
        out.fillsInterleaved = merged.get("l0_fills_interleaved");
    } else {
        out.memStats = mem->stats();
    }
    out.scalarCycles = baseline.scalarCycles;
    return out;
}

} // namespace

TEST(FoldEquivalence, TwoPlansShareOneMemory)
{
    // A x4, B x4, A x4: A's second run of invocations starts from B's
    // leftovers, not from its own.
    const ir::Loop a = streamBody(1);
    const ir::Loop b = rmwLoop("rmw", 512);
    for (const ArchSpec &arch :
         {ArchSpec::unified(), ArchSpec::l0(8), ArchSpec::multiVliw(),
          ArchSpec::interleaved2()}) {
        SCOPED_TRACE(arch.label);
        std::vector<Step> steps;
        for (int plan : {0, 1, 0})
            for (int i = 0; i < 4; ++i)
                steps.push_back({plan, 0, 64});
        EXPECT_GT(expectStepsEquivalent(
                      {scheduleFor(a, arch), scheduleFor(b, arch)}, arch,
                      steps),
                  0u);
    }
}

TEST(FoldEquivalence, ForeignWritesAndAccessesBetweenInvocations)
{
    const ir::Loop body = streamBody(1);
    for (const ArchSpec &arch :
         {ArchSpec::l0(8), ArchSpec::unified(), ArchSpec::multiVliw()}) {
        SCOPED_TRACE(arch.label);
        const sched::Schedule s = scheduleFor(body, arch);
        const Addr input = firstLoadArray(s);
        BetweenFn between = [input](std::size_t step, mem::MemSystem &m) {
            const std::uint64_t value = 0x04030201;
            if (step == 4) // into the loop's input
                m.backing().store(input + 8, value, 4);
            if (step == 8) // nowhere the loop looks
                m.backing().store(0x7000000, value, 4);
            if (step == 12) {
                // Loads that evict the input's first block: the 8 KB
                // 2-way L1 (and each MultiVLIW slice) repeats its sets
                // every 4 KB. Cycle 0 leaves the bus cycles in the
                // time key alone on the next start.
                for (Addr conflict : {input + 4096, input + 8192}) {
                    mem::MemAccess acc;
                    acc.addr = conflict;
                    m.access(acc, 0, 0);
                }
            }
        };
        EXPECT_GT(expectStepsEquivalent(
                      {s}, arch, std::vector<Step>(16, Step{0, 0, 64}),
                      true, between),
                  0u);
    }
}

TEST(FoldEquivalence, TripsChange)
{
    const ir::Loop body = streamBody(2);
    for (const ArchSpec &arch : {ArchSpec::l0(8), ArchSpec::unified()}) {
        SCOPED_TRACE(arch.label);
        std::vector<Step> steps;
        for (std::uint64_t trips : {100, 120, 100})
            for (int i = 0; i < 4; ++i)
                steps.push_back({0, 0, trips});
        EXPECT_GT(expectStepsEquivalent({scheduleFor(body, arch)}, arch,
                                        steps),
                  0u);
    }
}

TEST(FoldEquivalence, StartCyclesOverlapOrLeaveGaps)
{
    // Starting an invocation before the previous one's bus traffic has
    // drained puts nonzero bus cycles into the time key, which a fold
    // must shift exactly as simulation would advance them.
    const ir::Loop body = streamBody(1);
    for (const ArchSpec &arch :
         {ArchSpec::unified(), ArchSpec::l0(8), ArchSpec::l0(2)}) {
        SCOPED_TRACE(arch.label);
        std::vector<Step> steps;
        for (long gap : {-40L, 0L, 25L})
            for (int i = 0; i < 5; ++i)
                steps.push_back({0, 0, 64, i == 0 ? 0 : gap});
        EXPECT_GT(expectStepsEquivalent({scheduleFor(body, arch)}, arch,
                                        steps),
                  0u);
    }
}

TEST(FoldEquivalence, OnePlanTwoMemorySystems)
{
    const ir::Loop body = streamBody(1);
    const ArchSpec arch = ArchSpec::l0(8);
    const sched::Schedule s = scheduleFor(body, arch);
    std::vector<Step> alternating;
    for (int i = 0; i < 12; ++i)
        alternating.push_back({0, i % 2, 64});
    expectStepsEquivalent({s}, arch, alternating);

    std::vector<Step> blocks;
    for (int m : {0, 1, 0})
        for (int i = 0; i < 4; ++i)
            blocks.push_back({0, m, 64});
    EXPECT_GT(expectStepsEquivalent({s}, arch, blocks), 0u);
}

TEST(FoldEquivalence, WrappingStoresChangeBytesEveryInvocation)
{
    // 40 trips over 16 elements: the store stream wraps within an
    // invocation, so invocation k+1's first stores overwrite the bytes
    // invocation k's last stores left with other values — the backing
    // only returns to the same content at the end of each invocation.
    const ir::Loop body = rmwLoop("wrap", 16);
    for (const ArchSpec &arch :
         {ArchSpec::l0(8), ArchSpec::unified(), ArchSpec::interleaved1()}) {
        SCOPED_TRACE(arch.label);
        const sched::Schedule s = scheduleFor(body, arch);
        EXPECT_GT(expectEquivalent(s, arch, 40, 8), 0u);
        EXPECT_GT(expectEquivalent(s, arch, 40, 8, false), 0u);
    }
}

namespace
{

/** Fold one steady plan, then break each fold condition in turn. */
void
expectOnlyUntouchedMemoryFolds(const ArchSpec &arch)
{
    sim::KernelPlan plan(scheduleFor(streamBody(1), arch));
    const sim::SimOptions on;
    sim::SimOptions off;
    off.checkCoherence = false;
    auto mem = mem::MemSystem::create(arch.config);
    auto other = mem::MemSystem::create(arch.config);
    metrics::Counter &fold_metric = metrics::counter(
        "l0vliw_sim_plan_folds_total", "");
    const std::uint64_t metric_before = fold_metric.value();

    Cycle clock = 0;
    // Run one invocation; @return whether it folded.
    auto folds = [&](mem::MemSystem &m, std::uint64_t trips,
                     const sim::SimOptions &opts) {
        const std::uint64_t before = plan.foldedRuns();
        clock += plan.run(m, trips, clock, opts).totalCycles();
        return plan.foldedRuns() > before;
    };
    auto steady = [&](std::uint64_t trips, const sim::SimOptions &opts) {
        bool folded = false;
        for (int i = 0; i < 4 && !folded; ++i)
            folded = folds(*mem, trips, opts);
        ASSERT_TRUE(folded);
        EXPECT_TRUE(folds(*mem, trips, opts));
    };

    steady(64, on);
    mem->backing().store(0x7000000, 7, 1);
    EXPECT_FALSE(folds(*mem, 64, on)) << "after a backing write";

    steady(64, on);
    mem::MemAccess acc;
    acc.addr = 0x7000000;
    mem->access(acc, clock, 0);
    EXPECT_FALSE(folds(*mem, 64, on)) << "after a direct access";

    steady(64, on);
    EXPECT_FALSE(folds(*mem, 65, on)) << "with other trips";
    steady(64, on);
    EXPECT_FALSE(folds(*mem, 64, off)) << "with other options";
    steady(64, on);
    EXPECT_FALSE(folds(*other, 64, on)) << "on another memory system";

    EXPECT_EQ(fold_metric.value() - metric_before, plan.foldedRuns());
}

} // namespace

TEST(FoldEquivalence, OnlyAnUntouchedMemoryFolds)
{
    // MultiVLIW has no cycle fields, so there only the untouched-memory
    // check can notice a direct access.
    for (const ArchSpec &arch : {ArchSpec::l0(8), ArchSpec::multiVliw()}) {
        SCOPED_TRACE(arch.label);
        expectOnlyUntouchedMemoryFolds(arch);
    }
}

TEST(FoldEquivalence, EveryMediabenchCellOnEveryArch)
{
    const std::vector<workloads::Benchmark> suite =
        workloads::mediabenchSuite();
    // A sanitizer build runs ~40x slower: there, the first benchmark.
#if defined(__SANITIZE_ADDRESS__)
    const std::size_t stride = suite.size();
#else
    const std::size_t stride = 1;
#endif
    const ArchSpec unified = ArchSpec::unified();
    for (std::size_t b = 0; b < suite.size(); b += stride) {
        const workloads::Benchmark &bench = suite[b];
        const std::vector<int> unrolls = driver::chooseUnrollFactors(bench);
        const driver::BenchmarkRun baseline = driver::runCell(
            bench, unified, unrolls,
            driver::buildLoopPlans(bench, unified, unrolls), nullptr);
        for (const std::string &label : driver::archRegistry().names()) {
            SCOPED_TRACE(bench.name + " on " + label);
            driver::CellJob job;
            job.id = 1;
            job.bench = bench.name;
            job.arch = label;
            job.unrolls = unrolls;
            job.baseline = baseline;
            const driver::CellOutcome out = driver::executeCellJob(job);
            ASSERT_TRUE(out.ok) << out.error;
            EXPECT_EQ(driver::benchmarkRunToJson(out.run),
                      driver::benchmarkRunToJson(referenceCell(
                          bench, driver::archRegistry().resolve(label),
                          unrolls, baseline)));
        }
    }
}

// ------------------------------------------------------- oracle liveness

namespace
{

/**
 * A flat memory (the backing, one cycle per access) that answers one
 * chosen load with one wrong byte: whether the oracle replays a load
 * or reads the backing for it, it must notice.
 */
class OneWrongByteMemory final : public mem::MemSystem
{
  public:
    OneWrongByteMemory(const machine::MachineConfig &config,
                       std::uint64_t wrong_load)
        : MemSystem(config), wrongLoad(wrong_load)
    {
    }

    mem::MemAccessResult
    access(const mem::MemAccess &acc, Cycle now,
           std::uint64_t store_value) override
    {
        ++accesses;
        mem::MemAccessResult res;
        res.ready = now + 1;
        if (acc.isPrefetch)
            return res;
        if (!acc.isLoad) {
            back.store(acc.addr, store_value, acc.size);
            return res;
        }
        res.value = back.load(acc.addr, acc.size);
        if (loads++ == wrongLoad)
            res.value ^= 0x5a; // the low (first) byte
        return res;
    }

    void timeKey(Cycle, std::vector<std::uint64_t> &) const override {}

    void
    counterSnapshot(std::vector<std::uint64_t> &out) const override
    {
        out.push_back(accesses);
    }

    void addCounters(const std::uint64_t *delta) override
    {
        accesses += delta[0];
    }

    void shiftTime(Cycle, Cycle) override {}

  private:
    std::uint64_t wrongLoad;
    std::uint64_t loads = 0, accesses = 0;
};

/** A strided access of @p array in a hand-built loop. */
ir::Operation
stridedOp(ir::OpKind kind, int array, long offset)
{
    ir::Operation op;
    op.kind = kind;
    op.mem.array = array;
    op.mem.elemSize = 4;
    op.mem.strideElems = 1;
    op.mem.offsetElems = offset;
    return op;
}

/** Violations of one oracle-checked run of @p s on a memory that
 *  corrupts its 10th load. */
std::uint64_t
violationsWithOneWrongByte(const sched::Schedule &s)
{
    OneWrongByteMemory mem(machine::MachineConfig::paperUnified(), 10);
    sim::KernelPlan plan(s);
    return plan.run(mem, 64, 0, sim::SimOptions{}).coherenceViolations;
}

} // namespace

TEST(OracleLiveness, WrongByteOfAReadOnlyLoad)
{
    // The load's array is disjoint from the store's: the oracle
    // compares the load against the backing, replaying nothing.
    ir::Loop l("read_only");
    int in = l.addArray({"in", 0x10000, 4096});
    int out = l.addArray({"out", 0x20000, 4096});
    OpId ld = l.addOp(stridedOp(ir::OpKind::Load, in, 0));
    ir::Operation al;
    al.kind = ir::OpKind::IntAlu;
    OpId aid = l.addOp(al);
    OpId st = l.addOp(stridedOp(ir::OpKind::Store, out, 0));
    l.addRegEdge(ld, aid);
    l.addRegEdge(aid, st);
    l.validate();
    EXPECT_EQ(violationsWithOneWrongByte(
                  scheduleFor(l, ArchSpec::unified())),
              1u);
}

TEST(OracleLiveness, WrongByteOfAWrittenLoad)
{
    // A read-modify-write stream: a store writes the load's array, so
    // the load is replayed.
    EXPECT_EQ(violationsWithOneWrongByte(
                  scheduleFor(rmwLoop("written", 256), ArchSpec::unified())),
              1u);
}

TEST(OracleLiveness, AliasingArraysAreReplayed)
{
    // Two ArrayInfos over the same bytes, with no memory edge between
    // the accesses: iteration i loads element i + 1 through one, and
    // iteration i + 1 stores it through the other. Placing the store
    // two cycles before the load (II 1) makes it land first, so the
    // load observes the value program order says it must not see. The
    // replay, run in program order, flags every such load; comparing
    // against the backing instead would find them all equal.
    ir::Loop l("aliasing");
    int a = l.addArray({"a", 0x30000, 4096});
    int b = l.addArray({"b", 0x30000, 4096});
    l.addOp(stridedOp(ir::OpKind::Load, a, 1));
    l.addOp(stridedOp(ir::OpKind::Store, b, 0));
    l.validate();

    sched::Schedule s;
    s.loop = l;
    s.ii = 1;
    s.stageCount = 3;
    s.rampCycles = 2;
    s.ops.resize(2);
    s.ops[0].cluster = 0;
    s.ops[0].startCycle = 2;
    s.ops[1].cluster = 0;
    s.ops[1].startCycle = 0;

    const ArchSpec arch = ArchSpec::unified();
    auto mem = mem::MemSystem::create(arch.config);
    sim::KernelPlan plan(s);
    const std::uint64_t trips = 64;
    EXPECT_EQ(plan.run(*mem, trips, 0, sim::SimOptions{})
                  .coherenceViolations,
              trips - 1);
    expectEquivalent(s, arch, trips, 3);
}
