/**
 * @file
 * Tests of the kernel simulator: stall-on-use accounting, compute
 * cycle bookkeeping, address streams, and the coherence oracle —
 * including a deliberately miscompiled schedule the oracle must catch.
 */

#include <gtest/gtest.h>

#include "ir/loop.hh"
#include "machine/machine_config.hh"
#include "mem/mem_system.hh"
#include "sched/scheduler.hh"
#include "sim/address.hh"
#include "sim/kernel_sim.hh"

using namespace l0vliw;
using namespace l0vliw::sim;
using l0vliw::machine::MachineConfig;

namespace
{

ir::Operation
mkLoad(int array, int elem, long stride, long offset, bool strided = true)
{
    ir::Operation op;
    op.kind = ir::OpKind::Load;
    op.mem.array = array;
    op.mem.elemSize = elem;
    op.mem.strideElems = stride;
    op.mem.offsetElems = offset;
    op.mem.strided = strided;
    return op;
}

ir::Operation
mkStore(int array, int elem, long stride, long offset)
{
    ir::Operation op = mkLoad(array, elem, stride, offset);
    op.kind = ir::OpKind::Store;
    return op;
}

ir::Operation
mkAlu()
{
    ir::Operation op;
    op.kind = ir::OpKind::IntAlu;
    return op;
}

} // namespace

TEST(Address, StridedStreamIsAffine)
{
    ir::Loop l("a");
    int arr = l.addArray({"arr", 0x1000, 4096});
    OpId ld = l.addOp(mkLoad(arr, 2, 3, 5));
    EXPECT_EQ(addressOf(l, ld, 0), 0x1000u + 10);
    EXPECT_EQ(addressOf(l, ld, 7), 0x1000u + 2 * (5 + 21));
}

TEST(Address, NegativeOffsetsWrapIntoArray)
{
    ir::Loop l("a");
    int arr = l.addArray({"arr", 0x1000, 64});
    OpId ld = l.addOp(mkLoad(arr, 4, 1, -1));
    Addr a = addressOf(l, ld, 0); // element -1 wraps to the last one
    EXPECT_EQ(a, 0x1000u + 60);
}

TEST(Address, IrregularIsDeterministicAndBounded)
{
    ir::Loop l("a");
    int arr = l.addArray({"arr", 0x1000, 256});
    OpId ld = l.addOp(mkLoad(arr, 4, 0, 0, /*strided=*/false));
    for (std::uint64_t i = 0; i < 50; ++i) {
        Addr a1 = addressOf(l, ld, i);
        Addr a2 = addressOf(l, ld, i);
        EXPECT_EQ(a1, a2);
        EXPECT_GE(a1, 0x1000u);
        EXPECT_LT(a1, 0x1000u + 256);
    }
}

namespace
{

/** One load feeding one ALU, scheduled by the real scheduler. */
sched::Schedule
simpleLoadUse(const MachineConfig &cfg, const sched::SchedulerOptions &o)
{
    ir::Loop l("lu");
    int arr = l.addArray({"arr", 0x10000, 4096});
    OpId ld = l.addOp(mkLoad(arr, 4, 1, 0));
    OpId al = l.addOp(mkAlu());
    l.addRegEdge(ld, al);
    return sched::ModuloScheduler(cfg, o).schedule(l);
}

} // namespace

TEST(KernelSim, NoStallWhenLatenciesHonoured)
{
    // BASE schedule on the unified machine with an L1-resident array:
    // after the cold pass every load hits at its scheduled latency.
    MachineConfig cfg = MachineConfig::paperUnified();
    sched::Schedule s =
        simpleLoadUse(cfg, sched::SchedulerOptions::baseUnified());
    auto mem = mem::MemSystem::create(cfg);
    SimOptions opts;
    auto warm = simulateInvocation(s, *mem, 256, 0, opts);
    auto hot = simulateInvocation(s, *mem, 256, warm.totalCycles(), opts);
    EXPECT_EQ(hot.stallCycles, 0u);
    EXPECT_EQ(hot.coherenceViolations, 0u);
}

TEST(KernelSim, ColdMissesStallTheMachine)
{
    MachineConfig cfg = MachineConfig::paperUnified();
    sched::Schedule s =
        simpleLoadUse(cfg, sched::SchedulerOptions::baseUnified());
    auto mem = mem::MemSystem::create(cfg);
    SimOptions opts;
    auto cold = simulateInvocation(s, *mem, 256, 0, opts);
    // 256 iterations x 4 bytes = 32 blocks; each cold miss costs the
    // 10-cycle L2 latency beyond the scheduled L1 latency.
    EXPECT_GE(cold.stallCycles, 30u * cfg.l2Latency);
}

TEST(KernelSim, ComputeCyclesMatchScheduleSpan)
{
    MachineConfig cfg = MachineConfig::paperUnified();
    sched::Schedule s =
        simpleLoadUse(cfg, sched::SchedulerOptions::baseUnified());
    auto mem = mem::MemSystem::create(cfg);
    SimOptions opts;
    opts.checkCoherence = false;
    auto r = simulateInvocation(s, *mem, 100, 0, opts);
    int max_start = 0;
    for (const auto &os : s.ops)
        max_start = std::max(max_start, os.startCycle);
    EXPECT_EQ(r.computeCycles,
              static_cast<std::uint64_t>(max_start) + 99u * s.ii + 1u);
}

TEST(KernelSim, L0FlushCostsOneCycle)
{
    MachineConfig cfg = MachineConfig::paperL0(8);
    sched::Schedule s = simpleLoadUse(cfg, sched::SchedulerOptions::l0());
    auto mem = mem::MemSystem::create(cfg);
    SimOptions opts;
    auto r = simulateInvocation(s, *mem, 100, 0, opts);
    int max_start = 0;
    for (const auto &os : s.ops)
        max_start = std::max(max_start, os.startCycle);
    EXPECT_EQ(r.computeCycles,
              static_cast<std::uint64_t>(max_start) + 99u * s.ii + 2u);
}

TEST(KernelSim, ZeroTripsIsEmpty)
{
    MachineConfig cfg = MachineConfig::paperUnified();
    sched::Schedule s =
        simpleLoadUse(cfg, sched::SchedulerOptions::baseUnified());
    auto mem = mem::MemSystem::create(cfg);
    SimOptions opts;
    auto r = simulateInvocation(s, *mem, 0, 0, opts);
    EXPECT_EQ(r.totalCycles(), 0u);
    EXPECT_EQ(r.memAccesses, 0u);
}

TEST(KernelSim, RmwLoopIsCoherentUnderL0)
{
    // load a[i] -> alu -> store a[i], loads and stores sharing an L0
    // buffer through the 1C discipline: the oracle must see no stale
    // value over many invocations.
    ir::Loop l("rmw");
    int arr = l.addArray({"arr", 0x10000, 4096});
    OpId ld = l.addOp(mkLoad(arr, 4, 1, -1));
    OpId al = l.addOp(mkAlu());
    OpId st = l.addOp(mkStore(arr, 4, 1, 0));
    l.addRegEdge(ld, al);
    l.addRegEdge(al, st);
    l.addMemEdge(st, ld, 1);
    l.addMemEdge(ld, st, 0);

    MachineConfig cfg = MachineConfig::paperL0(8);
    sched::Schedule s =
        sched::ModuloScheduler(cfg, sched::SchedulerOptions::l0())
            .schedule(l);
    auto mem = mem::MemSystem::create(cfg);
    SimOptions opts;
    opts.strictCoherence = true;
    Cycle clock = 0;
    for (int inv = 0; inv < 4; ++inv) {
        auto r = simulateInvocation(s, *mem, 300, clock, opts);
        clock += r.totalCycles();
        EXPECT_EQ(r.coherenceViolations, 0u);
    }
}

TEST(KernelSim, OracleCatchesMiscompiledCoherence)
{
    // Deliberately violate the 1C rule: the store writes a[i], a
    // second load reads a[i-1] (flow dependent) from L0 in a DIFFERENT
    // cluster. The store never updates that remote L0 buffer, so the
    // reader must eventually observe a stale value — and the oracle
    // must report it.
    ir::Loop l("bad");
    int arr = l.addArray({"arr", 0x10000, 4096});
    OpId ld1 = l.addOp(mkLoad(arr, 4, 1, 0));   // fills L0 in cluster 1
    OpId st = l.addOp(mkStore(arr, 4, 1, 0));   // writes a[i], cluster 0
    OpId ld2 = l.addOp(mkLoad(arr, 4, 1, -1));  // reads a[i-1], cluster 1
    l.addRegEdge(ld1, st);
    l.addMemEdge(ld1, st, 0);
    l.addMemEdge(st, ld2, 1);
    l.addMemEdge(ld2, st, 1);

    sched::Schedule s;
    s.loop = l;
    s.ii = 4;
    s.stageCount = 2;
    s.ops.resize(3);
    s.ops[ld1] = {1, 0, 1, true, ir::AccessHint::ParAccess,
                  ir::MapHint::LinearMap, ir::PrefetchHint::Positive};
    s.ops[st] = {0, 2, 1, false, ir::AccessHint::NoAccess,
                 ir::MapHint::LinearMap, ir::PrefetchHint::NoPrefetch};
    s.ops[ld2] = {1, 5, 1, true, ir::AccessHint::ParAccess,
                  ir::MapHint::LinearMap, ir::PrefetchHint::NoPrefetch};

    MachineConfig cfg = MachineConfig::paperL0(8);
    auto mem = mem::MemSystem::create(cfg);
    SimOptions opts; // non-strict: count violations
    auto r = simulateInvocation(s, *mem, 200, 0, opts);
    EXPECT_GT(r.coherenceViolations, 0u);
}

TEST(KernelSim, DeterministicAcrossRuns)
{
    MachineConfig cfg = MachineConfig::paperL0(8);
    sched::Schedule s = simpleLoadUse(cfg, sched::SchedulerOptions::l0());
    SimOptions opts;
    auto m1 = mem::MemSystem::create(cfg);
    auto m2 = mem::MemSystem::create(cfg);
    auto r1 = simulateInvocation(s, *m1, 500, 0, opts);
    auto r2 = simulateInvocation(s, *m2, 500, 0, opts);
    EXPECT_EQ(r1.totalCycles(), r2.totalCycles());
    EXPECT_EQ(r1.stallCycles, r2.stallCycles);
}
