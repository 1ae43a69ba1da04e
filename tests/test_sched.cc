/**
 * @file
 * Tests of the compiler: MII computation, slack/SMS ordering, the
 * modulo reservation table, and the BASE and L0-aware schedulers
 * (capacity, coherence constraints, hints, explicit prefetches, PSR).
 */

#include <algorithm>
#include <cstdio>
#include <gtest/gtest.h>
#include <set>
#include <string>

#include "ir/loop.hh"
#include "sched/coherence.hh"
#include "sched/latency_model.hh"
#include "sched/mii.hh"
#include "sched/mrt.hh"
#include "sched/scheduler.hh"
#include "sched/sms.hh"
#include "sched/validate.hh"
#include "driver/registry.hh"
#include "driver/runner.hh"
#include "workloads/kernels.hh"
#include "workloads/registry.hh"
#include "workloads/workload.hh"

using namespace l0vliw;
using namespace l0vliw::sched;
using l0vliw::machine::MachineConfig;

namespace
{

ir::Operation
mkOp(ir::OpKind k)
{
    ir::Operation op;
    op.kind = k;
    return op;
}

ir::Operation
mkLoad(int array, int elem = 4, long stride = 1, long offset = 0,
       bool strided = true)
{
    ir::Operation op = mkOp(ir::OpKind::Load);
    op.mem.array = array;
    op.mem.elemSize = elem;
    op.mem.strideElems = stride;
    op.mem.offsetElems = offset;
    op.mem.strided = strided;
    return op;
}

ir::Operation
mkStore(int array, int elem = 4, long stride = 1, long offset = 0)
{
    ir::Operation op = mkLoad(array, elem, stride, offset);
    op.kind = ir::OpKind::Store;
    return op;
}

/** y[i] = f(y[i-1], x[i]) with a chain of @p chain_ops ALUs. */
ir::Loop
recurrenceLoop(int chain_ops)
{
    ir::Loop l("rec");
    int y = l.addArray({"y", 0x10000, 4096});
    int x = l.addArray({"x", 0x20000, 4096});
    OpId ld = l.addOp(mkLoad(y, 4, 1, -1));
    OpId lx = l.addOp(mkLoad(x, 4, 1, 0));
    OpId prev = ld;
    for (int i = 0; i < chain_ops; ++i) {
        OpId a = l.addOp(mkOp(ir::OpKind::IntAlu));
        l.addRegEdge(prev, a);
        if (i == 0)
            l.addRegEdge(lx, a);
        prev = a;
    }
    OpId st = l.addOp(mkStore(y, 4, 1, 0));
    l.addRegEdge(prev, st);
    l.addMemEdge(st, ld, 1);
    l.addMemEdge(ld, st, 0);
    l.validate();
    return l;
}

} // namespace

// ------------------------------------------------------------------- MII

TEST(Mii, ResourceBound)
{
    MachineConfig cfg = MachineConfig::paperUnified();
    ir::Loop l("res");
    int a = l.addArray({"a", 0, 4096});
    for (int i = 0; i < 9; ++i)
        l.addOp(mkLoad(a, 4, 1, i));
    // 9 memory ops on 4 memory units -> ceil(9/4) = 3.
    EXPECT_EQ(resMii(l, cfg), 3);
}

TEST(Mii, IntAndFpCountedSeparately)
{
    MachineConfig cfg = MachineConfig::paperUnified();
    ir::Loop l("mix");
    for (int i = 0; i < 5; ++i)
        l.addOp(mkOp(ir::OpKind::IntAlu));
    for (int i = 0; i < 13; ++i)
        l.addOp(mkOp(ir::OpKind::FpAlu));
    EXPECT_EQ(resMii(l, cfg), 4); // ceil(13/4)
}

TEST(Mii, RecurrenceBoundMatchesChain)
{
    MachineConfig cfg = MachineConfig::paperUnified();
    ir::Loop l = recurrenceLoop(2);
    // L1 latency 6: the cycle carries lat(load)=6, two 1-cycle ALU
    // edges, and the 1-cycle store->load memory edge -> RecMII = 9.
    LatencyModel lat(l, cfg);
    EXPECT_EQ(recMii(l, lat), 9);
    // L0 latency 1: cycle = 1+1+1+1 = 4.
    LatencyModel lat0 = lat;
    for (const auto &op : l.ops())
        if (op.kind == ir::OpKind::Load)
            lat0.setLoadLatency(op.id, cfg.l0Latency);
    EXPECT_EQ(recMii(l, lat0), 4);
}

TEST(Mii, NoRecurrenceGivesOne)
{
    MachineConfig cfg = MachineConfig::paperUnified();
    ir::Loop l("chain");
    OpId a = l.addOp(mkOp(ir::OpKind::IntAlu));
    OpId b = l.addOp(mkOp(ir::OpKind::IntAlu));
    l.addRegEdge(a, b);
    LatencyModel lat(l, cfg);
    EXPECT_EQ(recMii(l, lat), 1);
}

TEST(Mii, ReverseOrderedChainNeedsEveryRound)
{
    // Edges listed against the dependence order: each relaxation round
    // of the positive-cycle probe settles one more op, so the probe
    // must run all n-1 rounds before it may call the graph settled.
    MachineConfig cfg = MachineConfig::paperUnified();
    constexpr int kOps = 12;
    for (bool closed : {false, true}) {
        ir::Loop l("reverse");
        for (int i = 0; i < kOps; ++i)
            l.addOp(mkOp(ir::OpKind::IntAlu));
        if (closed)
            l.addRegEdge(kOps - 1, 0, 1);
        for (int i = kOps - 1; i > 0; --i)
            l.addRegEdge(i - 1, i);
        LatencyModel lat(l, cfg);
        // The closed cycle carries kOps unit latencies over distance 1.
        EXPECT_EQ(recMii(l, lat), closed ? kOps : 1);
    }
}

TEST(Mii, MinIIIsMax)
{
    MachineConfig cfg = MachineConfig::paperUnified();
    ir::Loop l = recurrenceLoop(2);
    LatencyModel lat(l, cfg);
    EXPECT_EQ(minII(l, cfg, lat), std::max(resMii(l, cfg), 9));
}

// ----------------------------------------------------------- slack + SMS

TEST(Slack, ChainHasZeroSlackOnCriticalPath)
{
    MachineConfig cfg = MachineConfig::paperUnified();
    ir::Loop l("chain");
    OpId a = l.addOp(mkOp(ir::OpKind::IntAlu));
    OpId b = l.addOp(mkOp(ir::OpKind::IntAlu));
    OpId c = l.addOp(mkOp(ir::OpKind::IntAlu));
    l.addRegEdge(a, b);
    l.addRegEdge(b, c);
    OpId free_op = l.addOp(mkOp(ir::OpKind::IntAlu));
    LatencyModel lat(l, cfg);
    SlackInfo s = computeSlack(l, lat, 1);
    EXPECT_EQ(s.slack[a], 0);
    EXPECT_EQ(s.slack[b], 0);
    EXPECT_EQ(s.slack[c], 0);
    EXPECT_GT(s.slack[free_op], 0);
}

TEST(Sms, OrderIsPermutation)
{
    ir::Loop l = recurrenceLoop(3);
    MachineConfig cfg = MachineConfig::paperUnified();
    LatencyModel lat(l, cfg);
    SlackInfo s = computeSlack(l, lat, 10);
    auto order = smsOrder(IncidentEdges(l), s);
    std::set<OpId> seen(order.begin(), order.end());
    EXPECT_EQ(static_cast<int>(seen.size()), l.numOps());
}

TEST(Sms, EveryLaterNodeTouchesOrderedSet)
{
    ir::Loop l = recurrenceLoop(3);
    MachineConfig cfg = MachineConfig::paperUnified();
    LatencyModel lat(l, cfg);
    SlackInfo s = computeSlack(l, lat, 10);
    auto order = smsOrder(IncidentEdges(l), s);
    std::set<OpId> placed{order[0]};
    for (std::size_t i = 1; i < order.size(); ++i) {
        bool adjacent = false;
        for (const auto &e : l.edges()) {
            adjacent |= e.src == order[i] && placed.count(e.dst);
            adjacent |= e.dst == order[i] && placed.count(e.src);
        }
        EXPECT_TRUE(adjacent) << "node " << order[i] << " isolated";
        placed.insert(order[i]);
    }
}

TEST(Sms, MostCriticalFirst)
{
    ir::Loop l = recurrenceLoop(3);
    MachineConfig cfg = MachineConfig::paperUnified();
    LatencyModel lat(l, cfg);
    SlackInfo s = computeSlack(l, lat, 11);
    auto order = smsOrder(IncidentEdges(l), s);
    int min_slack = *std::min_element(s.slack.begin(), s.slack.end());
    EXPECT_EQ(s.slack[order[0]], min_slack);
}

// ------------------------------------------------------------------- MRT

TEST(Mrt, FuCapacityPerRow)
{
    MachineConfig cfg = MachineConfig::paperUnified();
    Mrt m(cfg, 4);
    EXPECT_TRUE(m.fuFree(0, FuClass::Mem, 2));
    m.reserveFu(0, FuClass::Mem, 2);
    EXPECT_FALSE(m.fuFree(0, FuClass::Mem, 2));
    EXPECT_FALSE(m.fuFree(0, FuClass::Mem, 6)); // same row mod 4
    EXPECT_TRUE(m.fuFree(0, FuClass::Mem, 3));
    EXPECT_TRUE(m.fuFree(1, FuClass::Mem, 2)); // other cluster
    EXPECT_TRUE(m.fuFree(0, FuClass::Int, 2)); // other class
}

TEST(Mrt, MemSlotBusyTracksMemOnly)
{
    MachineConfig cfg = MachineConfig::paperUnified();
    Mrt m(cfg, 3);
    m.reserveFu(2, FuClass::Int, 1);
    EXPECT_FALSE(m.memSlotBusy(2, 1));
    m.reserveFu(2, FuClass::Mem, 1);
    EXPECT_TRUE(m.memSlotBusy(2, 1));
    EXPECT_TRUE(m.memSlotBusy(2, 4)); // modulo
}

TEST(Mrt, BusChannelsAndWindowSearch)
{
    MachineConfig cfg = MachineConfig::paperUnified();
    Mrt m(cfg, 2);
    // 4 buses per row; row 0 = cycles 0,2,4...
    for (int i = 0; i < 4; ++i)
        m.reserveBus(0);
    EXPECT_FALSE(m.busFree(0));
    EXPECT_TRUE(m.busFree(1));
    EXPECT_EQ(m.findBusSlot(0, 10), 1);
    EXPECT_EQ(m.findBusSlot(2, 2), -1); // row 0 full, window too small
}

TEST(Mrt, RollbackRestoresEverything)
{
    MachineConfig cfg = MachineConfig::paperUnified();
    Mrt m(cfg, 4);
    m.reserveFu(0, FuClass::Mem, 1);
    auto cp = m.checkpoint();
    m.reserveFu(1, FuClass::Int, 2);
    m.reserveBus(3);
    m.rollback(cp);
    EXPECT_TRUE(m.fuFree(1, FuClass::Int, 2));
    EXPECT_TRUE(m.busFree(3));
    EXPECT_FALSE(m.fuFree(0, FuClass::Mem, 1)); // pre-checkpoint stays
}

// -------------------------------------------------------- BASE scheduler

TEST(BaseScheduler, LoadLatencyFollowsTheMachine)
{
    EXPECT_EQ(MachineConfig::paperUnified().scheduledLoadLatency(), 6);
    EXPECT_EQ(MachineConfig::paperL0(8).scheduledLoadLatency(), 6);
    EXPECT_EQ(MachineConfig::paperMultiVliw().scheduledLoadLatency(), 2);
    EXPECT_EQ(MachineConfig::paperInterleaved().scheduledLoadLatency(), 6);

    // Every load that does not use L0 is scheduled at its machine's
    // latency, but an owner-aware one in its word's home cluster.
    workloads::AddressSpace as;
    workloads::StreamParams p;
    p.loadStreams = 3;
    p.storeStreams = 1;
    p.intOps = 4;
    const ir::Loop l = ir::unrollLoop(workloads::streamMap(as, "s", p), 4);
    for (const std::string &label : driver::archRegistry().names()) {
        const driver::ArchSpec arch = driver::archRegistry().resolve(label);
        const Schedule out =
            ModuloScheduler(arch.config, arch.sched).schedule(l);
        for (OpId i = 0; i < out.loop.numOps(); ++i) {
            if (out.loop.op(i).kind != ir::OpKind::Load || out.ops[i].usesL0)
                continue;
            const int lat = out.ops[i].assignedLatency;
            if (arch.sched.ownerAware
                    && lat == arch.config.wiLocalHitLatency)
                continue;
            EXPECT_EQ(lat, arch.config.scheduledLoadLatency())
                << label << " op " << i;
        }
    }
}

TEST(BaseSchedulerDeathTest, L0SlowerThanL1IsRejected)
{
    MachineConfig cfg = MachineConfig::paperL0(8);
    cfg.l0Latency = cfg.l1Latency + 1;
    EXPECT_DEATH(cfg.validate(), "no slower than the L1");
}

TEST(BaseScheduler, ValidScheduleForStreamLoop)
{
    workloads::AddressSpace as;
    workloads::StreamParams p;
    p.loadStreams = 2;
    p.storeStreams = 1;
    p.intOps = 4;
    ir::Loop l = workloads::streamMap(as, "s", p);
    MachineConfig cfg = MachineConfig::paperUnified();
    ModuloScheduler s(cfg, SchedulerOptions::baseUnified());
    Schedule out = s.schedule(l);
    EXPECT_TRUE(validateSchedule(out, cfg).empty());
    // Nothing uses L0 in BASE mode.
    for (const auto &os : out.ops)
        EXPECT_FALSE(os.usesL0);
}

TEST(BaseScheduler, AchievesResMiiOnParallelWork)
{
    MachineConfig cfg = MachineConfig::paperUnified();
    ir::Loop l("par");
    for (int i = 0; i < 8; ++i)
        l.addOp(mkOp(ir::OpKind::IntAlu));
    ModuloScheduler s(cfg, SchedulerOptions::baseUnified());
    Schedule out = s.schedule(l);
    EXPECT_EQ(out.ii, 2); // 8 int ops on 4 int units
}

TEST(BaseScheduler, RecurrenceLatencyScalesII)
{
    ir::Loop l = recurrenceLoop(2);
    MachineConfig cfg6 = MachineConfig::paperUnified();
    MachineConfig cfg2 = cfg6;
    cfg2.l1Latency = 2;
    const SchedulerOptions o = SchedulerOptions::baseUnified();
    Schedule s6 = ModuloScheduler(cfg6, o).schedule(l);
    Schedule s2 = ModuloScheduler(cfg2, o).schedule(l);
    // RecMII is 9 vs 5; the placement may cost one extra cycle, but
    // the latency-driven gap must remain.
    EXPECT_LE(s6.ii, 10);
    EXPECT_LE(s2.ii, 6);
    EXPECT_GE(s6.ii - s2.ii, 3);
}

TEST(BaseScheduler, CrossClusterEdgesGetBusTransfers)
{
    // More parallel chains than one cluster can hold forces cross-
    // cluster placement; every cross-cluster register edge must have
    // bus latency honoured (checked by the validator).
    MachineConfig cfg = MachineConfig::paperUnified();
    ir::Loop l("wide");
    for (int c = 0; c < 8; ++c) {
        OpId a = l.addOp(mkOp(ir::OpKind::IntAlu));
        OpId b = l.addOp(mkOp(ir::OpKind::IntAlu));
        OpId d = l.addOp(mkOp(ir::OpKind::IntAlu));
        l.addRegEdge(a, b);
        l.addRegEdge(b, d);
    }
    ModuloScheduler s(cfg, SchedulerOptions::baseUnified());
    Schedule out = s.schedule(l);
    EXPECT_TRUE(validateSchedule(out, cfg).empty());
}

// --------------------------------------------------------- L0 scheduler

TEST(L0Scheduler, CandidatesGetL0AndHints)
{
    workloads::AddressSpace as;
    workloads::StreamParams p;
    p.loadStreams = 2;
    p.storeStreams = 1;
    p.intOps = 4;
    ir::Loop l = workloads::streamMap(as, "s", p);
    MachineConfig cfg = MachineConfig::paperL0(8);
    ModuloScheduler s(cfg, SchedulerOptions::l0());
    Schedule out = s.schedule(l);
    EXPECT_TRUE(validateSchedule(out, cfg).empty());
    int l0_loads = 0;
    for (OpId i = 0; i < out.loop.numOps(); ++i) {
        if (out.loop.op(i).kind == ir::OpKind::Load && out.ops[i].usesL0) {
            ++l0_loads;
            EXPECT_EQ(out.ops[i].assignedLatency, cfg.l0Latency);
            EXPECT_NE(out.ops[i].access, ir::AccessHint::NoAccess);
        }
    }
    EXPECT_EQ(l0_loads, 2);
}

TEST(L0Scheduler, IrregularLoadsAreNotCandidates)
{
    workloads::AddressSpace as;
    ir::Loop l = workloads::tableLookup(as, "t", 2, 1, 3, 4096);
    MachineConfig cfg = MachineConfig::paperL0(8);
    Schedule out = ModuloScheduler(cfg, SchedulerOptions::l0()).schedule(l);
    for (OpId i = 0; i < out.loop.numOps(); ++i) {
        const ir::Operation &op = out.loop.op(i);
        if (op.kind == ir::OpKind::Load && !op.mem.strided) {
            EXPECT_FALSE(out.ops[i].usesL0);
            EXPECT_EQ(out.ops[i].assignedLatency, cfg.l1Latency);
        }
    }
}

TEST(L0Scheduler, CapacityLimitsL0Streams)
{
    // 12 independent streams on 1-entry buffers: at most 4 (one per
    // cluster) can hold the L0 latency.
    ir::Loop l("many");
    for (int i = 0; i < 12; ++i) {
        int a = l.addArray({"a" + std::to_string(i),
                            0x10000ULL + 0x10000ULL * i, 4096});
        l.addOp(mkLoad(a));
    }
    MachineConfig cfg = MachineConfig::paperL0(1);
    Schedule out = ModuloScheduler(cfg, SchedulerOptions::l0()).schedule(l);
    EXPECT_TRUE(validateSchedule(out, cfg).empty());
    int l0_loads = 0;
    for (OpId i = 0; i < out.loop.numOps(); ++i)
        l0_loads += out.ops[i].usesL0;
    EXPECT_LE(l0_loads, 4);
    EXPECT_GT(l0_loads, 0);
}

TEST(L0Scheduler, OneClusterConstraintOnLoadStoreSets)
{
    ir::Loop l = recurrenceLoop(2);
    MachineConfig cfg = MachineConfig::paperL0(8);
    Schedule out = ModuloScheduler(cfg, SchedulerOptions::l0()).schedule(l);
    EXPECT_TRUE(validateSchedule(out, cfg).empty());
    // If the lookback load uses L0, it shares a cluster with the store
    // and the store is PAR (updates the local copy).
    const ir::Loop &body = out.loop;
    for (OpId i = 0; i < body.numOps(); ++i) {
        if (body.op(i).kind != ir::OpKind::Load || !out.ops[i].usesL0)
            continue;
        if (body.op(i).mem.offsetElems != -1)
            continue;
        for (OpId j = 0; j < body.numOps(); ++j) {
            if (body.op(j).kind == ir::OpKind::Store) {
                EXPECT_EQ(out.ops[j].cluster, out.ops[i].cluster);
                EXPECT_EQ(out.ops[j].access, ir::AccessHint::ParAccess);
            }
        }
    }
}

TEST(L0Scheduler, ForceNL0DisablesL0InLoadStoreSets)
{
    ir::Loop l = recurrenceLoop(2);
    MachineConfig cfg = MachineConfig::paperL0(8);
    Schedule out = ModuloScheduler(
        cfg, SchedulerOptions::l0(CoherenceMode::ForceNL0)).schedule(l);
    EXPECT_TRUE(validateSchedule(out, cfg).empty());
    const ir::Loop &body = out.loop;
    for (OpId i = 0; i < body.numOps(); ++i) {
        if (body.op(i).mem.array == 0 && body.op(i).kind
                == ir::OpKind::Load) {
            EXPECT_FALSE(out.ops[i].usesL0);
        }
    }
}

TEST(L0Scheduler, InterleavedMapForUnrolledUnitStride)
{
    workloads::AddressSpace as;
    workloads::StreamParams p;
    p.elemSize = 2;
    p.loadStreams = 1;
    p.storeStreams = 1;
    p.intOps = 4;
    ir::Loop l = ir::unrollLoop(workloads::streamMap(as, "s", p), 4);
    MachineConfig cfg = MachineConfig::paperL0(8);
    Schedule out = ModuloScheduler(cfg, SchedulerOptions::l0()).schedule(l);
    int interleaved = 0, positive = 0;
    for (OpId i = 0; i < out.loop.numOps(); ++i) {
        if (out.loop.op(i).kind != ir::OpKind::Load || !out.ops[i].usesL0)
            continue;
        if (out.ops[i].map == ir::MapHint::InterleavedMap)
            ++interleaved;
        positive += out.ops[i].prefetch == ir::PrefetchHint::Positive;
    }
    EXPECT_EQ(interleaved, 4);
    // Redundancy suppression: one trigger for the whole group.
    EXPECT_EQ(positive, 1);
}

TEST(L0Scheduler, RotatedClustersForInterleavedGroup)
{
    workloads::AddressSpace as;
    workloads::StreamParams p;
    p.elemSize = 2;
    p.loadStreams = 1;
    p.storeStreams = 1;
    p.intOps = 4;
    ir::Loop l = ir::unrollLoop(workloads::streamMap(as, "s", p), 4);
    MachineConfig cfg = MachineConfig::paperL0(8);
    Schedule out = ModuloScheduler(cfg, SchedulerOptions::l0()).schedule(l);
    // Collect (offset mod 4 -> cluster) of the interleaved loads: the
    // mapping must be a rotation (offset k in cluster (c0 + k) mod 4).
    std::map<long, ClusterId> by_offset;
    for (OpId i = 0; i < out.loop.numOps(); ++i) {
        const ir::Operation &op = out.loop.op(i);
        if (op.kind == ir::OpKind::Load && out.ops[i].usesL0)
            by_offset[op.mem.offsetElems] = out.ops[i].cluster;
    }
    ASSERT_EQ(by_offset.size(), 4u);
    ClusterId c0 = by_offset[0];
    for (const auto &kv : by_offset)
        EXPECT_EQ(kv.second, (c0 + kv.first) % 4);
}

TEST(L0Scheduler, NegativeStrideGetsNegativePrefetch)
{
    ir::Loop l("revstream");
    int a = l.addArray({"a", 0x10000, 4096});
    OpId ld = l.addOp(mkLoad(a, 4, -1, 512));
    OpId al = l.addOp(mkOp(ir::OpKind::IntAlu));
    l.addRegEdge(ld, al);
    MachineConfig cfg = MachineConfig::paperL0(8);
    Schedule out = ModuloScheduler(cfg, SchedulerOptions::l0()).schedule(l);
    ASSERT_TRUE(out.ops[ld].usesL0);
    EXPECT_EQ(out.ops[ld].prefetch, ir::PrefetchHint::Negative);
}

TEST(L0Scheduler, StrideZeroGetsNoPrefetch)
{
    ir::Loop l("scalarish");
    int a = l.addArray({"a", 0x10000, 4096});
    OpId ld = l.addOp(mkLoad(a, 4, 0, 0));
    OpId al = l.addOp(mkOp(ir::OpKind::IntAlu));
    l.addRegEdge(ld, al);
    MachineConfig cfg = MachineConfig::paperL0(8);
    Schedule out = ModuloScheduler(cfg, SchedulerOptions::l0()).schedule(l);
    ASSERT_TRUE(out.ops[ld].usesL0);
    EXPECT_EQ(out.ops[ld].prefetch, ir::PrefetchHint::NoPrefetch);
}

TEST(L0Scheduler, ColumnWalkGetsExplicitPrefetch)
{
    workloads::AddressSpace as;
    workloads::ColumnParams p;
    p.strideElems = 16;
    p.streams = 1;
    // Enough integer work that the load's cluster has spare memory
    // rows: step 5 only inserts a prefetch when a slot is free.
    p.intOps = 9;
    ir::Loop l = workloads::columnWalk(as, "c", p);
    MachineConfig cfg = MachineConfig::paperL0(8);
    Schedule out = ModuloScheduler(cfg, SchedulerOptions::l0()).schedule(l);
    EXPECT_GE(out.explicitPrefetches, 1);
    // The prefetch op exists in the scheduled loop body with the same
    // stride and a positive lookahead.
    bool found = false;
    for (const auto &op : out.loop.ops()) {
        if (op.kind != ir::OpKind::Prefetch)
            continue;
        found = true;
        EXPECT_EQ(op.mem.strideElems, 16);
        EXPECT_GT(op.mem.offsetElems, 0);
    }
    EXPECT_TRUE(found);
    EXPECT_TRUE(validateSchedule(out, cfg).empty());
}

TEST(L0Scheduler, SeqAccessAssignedWhenNextRowFree)
{
    // A lone load in a big loop body: the next row's memory slot is
    // free, so SEQ_ACCESS is legal and preferred over PAR.
    ir::Loop l("lone");
    int a = l.addArray({"a", 0x10000, 4096});
    OpId ld = l.addOp(mkLoad(a));
    OpId prev = ld;
    for (int i = 0; i < 8; ++i) {
        OpId x = l.addOp(mkOp(ir::OpKind::IntAlu));
        l.addRegEdge(prev, x);
        prev = x;
    }
    MachineConfig cfg = MachineConfig::paperL0(8);
    Schedule out = ModuloScheduler(cfg, SchedulerOptions::l0()).schedule(l);
    ASSERT_TRUE(out.ops[ld].usesL0);
    EXPECT_EQ(out.ops[ld].access, ir::AccessHint::SeqAccess);
}

TEST(L0Scheduler, SelectiveOffMarksEverything)
{
    ir::Loop l("many");
    for (int i = 0; i < 8; ++i) {
        int a = l.addArray({"a" + std::to_string(i),
                            0x10000ULL + 0x10000ULL * i, 4096});
        l.addOp(mkLoad(a));
    }
    MachineConfig cfg = MachineConfig::paperL0(1);
    SchedulerOptions opts = SchedulerOptions::l0();
    opts.selectiveL0 = false;
    Schedule out = ModuloScheduler(cfg, opts).schedule(l);
    int l0_loads = 0;
    for (const auto &os : out.ops)
        l0_loads += os.usesL0;
    EXPECT_EQ(l0_loads, 8); // overflow permitted: that is the ablation
}

// ------------------------------------------------------------------ PSR

TEST(Psr, TransformReplicatesStores)
{
    ir::Loop l = recurrenceLoop(2);
    std::vector<std::vector<OpId>> groups;
    ir::Loop t = psrTransform(l, 4, &groups);
    ASSERT_EQ(groups.size(), 1u);
    EXPECT_EQ(groups[0].size(), 4u);
    EXPECT_TRUE(t.op(groups[0][0]).mem.primaryStore);
    for (int k = 1; k < 4; ++k) {
        EXPECT_FALSE(t.op(groups[0][k]).mem.primaryStore);
        EXPECT_EQ(t.op(groups[0][k]).fixedCluster, k);
    }
    t.validate();
}

TEST(Psr, ScheduleCoversAllClusters)
{
    ir::Loop l = recurrenceLoop(2);
    MachineConfig cfg = MachineConfig::paperL0(8);
    Schedule out = ModuloScheduler(
        cfg, SchedulerOptions::l0(CoherenceMode::Psr)).schedule(l);
    EXPECT_TRUE(validateSchedule(out, cfg).empty());
    std::set<ClusterId> store_clusters;
    for (OpId i = 0; i < out.loop.numOps(); ++i)
        if (out.loop.op(i).kind == ir::OpKind::Store)
            store_clusters.insert(out.ops[i].cluster);
    EXPECT_EQ(store_clusters.size(), 4u);
}

// ---------------------------------------------------------- unroll choice

TEST(UnrollChoice, TinyTripCountStaysRolled)
{
    workloads::AddressSpace as;
    workloads::StreamParams p;
    ir::Loop l = workloads::streamMap(as, "s", p);
    MachineConfig cfg = MachineConfig::paperL0(8);
    ModuloScheduler s(cfg, SchedulerOptions::l0());
    EXPECT_EQ(chooseUnrollFactor(l, 6, s, 4), 1);
}

TEST(UnrollChoice, FractionalResourceGainUnrolls)
{
    // 5 int ops: ceil(5/4)=2 rolled vs ceil(20/4)=5 unrolled over 4
    // iterations -> 1.25 cycles/elem: unrolling wins.
    workloads::AddressSpace as;
    workloads::StreamParams p;
    p.loadStreams = 1;
    p.storeStreams = 1;
    p.intOps = 5;
    ir::Loop l = workloads::streamMap(as, "s", p);
    MachineConfig cfg = MachineConfig::paperL0(8);
    ModuloScheduler s(cfg, SchedulerOptions::l0());
    EXPECT_EQ(chooseUnrollFactor(l, 512, s, 4), 4);
}

TEST(UnrollChoice, PrologueDominatedBlockStaysRolled)
{
    workloads::AddressSpace as;
    ir::Loop l = workloads::blockTransform(as, "b", 8, 2, 4096);
    MachineConfig cfg = MachineConfig::paperL0(8);
    ModuloScheduler s(cfg, SchedulerOptions::l0());
    // Eight iterations per invocation: the deeper unrolled prologue
    // can never amortise.
    EXPECT_EQ(chooseUnrollFactor(l, 8, s, 4), 1);
}

TEST(UnrollChoice, LongTripRecurrenceUnrollsOnTie)
{
    ir::Loop l = recurrenceLoop(3);
    MachineConfig cfg = MachineConfig::paperL0(8);
    ModuloScheduler s(cfg, SchedulerOptions::l0());
    EXPECT_EQ(chooseUnrollFactor(l, 512, s, 4), 4);
}

// -------------------------------------------------------------- validator

TEST(Validator, CatchesDependenceViolation)
{
    ir::Loop l("bad");
    OpId a = l.addOp(mkOp(ir::OpKind::IntAlu));
    OpId b = l.addOp(mkOp(ir::OpKind::IntAlu));
    l.addRegEdge(a, b);
    Schedule s;
    s.loop = l;
    s.ii = 2;
    s.stageCount = 1;
    s.ops.resize(2);
    s.ops[a] = {0, 0, 1, false, ir::AccessHint::NoAccess,
                ir::MapHint::LinearMap, ir::PrefetchHint::NoPrefetch};
    s.ops[b] = {0, 0, 1, false, ir::AccessHint::NoAccess,
                ir::MapHint::LinearMap, ir::PrefetchHint::NoPrefetch};
    auto bad = validateSchedule(s, MachineConfig::paperUnified());
    ASSERT_FALSE(bad.empty());
    EXPECT_NE(bad[0].find("violated"), std::string::npos);
}

TEST(Validator, CatchesOversubscribedFu)
{
    ir::Loop l("bad");
    int arr = l.addArray({"a", 0, 4096});
    OpId a = l.addOp(mkLoad(arr));
    OpId b = l.addOp(mkLoad(arr, 4, 1, 64));
    (void)a;
    (void)b;
    Schedule s;
    s.loop = l;
    s.ii = 1;
    s.stageCount = 1;
    s.ops.resize(2);
    s.ops[0] = {0, 0, 6, false, ir::AccessHint::NoAccess,
                ir::MapHint::LinearMap, ir::PrefetchHint::NoPrefetch};
    s.ops[1] = {0, 0, 6, false, ir::AccessHint::NoAccess,
                ir::MapHint::LinearMap, ir::PrefetchHint::NoPrefetch};
    auto bad = validateSchedule(s, MachineConfig::paperUnified());
    ASSERT_FALSE(bad.empty());
    EXPECT_NE(bad[0].find("oversubscribed"), std::string::npos);
}

TEST(Validator, ReportsEveryViolationInCheckOrder)
{
    // One schedule breaking FU, bus, L0-capacity, SEQ_ACCESS, 1C and
    // hint rules in several clusters and rows at once: each check
    // reports clusters, units and rows in ascending order.
    ir::Loop l("many");
    int a = l.addArray({"a", 0x1000, 4096});
    int b = l.addArray({"b", 0x8000, 4096});
    l.addOp(mkLoad(a, 4, 1, 0));               // 0
    l.addOp(mkLoad(a, 4, 1, 8));               // 1
    l.addOp(mkLoad(b, 4, 1, 0));               // 2
    l.addOp(mkLoad(b, 4, 1, 1));               // 3
    l.addOp(mkStore(a, 4, 1, 0));              // 4
    l.addOp(mkOp(ir::OpKind::IntAlu));         // 5
    l.addOp(mkOp(ir::OpKind::IntAlu));         // 6
    l.addOp(mkLoad(b, 4, 1, 64));              // 7
    l.addMemEdge(0, 4, 0);
    l.addMemEdge(4, 0, 1);

    using ir::AccessHint;
    auto at = [](ClusterId c, int start, bool l0, AccessHint access) {
        OpSchedule os;
        os.cluster = c;
        os.startCycle = start;
        os.usesL0 = l0;
        os.access = access;
        return os;
    };
    Schedule s;
    s.loop = l;
    s.ii = 2;
    s.stageCount = 2;
    s.ops = {at(1, 0, true, AccessHint::SeqAccess),
             at(1, 2, true, AccessHint::SeqAccess),
             at(0, 1, true, AccessHint::ParAccess),
             at(0, 3, true, AccessHint::ParAccess),
             at(3, 1, false, AccessHint::SeqAccess),
             at(3, 0, false, AccessHint::NoAccess),
             at(3, 2, false, AccessHint::NoAccess),
             at(1, 1, false, AccessHint::NoAccess)};
    for (int cycle : {0, 1})
        for (int k = 0; k < 5; ++k)
            s.transfers.push_back({5, 6, cycle});

    EXPECT_EQ(validateSchedule(s, MachineConfig::paperL0(1)),
              (std::vector<std::string>{
                  "cluster 0 fu 1 row 1 oversubscribed (2 > 1)",
                  "cluster 1 fu 1 row 0 oversubscribed (2 > 1)",
                  "cluster 3 fu 0 row 0 oversubscribed (2 > 1)",
                  "bus row 0 oversubscribed (5 > 4)",
                  "bus row 1 oversubscribed (5 > 4)",
                  "cluster 0: 2 L0 streams exceed 1 entries",
                  "cluster 1: 2 L0 streams exceed 1 entries",
                  "op 0: SEQ_ACCESS with a memory op in the next row",
                  "op 1: SEQ_ACCESS with a memory op in the next row",
                  "1C violation: set with L0 loads spans 2 clusters",
                  "op 4: store marked SEQ_ACCESS",
              }));
}

TEST(Validator, ReportsPsrGroupNotCoveringClusters)
{
    MachineConfig cfg = MachineConfig::paperL0(8);
    Schedule s = ModuloScheduler(cfg, SchedulerOptions::l0(CoherenceMode::Psr))
                     .schedule(recurrenceLoop(2));
    ASSERT_TRUE(validateSchedule(s, cfg).empty());
    // Fold the replicas of the store group into two clusters.
    for (OpId i = 0; i < s.loop.numOps(); ++i)
        if (s.loop.op(i).kind == ir::OpKind::Store)
            s.ops[i].cluster = i % 2;
    std::vector<std::string> bad = validateSchedule(s, cfg);
    EXPECT_EQ(std::count(bad.begin(), bad.end(),
                         "PSR group '' does not cover all clusters"),
              1);
}

// ---------------------------------------------------------- golden digest

namespace
{

/** FNV-1a 64 over every field of a set of schedules. */
class ScheduleDigest
{
  public:
    void
    add(long v)
    {
        auto u = static_cast<std::uint64_t>(v);
        for (int i = 0; i < 8; ++i) {
            h ^= (u >> (8 * i)) & 0xff;
            h *= 1099511628211ULL;
        }
    }

    void
    add(const std::string &s)
    {
        add(static_cast<long>(s.size()));
        for (unsigned char c : s) {
            h ^= c;
            h *= 1099511628211ULL;
        }
    }

    void
    add(const Schedule &s)
    {
        add(s.ii);
        add(s.stageCount);
        add(s.rampCycles);
        add(s.explicitPrefetches);
        add(static_cast<long>(s.ops.size()));
        for (const OpSchedule &os : s.ops) {
            add(os.cluster);
            add(os.startCycle);
            add(os.assignedLatency);
            add(os.usesL0);
            add(static_cast<long>(os.access));
            add(static_cast<long>(os.map));
            add(static_cast<long>(os.prefetch));
        }
        add(static_cast<long>(s.transfers.size()));
        for (const BusTransfer &t : s.transfers) {
            add(t.producer);
            add(t.consumer);
            add(t.startCycle);
        }
        add(s.loop.name());
        add(s.loop.numOps());
        for (const ir::Operation &op : s.loop.ops()) {
            add(op.id);
            add(static_cast<long>(op.kind));
            add(op.tag);
            add(op.fixedCluster);
            add(op.mem.array);
            add(op.mem.elemSize);
            add(op.mem.strideElems);
            add(op.mem.offsetElems);
            add(op.mem.strided);
            add(op.mem.primaryStore);
            add(op.mem.psrReplicated);
        }
        add(static_cast<long>(s.loop.edges().size()));
        for (const ir::DepEdge &e : s.loop.edges()) {
            add(e.src);
            add(e.dst);
            add(static_cast<long>(e.kind));
            add(e.distance);
            add(e.conservative);
        }
    }

    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 1469598103934665603ULL;
};

} // namespace

/**
 * Every schedule the paper grid and the synthetic sweep can ask for —
 * each Mediabench loop prepared as buildLoopPlans prepares it
 * (driver::loopBody) at unroll 1 and at the cluster count,
 * plus each fig8_synthetic point's loops, under every registered
 * architecture — folded into one digest. The golden value pins the
 * scheduler's output bit for bit: a change that only speeds the
 * scheduler up must leave it alone.
 */
TEST(GoldenSchedules, EveryRegisteredArchMatchesDigest)
{
    std::vector<workloads::Benchmark> benches =
        workloads::mediabenchSuite();
    // The points fig8_synthetic sweeps.
    for (const char *label :
         {"stream-2", "stream-8", "stride-4x2", "stride-32x4",
          "stencil2d-2", "stencil2d-4", "reduce-4", "reduce-12",
          "pchase-8", "pchase-256", "rand-s1-12", "rand-s7-16"})
        benches.push_back(workloads::workloadRegistry().resolve(label));

    ScheduleDigest digest;
    int schedules = 0;
    for (const std::string &label : driver::archRegistry().names()) {
        driver::ArchSpec arch = driver::archRegistry().resolve(label);
        ModuloScheduler scheduler(arch.config, arch.sched);
        for (const workloads::Benchmark &bench : benches) {
            for (const workloads::LoopInstance &li : bench.loops) {
                for (int u : {1, arch.config.numClusters}) {
                    digest.add(scheduler.schedule(driver::loopBody(li, u)));
                    ++schedules;
                }
            }
        }
    }
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(digest.value()));
    EXPECT_EQ(std::string(hex), "0096eca5c055eeff")
        << "over " << schedules << " schedules";
}
