/**
 * @file
 * Integration tests of the four memory systems' timing and data
 * behaviour: unified L1, L0 buffers (SEQ/PAR paths, fills, hint and
 * explicit prefetch, PSR replicas, flush), MultiVLIW snooping, and the
 * word-interleaved cache with Attraction Buffers; and the fold hooks'
 * state comparison.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "mem/interleaved.hh"
#include "mem/l0_system.hh"
#include "mem/mem_system.hh"
#include "mem/multivliw.hh"
#include "mem/unified.hh"

using namespace l0vliw;
using namespace l0vliw::mem;
using l0vliw::ir::AccessHint;
using l0vliw::ir::MapHint;
using l0vliw::ir::PrefetchHint;
using l0vliw::machine::MachineConfig;

namespace
{

MemAccess
loadAcc(Addr addr, int size, ClusterId c, AccessHint h,
        MapHint m = MapHint::LinearMap,
        PrefetchHint p = PrefetchHint::NoPrefetch)
{
    MemAccess a;
    a.isLoad = true;
    a.addr = addr;
    a.size = size;
    a.cluster = c;
    a.access = h;
    a.map = m;
    a.prefetch = p;
    return a;
}

MemAccess
storeAcc(Addr addr, int size, ClusterId c, AccessHint h)
{
    MemAccess a = loadAcc(addr, size, c, h);
    a.isLoad = false;
    return a;
}

} // namespace

// ----------------------------------------------------------- unified L1

TEST(Unified, HitAndMissLatencies)
{
    MachineConfig cfg = MachineConfig::paperUnified();
    UnifiedMemSystem mem(cfg);
    auto r1 = mem.access(loadAcc(0x100, 4, 0, AccessHint::NoAccess), 10,
                         0);
    EXPECT_FALSE(r1.l1Hit);
    EXPECT_EQ(r1.ready, 10u + cfg.l1Latency + cfg.l2Latency);
    auto r2 = mem.access(loadAcc(0x104, 4, 0, AccessHint::NoAccess), 40,
                         0);
    EXPECT_TRUE(r2.l1Hit);
    EXPECT_EQ(r2.ready, 40u + cfg.l1Latency);
}

TEST(Unified, BusSerialisesSameCluster)
{
    MachineConfig cfg = MachineConfig::paperUnified();
    UnifiedMemSystem mem(cfg);
    mem.access(loadAcc(0x100, 4, 0, AccessHint::NoAccess), 10, 0);
    // A second request in the same cycle on the same cluster starts a
    // cycle later; another cluster is unaffected.
    auto r2 = mem.access(loadAcc(0x200, 4, 0, AccessHint::NoAccess), 10,
                         0);
    auto r3 = mem.access(loadAcc(0x300, 4, 1, AccessHint::NoAccess), 10,
                         0);
    EXPECT_EQ(r2.ready, 11u + cfg.l1Latency + cfg.l2Latency);
    EXPECT_EQ(r3.ready, 10u + cfg.l1Latency + cfg.l2Latency);
}

TEST(Unified, StoreWritesThrough)
{
    MachineConfig cfg = MachineConfig::paperUnified();
    UnifiedMemSystem mem(cfg);
    const std::uint64_t val = 0x04030201;
    mem.access(storeAcc(0x100, 4, 0, AccessHint::NoAccess), 5, val);
    EXPECT_EQ(mem.backing().load(0x100, 4), val);
}

// ------------------------------------------------------------ L0 system

TEST(L0System, SeqMissFillsThenHits)
{
    MachineConfig cfg = MachineConfig::paperL0(8);
    L0MemSystem mem(cfg);
    auto miss = mem.access(loadAcc(0x100, 4, 0, AccessHint::SeqAccess),
                           10, 0);
    EXPECT_FALSE(miss.l0Hit);
    // SEQ: probe (1) then bus at 11, L1 misses on the cold block.
    EXPECT_EQ(miss.ready, 11u + cfg.l1Latency + cfg.l2Latency);

    Cycle later = miss.ready + 1;
    auto hit = mem.access(loadAcc(0x100, 4, 0, AccessHint::SeqAccess),
                          later, 0);
    EXPECT_TRUE(hit.l0Hit);
    EXPECT_EQ(hit.ready, later + cfg.l0Latency);
}

TEST(L0System, ParMissLaunchesInParallel)
{
    MachineConfig cfg = MachineConfig::paperL0(8);
    L0MemSystem mem(cfg);
    auto miss = mem.access(loadAcc(0x100, 4, 0, AccessHint::ParAccess),
                           10, 0);
    EXPECT_EQ(miss.ready, 10u + cfg.l1Latency + cfg.l2Latency);
}

TEST(L0System, LinearFillStaysLocal)
{
    MachineConfig cfg = MachineConfig::paperL0(8);
    L0MemSystem mem(cfg);
    auto miss = mem.access(loadAcc(0x108, 4, 2, AccessHint::ParAccess),
                           0, 0);
    // After the fill lands, only cluster 2 holds the subblock.
    mem.access(loadAcc(0x2000, 4, 3, AccessHint::NoAccess),
               miss.ready + 1, 0); // advances fill commits
    EXPECT_TRUE(mem.l0(2).hasLinear(0x100, 1));
    EXPECT_FALSE(mem.l0(0).hasLinear(0x100, 1));
    EXPECT_FALSE(mem.l0(3).hasLinear(0x100, 1));
}

TEST(L0System, InterleavedFillScattersAllResidues)
{
    MachineConfig cfg = MachineConfig::paperL0(8);
    L0MemSystem mem(cfg);
    // 2-byte access to element 0 from cluster 1: residue 0 -> cluster
    // 1, residue 1 -> cluster 2, residue 2 -> 3, residue 3 -> 0.
    auto miss = mem.access(
        loadAcc(0x100, 2, 1, AccessHint::ParAccess,
                MapHint::InterleavedMap),
        0, 0);
    EXPECT_EQ(miss.ready,
              0u + cfg.l1Latency + cfg.l2Latency + cfg.interleavePenalty);
    mem.access(loadAcc(0x4000, 4, 0, AccessHint::NoAccess),
               miss.ready + 1, 0);
    EXPECT_TRUE(mem.l0(1).hasInterleaved(0x100, 2, 0));
    EXPECT_TRUE(mem.l0(2).hasInterleaved(0x100, 2, 1));
    EXPECT_TRUE(mem.l0(3).hasInterleaved(0x100, 2, 2));
    EXPECT_TRUE(mem.l0(0).hasInterleaved(0x100, 2, 3));
}

TEST(L0System, PendingFillCoversSecondAccess)
{
    MachineConfig cfg = MachineConfig::paperL0(8);
    L0MemSystem mem(cfg);
    auto first = mem.access(loadAcc(0x100, 4, 0, AccessHint::ParAccess),
                            0, 0);
    // Another access to the same subblock while the fill is in flight
    // waits for it instead of issuing a second L1 request.
    auto second = mem.access(loadAcc(0x104, 4, 0, AccessHint::ParAccess),
                             2, 0);
    EXPECT_EQ(second.ready, first.ready);
    EXPECT_EQ(mem.l0Stats().get("l0_pending_waits"), 1u);
    EXPECT_EQ(mem.l0Stats().get("l1_misses"), 1u);
}

TEST(L0System, PositivePrefetchBringsNextSubblock)
{
    MachineConfig cfg = MachineConfig::paperL0(8);
    L0MemSystem mem(cfg);
    auto miss = mem.access(loadAcc(0x100, 4, 0, AccessHint::ParAccess),
                           0, 0);
    Cycle t = miss.ready + 1;
    // Hitting the last element of the subblock triggers the prefetch.
    mem.access(loadAcc(0x104, 4, 0, AccessHint::ParAccess,
                       MapHint::LinearMap, PrefetchHint::Positive),
               t, 0);
    EXPECT_EQ(mem.l0Stats().get("hint_prefetches"), 1u);
    // Long after, the next subblock is present without a demand miss.
    mem.access(loadAcc(0x4000, 4, 1, AccessHint::NoAccess), t + 40,
               0);
    EXPECT_TRUE(mem.l0(0).hasLinear(0x100, 1));
}

TEST(L0System, NegativePrefetchBringsPreviousSubblock)
{
    MachineConfig cfg = MachineConfig::paperL0(8);
    L0MemSystem mem(cfg);
    auto miss = mem.access(loadAcc(0x108, 4, 0, AccessHint::ParAccess),
                           0, 0);
    Cycle t = miss.ready + 1;
    mem.access(loadAcc(0x108, 4, 0, AccessHint::ParAccess,
                       MapHint::LinearMap, PrefetchHint::Negative),
               t, 0);
    mem.access(loadAcc(0x4000, 4, 1, AccessHint::NoAccess), t + 40,
               0);
    EXPECT_TRUE(mem.l0(0).hasLinear(0x100, 0));
}

TEST(L0System, PrefetchDistanceTwoSkipsAhead)
{
    MachineConfig cfg = MachineConfig::paperL0(8);
    cfg.prefetchDistance = 2;
    L0MemSystem mem(cfg);
    auto miss = mem.access(loadAcc(0x100, 4, 0, AccessHint::ParAccess),
                           0, 0);
    Cycle t = miss.ready + 1;
    mem.access(loadAcc(0x104, 4, 0, AccessHint::ParAccess,
                       MapHint::LinearMap, PrefetchHint::Positive),
               t, 0);
    mem.access(loadAcc(0x4000, 4, 1, AccessHint::NoAccess), t + 40,
               0);
    EXPECT_TRUE(mem.l0(0).hasLinear(0x100, 2)); // two subblocks ahead
    EXPECT_FALSE(mem.l0(0).hasLinear(0x100, 1));
}

TEST(L0System, ExplicitPrefetchFillsLinear)
{
    MachineConfig cfg = MachineConfig::paperL0(8);
    L0MemSystem mem(cfg);
    MemAccess pf = loadAcc(0x310, 4, 2, AccessHint::NoAccess);
    pf.isPrefetch = true;
    auto r = mem.access(pf, 0, 0);
    EXPECT_EQ(r.ready, 1u); // prefetches complete immediately for issue
    mem.access(loadAcc(0x4000, 4, 0, AccessHint::NoAccess), 40, 0);
    EXPECT_TRUE(mem.l0(2).hasLinear(0x300, 2));
}

TEST(L0System, StoreParUpdatesLocalL0AndL1)
{
    MachineConfig cfg = MachineConfig::paperL0(8);
    L0MemSystem mem(cfg);
    auto miss = mem.access(loadAcc(0x100, 4, 0, AccessHint::ParAccess),
                           0, 0);
    Cycle t = miss.ready + 1;
    // Commit the fill.
    mem.access(loadAcc(0x100, 4, 0, AccessHint::ParAccess), t, 0);
    const std::uint64_t val = 0xDDCCBBAA;
    mem.access(storeAcc(0x100, 4, 0, AccessHint::ParAccess), t + 1, val);
    auto hit = mem.access(loadAcc(0x100, 4, 0, AccessHint::ParAccess),
                          t + 2, 0);
    EXPECT_TRUE(hit.l0Hit);
    EXPECT_EQ(hit.value, val);
}

TEST(L0System, StoreNoAccessLeavesL0Stale)
{
    // The hazard the compiler must manage: a NO_ACCESS store updates
    // only L1; a load hitting the old L0 copy sees stale bytes.
    MachineConfig cfg = MachineConfig::paperL0(8);
    L0MemSystem mem(cfg);
    auto miss = mem.access(loadAcc(0x100, 4, 0, AccessHint::ParAccess),
                           0, 0);
    Cycle t = miss.ready + 1;
    const std::uint64_t before =
        mem.access(loadAcc(0x100, 4, 0, AccessHint::ParAccess), t, 0)
            .value;
    const std::uint64_t val = 0x09090909;
    mem.access(storeAcc(0x100, 4, 0, AccessHint::NoAccess), t + 1, val);
    auto hit = mem.access(loadAcc(0x100, 4, 0, AccessHint::ParAccess),
                          t + 2, 0);
    EXPECT_TRUE(hit.l0Hit);
    EXPECT_EQ(hit.value, before); // stale, by design
}

TEST(L0System, PsrReplicaInvalidatesOnly)
{
    MachineConfig cfg = MachineConfig::paperL0(8);
    L0MemSystem mem(cfg);
    auto miss = mem.access(loadAcc(0x100, 4, 1, AccessHint::ParAccess),
                           0, 0);
    Cycle t = miss.ready + 1;
    mem.access(loadAcc(0x100, 4, 1, AccessHint::ParAccess), t, 0);
    const std::uint64_t before = mem.backing().load(0x100, 4);

    MemAccess rep = storeAcc(0x100, 4, 1, AccessHint::ParAccess);
    rep.primaryStore = false;
    const std::uint64_t val = 0x07070707;
    mem.access(rep, t + 1, val);
    // The replica invalidated the local copy but wrote nothing.
    auto after = mem.access(loadAcc(0x100, 4, 1, AccessHint::ParAccess),
                            t + 2, 0);
    EXPECT_FALSE(after.l0Hit);
    EXPECT_EQ(mem.backing().load(0x100, 4), before);
}

TEST(L0System, EndLoopFlushesEverything)
{
    MachineConfig cfg = MachineConfig::paperL0(8);
    L0MemSystem mem(cfg);
    auto miss = mem.access(loadAcc(0x100, 4, 0, AccessHint::ParAccess),
                           0, 0);
    mem.access(loadAcc(0x100, 4, 0, AccessHint::ParAccess),
               miss.ready + 1, 0);
    mem.endLoop(miss.ready + 2);
    auto after = mem.access(loadAcc(0x100, 4, 0, AccessHint::ParAccess),
                            miss.ready + 3, 0);
    EXPECT_FALSE(after.l0Hit);
}

// ------------------------------------------------------------ MultiVLIW

TEST(MultiVliw, LocalRemoteAndL2Latencies)
{
    MachineConfig cfg = MachineConfig::paperMultiVliw();
    MultiVliwMemSystem mem(cfg);
    auto cold = mem.access(loadAcc(0x100, 4, 0, AccessHint::NoAccess), 0,
                           0);
    EXPECT_EQ(cold.ready, 0u + cfg.mvLocalHitLatency + cfg.l2Latency);
    auto local = mem.access(loadAcc(0x100, 4, 0, AccessHint::NoAccess),
                            20, 0);
    EXPECT_EQ(local.ready, 20u + cfg.mvLocalHitLatency);
    // Another cluster snoops the block from cluster 0's slice.
    auto remote = mem.access(loadAcc(0x100, 4, 2, AccessHint::NoAccess),
                             40, 0);
    EXPECT_EQ(remote.ready,
              40u + cfg.mvLocalHitLatency + cfg.mvRemoteTransfer);
    // ... and now holds a replica.
    auto replica = mem.access(loadAcc(0x100, 4, 2, AccessHint::NoAccess),
                              60, 0);
    EXPECT_EQ(replica.ready, 60u + cfg.mvLocalHitLatency);
}

TEST(MultiVliw, StoreInvalidatesRemoteCopies)
{
    MachineConfig cfg = MachineConfig::paperMultiVliw();
    MultiVliwMemSystem mem(cfg);
    mem.access(loadAcc(0x100, 4, 0, AccessHint::NoAccess), 0, 0);
    mem.access(loadAcc(0x100, 4, 1, AccessHint::NoAccess), 20, 0);
    const std::uint64_t val = 0x05050505;
    mem.access(storeAcc(0x100, 4, 0, AccessHint::NoAccess), 40, val);
    EXPECT_EQ(mem.stats().get("mv_store_invalidations"), 1u);
    // Cluster 1 must re-fetch (and observes the new data).
    auto r = mem.access(loadAcc(0x100, 4, 1, AccessHint::NoAccess), 60,
                        0);
    EXPECT_GT(r.ready, 60u + cfg.mvLocalHitLatency);
    EXPECT_EQ(r.value, val);
}

// ------------------------------------------------------ word-interleaved

TEST(Interleaved, OwnershipIsWordRoundRobin)
{
    MachineConfig cfg = MachineConfig::paperInterleaved();
    InterleavedMemSystem mem(cfg);
    EXPECT_EQ(mem.owner(0x0), 0);
    EXPECT_EQ(mem.owner(0x4), 1);
    EXPECT_EQ(mem.owner(0x8), 2);
    EXPECT_EQ(mem.owner(0xc), 3);
    EXPECT_EQ(mem.owner(0x10), 0);
}

TEST(Interleaved, LocalVsRemoteLatency)
{
    MachineConfig cfg = MachineConfig::paperInterleaved();
    InterleavedMemSystem mem(cfg);
    auto cold = mem.access(loadAcc(0x0, 4, 0, AccessHint::NoAccess), 0,
                           0);
    EXPECT_EQ(cold.ready, 0u + cfg.wiLocalHitLatency + cfg.l2Latency);
    auto local = mem.access(loadAcc(0x0, 4, 0, AccessHint::NoAccess), 20,
                            0);
    EXPECT_EQ(local.ready, 20u + cfg.wiLocalHitLatency);
    EXPECT_TRUE(local.local);
    // Cluster 1 accessing cluster 0's word: remote, then AB-cached.
    auto remote = mem.access(loadAcc(0x0, 4, 1, AccessHint::NoAccess), 40,
                             0);
    EXPECT_FALSE(remote.local);
    EXPECT_EQ(remote.ready,
              40u + cfg.wiLocalHitLatency + cfg.wiRemotePenalty);
    auto ab = mem.access(loadAcc(0x0, 4, 1, AccessHint::NoAccess), 60,
                         0);
    EXPECT_TRUE(ab.local);
    EXPECT_EQ(ab.ready, 60u + cfg.wiLocalHitLatency);
    EXPECT_EQ(mem.stats().get("ab_hits"), 1u);
}

TEST(Interleaved, StoreInvalidatesRemoteAbCopies)
{
    MachineConfig cfg = MachineConfig::paperInterleaved();
    InterleavedMemSystem mem(cfg);
    // AB[1] caches word 0.
    mem.access(loadAcc(0x0, 4, 1, AccessHint::NoAccess), 0, 0);
    const std::uint64_t val = 0x03030303;
    mem.access(storeAcc(0x0, 4, 0, AccessHint::NoAccess), 20, val);
    EXPECT_EQ(mem.stats().get("ab_store_invalidations"), 1u);
    auto r = mem.access(loadAcc(0x0, 4, 1, AccessHint::NoAccess), 40,
                        0);
    EXPECT_FALSE(r.local); // the AB copy is gone
    EXPECT_EQ(r.value, val);
}

TEST(Factory, BuildsEveryArchitecture)
{
    EXPECT_NE(MemSystem::create(MachineConfig::paperUnified()), nullptr);
    EXPECT_NE(MemSystem::create(MachineConfig::paperL0(8)), nullptr);
    EXPECT_NE(MemSystem::create(MachineConfig::paperMultiVliw()), nullptr);
    EXPECT_NE(MemSystem::create(MachineConfig::paperInterleaved()),
              nullptr);
}

TEST(ConfigValidate, RejectsBadGeometry)
{
    MachineConfig cfg = MachineConfig::paperL0(8);
    cfg.l0SubblockBytes = 16; // 16*4 != 32
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1), "subblock");
}

// ------------------------------------------------------------ fold hooks

namespace
{

/**
 * @p count random accesses against @p mem, drawn by @p rng from a pool
 * of addresses three L1s wide (so sets fill, evict and reorder): loads
 * and stores with every hint, a few explicit prefetches, and now and
 * then a loop boundary. @p now advances.
 */
void
randomAccesses(MemSystem &mem, Rng &rng, int count, Cycle &now)
{
    const MachineConfig &cfg = mem.config();
    const Addr pool = 3 * static_cast<Addr>(cfg.l1SizeBytes);
    for (int k = 0; k < count; ++k) {
        MemAccess a;
        a.isLoad = rng.chance(0.7);
        a.isPrefetch = a.isLoad && rng.chance(0.05);
        a.size = 4;
        a.addr = 0x40000 + 4 * rng.below(pool / 4);
        a.cluster = static_cast<ClusterId>(rng.below(cfg.numClusters));
        // Stores never carry SEQ_ACCESS.
        const AccessHint hints[] = {AccessHint::NoAccess,
                                    AccessHint::ParAccess,
                                    AccessHint::SeqAccess};
        a.access = hints[rng.below(a.isLoad ? 3 : 2)];
        a.map = rng.chance(0.3) ? MapHint::InterleavedMap
                                : MapHint::LinearMap;
        const PrefetchHint prefetches[] = {PrefetchHint::NoPrefetch,
                                           PrefetchHint::Positive,
                                           PrefetchHint::Negative};
        a.prefetch = prefetches[rng.below(3)];
        mem.access(a, now, rng.next());
        now += rng.below(4);
        if (rng.chance(0.01))
            mem.endLoop(now);
    }
}

} // namespace

/**
 * matchesState() against a saveState() must answer exactly whether the
 * two stateKey()s are equal — on states that are equal word for word,
 * on states the same accesses left with other use clocks (equal keys,
 * different raw words), and on states that differ — for every memory
 * architecture.
 */
TEST(FoldHooks, MatchesStateIsStateKeyEquality)
{
    const MachineConfig configs[] = {
        MachineConfig::paperUnified(), MachineConfig::paperL0(8),
        MachineConfig::paperL0(-1), MachineConfig::paperMultiVliw(),
        MachineConfig::paperInterleaved()};
    for (const MachineConfig &cfg : configs) {
        int equal = 0, differ = 0, equal_keys_other_words = 0;
        for (std::uint64_t seed = 1; seed <= 120; ++seed) {
            SCOPED_TRACE("arch " + std::to_string(static_cast<int>(
                             cfg.memArch))
                         + " seed " + std::to_string(seed));
            auto x = MemSystem::create(cfg);
            auto y = MemSystem::create(cfg);
            Cycle now_x = 0, now_y = 0;
            Rng rx(seed), ry(seed);
            const int count = static_cast<int>(1 + seed * 7 % 400);
            randomAccesses(*x, rx, count, now_x);
            randomAccesses(*y, ry, count, now_y);
            switch (seed % 3) {
              case 0:
                break; // the same state, word for word
              case 1: {
                // The same accesses again: mostly the same tags in the
                // same order, under a later use clock.
                Rng again(seed);
                Cycle t = now_y;
                randomAccesses(*y, again, count, t);
                now_y = t;
                break;
              }
              default: {
                Rng other(seed + 1000);
                randomAccesses(*y, other, 1 + seed % 5, now_y);
                break;
              }
            }
            // Loop boundaries, as at the fold's checks (and always after
            // a replay, whose in-flight fills would differ in time).
            if (seed % 4 == 0 || seed % 3 == 1) {
                x->endLoop(now_x);
                y->endLoop(now_y);
            }

            std::vector<std::uint64_t> key_x, key_y, saved_x, saved_y;
            x->stateKey(key_x);
            y->stateKey(key_y);
            x->saveState(saved_x);
            y->saveState(saved_y);
            const bool same = key_x == key_y;
            EXPECT_EQ(y->matchesState(saved_x), same);
            EXPECT_EQ(x->matchesState(saved_y), same);
            EXPECT_TRUE(x->matchesState(saved_x));
            (same ? equal : differ) += 1;
            equal_keys_other_words += same && saved_x != saved_y;
        }
        EXPECT_GT(equal, 20);
        EXPECT_GT(differ, 20);
        EXPECT_GT(equal_keys_other_words, 5);
    }
}
