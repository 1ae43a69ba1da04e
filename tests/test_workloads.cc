/**
 * @file
 * Tests of the workload models: every benchmark builds and validates,
 * arrays never overlap (guard gaps), and the measured dynamic stride
 * mix tracks Table 1 within tolerance.
 */

#include <cmath>
#include <gtest/gtest.h>

#include "ir/memdep.hh"
#include "workloads/kernels.hh"
#include "workloads/stride_mix.hh"
#include "workloads/workload.hh"

using namespace l0vliw;
using namespace l0vliw::workloads;

TEST(AddressSpace, GuardGapsAndDisjointness)
{
    AddressSpace as;
    Addr a = as.alloc(1000);
    Addr b = as.alloc(8192);
    Addr c = as.alloc(64);
    EXPECT_GE(b, a + 4096 + 4096); // size rounded + guard
    EXPECT_GE(c, b + 8192 + 4096);
    EXPECT_EQ(a % 32, 0u);
    EXPECT_EQ(b % 32, 0u);
}

TEST(AddressSpace, StaggersCacheSets)
{
    AddressSpace as;
    Addr a = as.alloc(64);
    Addr b = as.alloc(64);
    // Different L1 set for an 8KB 2-way 32B-block cache.
    EXPECT_NE((a / 32) % 128, (b / 32) % 128);
}

TEST(Kernels, StreamMapShape)
{
    AddressSpace as;
    StreamParams p;
    p.loadStreams = 3;
    p.storeStreams = 2;
    p.intOps = 4;
    p.fpOps = 1;
    ir::Loop l = streamMap(as, "s", p);
    int loads = 0, stores = 0, fp = 0;
    for (const auto &op : l.ops()) {
        loads += op.kind == ir::OpKind::Load;
        stores += op.kind == ir::OpKind::Store;
        fp += op.kind == ir::OpKind::FpAlu;
    }
    EXPECT_EQ(loads, 3);
    EXPECT_EQ(stores, 2);
    EXPECT_EQ(fp, 1);
}

TEST(Kernels, MemRecurrenceHasLoadStoreSet)
{
    AddressSpace as;
    RecurrenceParams p;
    ir::Loop l = memRecurrence(as, "r", p);
    bool found = false;
    ir::MemorySets sets = ir::memorySets(l);
    for (int i = 0; i < sets.size(); ++i)
        found |= sets[i].size() >= 2 && ir::setHasLoadAndStore(l, sets[i]);
    EXPECT_TRUE(found);
}

TEST(Kernels, ConservativeUpdateSpecializes)
{
    AddressSpace as;
    ir::Loop l = conservativeUpdate(as, "c", 3, 4, 4, 4096);
    EXPECT_GT(ir::countConservativeEdges(l), 0);
    ir::Loop s = ir::specializeLoop(l);
    EXPECT_EQ(ir::countConservativeEdges(s), 0);
    // The genuine in-place set survives specialization.
    bool found = false;
    ir::MemorySets sets = ir::memorySets(s);
    for (int i = 0; i < sets.size(); ++i)
        found |= ir::setHasLoadAndStore(s, sets[i]);
    EXPECT_TRUE(found);
}

TEST(Kernels, BlockTransformCoversBlock)
{
    AddressSpace as;
    ir::Loop l = blockTransform(as, "b", 8, 2, 4096);
    int loads = 0, stores = 0;
    for (const auto &op : l.ops()) {
        loads += op.kind == ir::OpKind::Load;
        stores += op.kind == ir::OpKind::Store;
    }
    EXPECT_EQ(loads, 8);
    EXPECT_EQ(stores, 8);
}

TEST(Suite, HasThirteenBenchmarks)
{
    EXPECT_EQ(benchmarkNames().size(), 13u);
    EXPECT_EQ(mediabenchSuite().size(), 13u);
}

TEST(Suite, UnknownNameIsFatal)
{
    EXPECT_EXIT(makeBenchmark("nosuch"), ::testing::ExitedWithCode(1),
                "unknown benchmark");
}

/** Per-benchmark structural checks. */
class BenchmarkModel : public ::testing::TestWithParam<std::string>
{
};

TEST_P(BenchmarkModel, LoopsValidate)
{
    Benchmark b = makeBenchmark(GetParam());
    EXPECT_FALSE(b.loops.empty());
    for (const auto &li : b.loops) {
        li.loop.validate();
        EXPECT_GT(li.trips, 0u);
        EXPECT_GT(li.invocations, 0u);
    }
}

TEST_P(BenchmarkModel, ArraysAreDisjointWithGuards)
{
    Benchmark b = makeBenchmark(GetParam());
    std::vector<std::pair<Addr, Addr>> ranges;
    for (const auto &li : b.loops)
        for (const auto &arr : li.loop.arrays())
            ranges.push_back({arr.base, arr.base + arr.sizeBytes + 4096});
    for (std::size_t i = 0; i < ranges.size(); ++i)
        for (std::size_t j = i + 1; j < ranges.size(); ++j) {
            bool disjoint = ranges[i].second <= ranges[j].first
                            || ranges[j].second <= ranges[i].first;
            EXPECT_TRUE(disjoint) << "arrays " << i << "," << j;
        }
}

TEST_P(BenchmarkModel, StrideMixTracksTable1)
{
    Benchmark b = makeBenchmark(GetParam());
    StrideMix m = measureStrideMix(b);
    EXPECT_NEAR(m.s, b.paper.s, 0.14) << "S off for " << GetParam();
    EXPECT_NEAR(m.sg, b.paper.sg, 0.24) << "SG off for " << GetParam();
    EXPECT_NEAR(m.so, b.paper.so, 0.16) << "SO off for " << GetParam();
    EXPECT_NEAR(m.sg + m.so, m.s, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, BenchmarkModel,
                         ::testing::ValuesIn(benchmarkNames()));
