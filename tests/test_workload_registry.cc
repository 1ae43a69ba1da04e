/**
 * @file
 * Workload-registry suite: the label grammar round-trips, unknown
 * labels are rejected, resolution is deterministic (same label =>
 * bit-identical kernels), and every registered label — Mediabench and
 * synthetic — produces loops the modulo scheduler accepts.
 */

#include <cctype>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "driver/registry.hh"
#include "driver/runner.hh"
#include "sched/scheduler.hh"
#include "sched/validate.hh"
#include "workloads/registry.hh"
#include "workloads/synthetic.hh"

using namespace l0vliw;
using namespace l0vliw::workloads;

namespace
{

/** Structural bit-equality of two loops: ops (kind, tag, full memory
 *  descriptor), edges, and array tables. */
void
expectLoopsEqual(const ir::Loop &a, const ir::Loop &b)
{
    ASSERT_EQ(a.numOps(), b.numOps());
    for (OpId i = 0; i < a.numOps(); ++i) {
        const ir::Operation &x = a.op(i);
        const ir::Operation &y = b.op(i);
        EXPECT_EQ(x.kind, y.kind);
        EXPECT_EQ(x.tag, y.tag);
        EXPECT_EQ(x.mem.array, y.mem.array);
        EXPECT_EQ(x.mem.elemSize, y.mem.elemSize);
        EXPECT_EQ(x.mem.strideElems, y.mem.strideElems);
        EXPECT_EQ(x.mem.offsetElems, y.mem.offsetElems);
        EXPECT_EQ(x.mem.strided, y.mem.strided);
    }
    ASSERT_EQ(a.edges().size(), b.edges().size());
    for (std::size_t e = 0; e < a.edges().size(); ++e) {
        EXPECT_EQ(a.edges()[e].src, b.edges()[e].src);
        EXPECT_EQ(a.edges()[e].dst, b.edges()[e].dst);
        EXPECT_EQ(a.edges()[e].kind, b.edges()[e].kind);
        EXPECT_EQ(a.edges()[e].distance, b.edges()[e].distance);
        EXPECT_EQ(a.edges()[e].conservative, b.edges()[e].conservative);
    }
    ASSERT_EQ(a.arrays().size(), b.arrays().size());
    for (std::size_t i = 0; i < a.arrays().size(); ++i) {
        EXPECT_EQ(a.arrays()[i].name, b.arrays()[i].name);
        EXPECT_EQ(a.arrays()[i].base, b.arrays()[i].base);
        EXPECT_EQ(a.arrays()[i].sizeBytes, b.arrays()[i].sizeBytes);
    }
}

} // namespace

TEST(WorkloadRegistry, RegisteredLabelsRoundTrip)
{
    const auto &names = workloadRegistry().names();
    // 13 Mediabench models plus at least 5 synthetic families.
    ASSERT_GE(names.size(), 18u);
    for (const auto &name : names) {
        Benchmark b = workloadRegistry().resolve(name);
        EXPECT_EQ(b.name, name)
            << "factory name must equal its registry label";
        EXPECT_FALSE(b.loops.empty()) << name;
    }
}

TEST(WorkloadRegistry, ParametricLabelsResolve)
{
    for (const char *label :
         {"stream-3", "stream-64", "stride-7x3", "stride-1024x0",
          "stencil2d-1", "stencil2d-16", "reduce-1", "reduce-32",
          "pchase-1", "pchase-1024", "rand-s0-2", "rand-s42-10"}) {
        auto b = workloadRegistry().tryResolve(label);
        ASSERT_TRUE(b.has_value()) << label;
        EXPECT_EQ(b->name, label);
        for (const auto &li : b->loops)
            EXPECT_GT(li.trips, 0u) << label;
    }
}

TEST(WorkloadRegistry, UnknownLabelsRejected)
{
    for (const char *bad :
         {"bogus", "stream-", "stream-x", "stream-0", "stream-65",
          "stride-4", "stride-0x2", "stride-4x", "stride-x4",
          "stencil2d-0", "stencil2d-17", "reduce-33", "pchase-0",
          "pchase--1", "rand-s1", "rand-s1-1", "rand-sx-4",
          "rand-s1-129", "stream-04", "stream-+4", "stream- 4",
          "rand-s01-4", "rand-s99999999999999999999-4"})
        EXPECT_FALSE(workloadRegistry().tryResolve(bad).has_value())
            << bad;
    EXPECT_EXIT(workloadRegistry().resolve("nosuch"),
                ::testing::ExitedWithCode(1), "unknown benchmark");
}

TEST(WorkloadRegistry, ResolutionIsDeterministic)
{
    for (const char *label :
         {"stream-5", "stride-32x4", "stencil2d-3", "reduce-8",
          "pchase-64", "rand-s9-20"}) {
        Benchmark a = workloadRegistry().resolve(label);
        Benchmark b = workloadRegistry().resolve(label);
        ASSERT_EQ(a.loops.size(), b.loops.size()) << label;
        for (std::size_t i = 0; i < a.loops.size(); ++i) {
            EXPECT_EQ(a.loops[i].trips, b.loops[i].trips);
            EXPECT_EQ(a.loops[i].invocations, b.loops[i].invocations);
            expectLoopsEqual(a.loops[i].loop, b.loops[i].loop);
        }
    }
}

TEST(WorkloadRegistry, RandSeedsDiffer)
{
    Benchmark a = workloadRegistry().resolve("rand-s1-16");
    Benchmark b = workloadRegistry().resolve("rand-s2-16");
    // Different seeds must explore different graphs; op counts or
    // structure differ with overwhelming probability for this pair.
    bool differ = a.loops[0].loop.numOps() != b.loops[0].loop.numOps()
                  || a.loops[0].loop.edges().size()
                         != b.loops[0].loop.edges().size()
                  || a.loops[0].trips != b.loops[0].trips;
    EXPECT_TRUE(differ);
}

/** Every registered label (and one deep cut per family) must yield
 *  loops the grid's l0-8 cell can schedule and validate: the same
 *  unroll decision and loop bodies the grid schedules. */
class SchedulableWorkload
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SchedulableWorkload, EveryLoopSchedules)
{
    Benchmark bench = workloadRegistry().resolve(GetParam());
    driver::ArchSpec arch = driver::archRegistry().resolve("l0-8");
    sched::ModuloScheduler scheduler(arch.config, arch.sched);
    std::vector<int> unrolls = driver::chooseUnrollFactors(bench);
    ASSERT_EQ(unrolls.size(), bench.loops.size());
    for (std::size_t i = 0; i < bench.loops.size(); ++i) {
        const LoopInstance &li = bench.loops[i];
        sched::Schedule s =
            scheduler.schedule(driver::loopBody(li, unrolls[i]));
        EXPECT_GT(s.ii, 0) << li.loop.name();
        EXPECT_TRUE(sched::validateSchedule(s, arch.config).empty())
            << li.loop.name();
    }
}

namespace
{

std::vector<std::string>
allRegisteredPlusParametric()
{
    std::vector<std::string> labels = workloadRegistry().names();
    for (const char *extra :
         {"stride-128x1", "stencil2d-8", "reduce-16", "pchase-512",
          "rand-s3-24", "rand-s4-24"})
        labels.push_back(extra);
    return labels;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(
    Registry, SchedulableWorkload,
    ::testing::ValuesIn(allRegisteredPlusParametric()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (auto &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });
