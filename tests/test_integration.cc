/**
 * @file
 * End-to-end integration tests: every benchmark under every
 * architecture must produce valid schedules and a coherent execution
 * (zero oracle violations), and the paper's headline relations must
 * hold on the suite level. Every grid runs through Suite::run, the
 * one grid engine the drivers use.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "driver/suite.hh"
#include "workloads/workload.hh"

using namespace l0vliw;
using namespace l0vliw::driver;

namespace
{

struct Case
{
    std::string bench;
    std::string arch;
};

std::vector<Case>
allCases()
{
    std::vector<Case> cases;
    for (const auto &b : workloads::benchmarkNames())
        for (const auto &a :
             {"unified", "l0-8", "l0-4", "multivliw", "interleaved-1",
              "interleaved-2"})
            cases.push_back({b, a});
    return cases;
}

std::string
caseName(const ::testing::TestParamInfo<Case> &info)
{
    std::string s = info.param.bench + "_" + info.param.arch;
    for (auto &c : s)
        if (c == '-')
            c = '_';
    return s;
}

/** Run @p archs over @p benches (empty = all of Mediabench) in
 *  process on one worker. */
ResultGrid
runGrid(std::vector<std::string> benches, std::vector<std::string> archs)
{
    ExperimentSpec spec;
    spec.benchmarks = std::move(benches);
    spec.archs = std::move(archs);
    return Suite(std::move(spec)).run(ExecOptions{});
}

/** Column @p a of @p grid's normalised execution times. */
std::vector<double>
normalizedTimes(const ResultGrid &grid, std::size_t a)
{
    std::vector<double> out;
    for (std::size_t b = 0; b < grid.numBenches(); ++b)
        out.push_back(grid.cell(b, a).normalized);
    return out;
}

} // namespace

class EndToEnd : public ::testing::TestWithParam<Case>
{
};

TEST_P(EndToEnd, CoherentAndProductive)
{
    // Cells warn on invalid schedules (checked separately by the
    // property tests); here the hard requirements are a coherent
    // execution and a plausible cycle count.
    BenchmarkRun r =
        runGrid({GetParam().bench}, {GetParam().arch}).cell(0, 0).run;
    EXPECT_EQ(r.coherenceViolations, 0u)
        << GetParam().bench << " on " << GetParam().arch;
    EXPECT_GT(r.memAccesses, 0u);
    EXPECT_GT(r.totalCycles(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllPairs, EndToEnd,
                         ::testing::ValuesIn(allCases()), caseName);

TEST(SuiteLevel, EightEntryBuffersBeatBaselineOnAverage)
{
    double mean = amean(normalizedTimes(runGrid({}, {"l0-8"}), 0));
    // Paper: 16% better. Accept a generous band around that.
    EXPECT_LT(mean, 0.95);
    EXPECT_GT(mean, 0.70);
}

TEST(SuiteLevel, JpegdecIsTheOutlier)
{
    double n8 = runGrid({"jpegdec"}, {"l0-8"}).cell(0, 0).normalized;
    EXPECT_GT(n8, 1.0); // the paper's only regression at 8 entries
}

TEST(SuiteLevel, MoreEntriesNeverHurtMuch)
{
    // 8 -> 16 -> unbounded must be monotone within noise on the mean.
    ResultGrid grid = runGrid({}, {"l0-8", "l0-16", "l0-unbounded"});
    double n8 = amean(normalizedTimes(grid, 0));
    double n16 = amean(normalizedTimes(grid, 1));
    double nun = amean(normalizedTimes(grid, 2));
    EXPECT_LE(n16, n8 + 0.01);
    EXPECT_LE(nun, n16 + 0.01);
}

TEST(SuiteLevel, L0BeatsWordInterleavedAndIsCloseToMultiVliw)
{
    ResultGrid grid = runGrid(
        {}, {"l0-8", "multivliw", "interleaved-1", "interleaved-2"});
    double l0 = amean(normalizedTimes(grid, 0));
    EXPECT_LT(l0, amean(normalizedTimes(grid, 2)));
    EXPECT_LT(l0, amean(normalizedTimes(grid, 3)));
    EXPECT_NEAR(l0, amean(normalizedTimes(grid, 1)), 0.10);
}

TEST(SuiteLevel, PrefetchDistanceTwoHelpsSmallIIBenchmarks)
{
    // Paper: -12% (epicdec) and -4% (rasta). Our calibrated stall
    // shares are smaller, so require "does not hurt, helps at least
    // one" rather than the exact magnitudes (see EXPERIMENTS.md).
    ResultGrid grid =
        runGrid({"epicdec", "rasta"}, {"l0-8-pf1", "l0-8-pf2"});
    double gain = 0;
    for (std::size_t b = 0; b < grid.numBenches(); ++b) {
        double d1 = grid.cell(b, 0).normalized;
        double d2 = grid.cell(b, 1).normalized;
        EXPECT_LT(d2, d1 + 0.03) << grid.bench(b).name;
        gain = std::max(gain, d1 - d2);
    }
    EXPECT_GT(gain, 0.0);
}

TEST(SuiteLevel, RunnerIsDeterministic)
{
    BenchmarkRun a = runGrid({"gsmdec"}, {"l0-8"}).cell(0, 0).run;
    BenchmarkRun c = runGrid({"gsmdec"}, {"l0-8"}).cell(0, 0).run;
    EXPECT_EQ(a.totalCycles(), c.totalCycles());
    EXPECT_EQ(a.l0Hits, c.l0Hits);
}

TEST(SuiteLevel, ScalarRegionIdenticalAcrossArchitectures)
{
    ResultGrid grid = runGrid({"g721dec"}, {"l0-8", "multivliw"});
    BenchmarkRun l0 = grid.cell(0, 0).run;
    BenchmarkRun mv = grid.cell(0, 1).run;
    EXPECT_EQ(l0.scalarCycles, mv.scalarCycles);
    EXPECT_EQ(l0.scalarCycles, grid.baseline(0).scalarCycles);
}
