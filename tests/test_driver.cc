/**
 * @file
 * Experiment-engine suite: the parallel executor must be bit-identical
 * to serial execution and to the pre-redesign hand-rolled driver loop
 * (a double loop over the cell primitives) across every registered
 * ArchSpec — every BenchmarkRun field, every memory statistic, and
 * every derived metric. Plus the arch registry's label grammar and the
 * typed result sinks.
 */

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include "common/result_sink.hh"
#include "driver/cli.hh"
#include "driver/executor.hh"
#include "driver/registry.hh"
#include "driver/runner.hh"
#include "driver/suite.hh"
#include "mem/mem_system.hh"
#include "metrics/registry.hh"
#include "net/socket.hh"
#include "workloads/registry.hh"
#include "workloads/synthetic.hh"
#include "workloads/workload.hh"

using namespace l0vliw;
using driver::ArchSpec;

namespace
{

/** A small but representative benchmark subset (jpegdec stresses the
 *  prefetch-eviction pathology, epicdec the specialization path). */
std::vector<std::string>
testBenchmarks()
{
    return {"epicdec", "gsmdec", "jpegdec"};
}

/** All BenchmarkRun fields must match exactly, stats included. */
void
expectRunsEqual(const driver::BenchmarkRun &a,
                const driver::BenchmarkRun &b)
{
    EXPECT_EQ(a.bench, b.bench);
    EXPECT_EQ(a.arch, b.arch);
    EXPECT_EQ(a.loopCompute, b.loopCompute);
    EXPECT_EQ(a.loopStall, b.loopStall);
    EXPECT_EQ(a.scalarCycles, b.scalarCycles);
    EXPECT_EQ(a.memAccesses, b.memAccesses);
    EXPECT_EQ(a.coherenceViolations, b.coherenceViolations);
    EXPECT_EQ(a.l0Hits, b.l0Hits);
    EXPECT_EQ(a.l0Misses, b.l0Misses);
    EXPECT_EQ(a.fillsLinear, b.fillsLinear);
    EXPECT_EQ(a.fillsInterleaved, b.fillsInterleaved);
    // avgUnroll is a double computed from identical integer inputs in
    // identical order: bit-equality is the contract.
    EXPECT_EQ(a.avgUnroll, b.avgUnroll);
    EXPECT_EQ(a.memStats.all(), b.memStats.all());
}

/** In-process execution on @p jobs worker threads. */
driver::ExecOptions
threads(int jobs)
{
    driver::ExecOptions exec;
    exec.jobs = jobs;
    return exec;
}

driver::ExperimentSpec
fullRegistrySpec()
{
    driver::ExperimentSpec spec;
    spec.benchmarks = testBenchmarks();
    spec.archs = driver::archRegistry().names();
    for (std::size_t a = 0; a < spec.archs.size(); ++a)
        spec.columns.push_back(driver::normalizedColumn(
            spec.archs[a], static_cast<int>(a)));
    return spec;
}

} // namespace

TEST(ArchRegistry, RegisteredLabelsRoundTrip)
{
    const auto &names = driver::archRegistry().names();
    ASSERT_FALSE(names.empty());
    for (const auto &name : names) {
        ArchSpec spec = driver::archRegistry().resolve(name);
        EXPECT_EQ(spec.label, name)
            << "factory label must equal its registry name";
    }
}

TEST(ArchRegistry, ParametricLabelsResolve)
{
    for (const char *label :
         {"l0-12", "l0-6-pf2", "l0-4-psr", "l0-16-allcand", "l0-3-nl0",
          "l0-unbounded-psr"}) {
        auto spec = driver::archRegistry().tryResolve(label);
        ASSERT_TRUE(spec.has_value()) << label;
        EXPECT_EQ(spec->label, label);
    }
}

TEST(ArchRegistry, AliasesAndUnknowns)
{
    // Only canonical spellings are cell identities: no alias, no stray
    // dash, sign, space or leading zero, and no number that would wrap.
    for (const char *bad :
         {"int1", "int2", "bogus", "l0-", "l0-x", "l0-0", "l0-8-pfx",
          "l0-8-wat", "l0-8-", "l0-08", "l0-+8", "l0- 8", "l0-8-pf+1", "l0-8-pf01",
          "l0-4294967304", "l0-99999999999999999999"})
        EXPECT_FALSE(driver::archRegistry().tryResolve(bad).has_value())
            << bad;
}

TEST(Suite, ParallelBitIdenticalToSerial)
{
    driver::Suite suite(fullRegistrySpec());
    driver::ResultGrid serial = suite.run(threads(1));
    driver::ResultGrid parallel = suite.run(threads(8));

    ASSERT_EQ(serial.numBenches(), parallel.numBenches());
    ASSERT_EQ(serial.numArchs(), parallel.numArchs());
    for (std::size_t b = 0; b < serial.numBenches(); ++b) {
        expectRunsEqual(serial.baseline(b), parallel.baseline(b));
        for (std::size_t a = 0; a < serial.numArchs(); ++a) {
            const driver::Cell &s = serial.cell(b, a);
            const driver::Cell &p = parallel.cell(b, a);
            expectRunsEqual(s.run, p.run);
            EXPECT_EQ(s.normalized, p.normalized);
            EXPECT_EQ(s.normalizedStall, p.normalizedStall);
        }
    }

    // The rendered tables (formatted strings) must match too.
    EXPECT_EQ(renderText(serial.render()), renderText(parallel.render()));
    EXPECT_EQ(renderCsv(serial.render()), renderCsv(parallel.render()));
    EXPECT_EQ(renderJson(serial.render()), renderJson(parallel.render()));
}

TEST(Suite, MatchesPreRedesignDriverLoop)
{
    driver::ExperimentSpec spec = fullRegistrySpec();
    driver::Suite suite(spec);
    driver::ResultGrid grid = suite.run(threads(8));

    // The loop every pre-engine driver hand-rolled, straight over the
    // cell primitives: the unroll decision and unified baseline per
    // benchmark, then every architecture's cell normalised to it.
    const ArchSpec unified = ArchSpec::unified();
    for (std::size_t b = 0; b < spec.benchmarks.size(); ++b) {
        workloads::Benchmark bench =
            workloads::makeBenchmark(spec.benchmarks[b]);
        std::vector<int> unrolls = driver::chooseUnrollFactors(bench);
        driver::BenchmarkRun base = driver::runCell(
            bench, unified, unrolls,
            driver::buildLoopPlans(bench, unified, unrolls), nullptr);
        for (std::size_t a = 0; a < spec.archs.size(); ++a) {
            ArchSpec arch =
                driver::archRegistry().resolve(spec.archs[a]);
            driver::BenchmarkRun r = driver::runCell(
                bench, arch, unrolls,
                driver::buildLoopPlans(bench, arch, unrolls),
                arch.label == "unified" ? nullptr : &base);
            const driver::Cell &cell = grid.cell(b, a);
            expectRunsEqual(r, cell.run);
            EXPECT_EQ(static_cast<double>(r.totalCycles())
                          / base.totalCycles(),
                      cell.normalized);
            EXPECT_EQ(static_cast<double>(r.loopStall)
                          / base.totalCycles(),
                      cell.normalizedStall);
        }
    }
}

/**
 * runCell's per-loop rows explain the cell they come from: on every
 * Mediabench benchmark and every registered architecture they sum
 * exactly to the run's totals (specialization checks, and L1/bus
 * state carried across loops, included), and asking for them leaves
 * the run bit-identical.
 */
TEST(RunCell, LoopRowsSumToTheCell)
{
    const ArchSpec unified = ArchSpec::unified();
    std::size_t cells = 0;
    for (const workloads::Benchmark &bench : workloads::mediabenchSuite()) {
        std::vector<int> unrolls = driver::chooseUnrollFactors(bench);
        driver::BenchmarkRun base = driver::runCell(
            bench, unified, unrolls,
            driver::buildLoopPlans(bench, unified, unrolls), nullptr);
        for (const std::string &label : driver::archRegistry().names()) {
            SCOPED_TRACE(bench.name + "/" + label);
            ArchSpec arch = driver::archRegistry().resolve(label);
            const driver::BenchmarkRun *scalar =
                label == "unified" ? nullptr : &base;
            driver::BenchmarkRun plain = driver::runCell(
                bench, arch, unrolls,
                driver::buildLoopPlans(bench, arch, unrolls), scalar);
            std::vector<driver::LoopRow> rows;
            driver::BenchmarkRun explained = driver::runCell(
                bench, arch, unrolls,
                driver::buildLoopPlans(bench, arch, unrolls), scalar,
                &rows);
            EXPECT_EQ(driver::benchmarkRunToJson(explained),
                      driver::benchmarkRunToJson(plain));
            ASSERT_EQ(rows.size(), bench.loops.size());

            driver::LoopRow sum;
            for (const driver::LoopRow &row : rows) {
                sum.compute += row.compute;
                sum.stall += row.stall;
                sum.memAccesses += row.memAccesses;
                sum.coherenceViolations += row.coherenceViolations;
                sum.l0Hits += row.l0Hits;
                sum.l0Misses += row.l0Misses;
                sum.fillsLinear += row.fillsLinear;
                sum.fillsInterleaved += row.fillsInterleaved;
            }
            EXPECT_EQ(sum.compute, plain.loopCompute);
            EXPECT_EQ(sum.stall, plain.loopStall);
            EXPECT_EQ(sum.memAccesses, plain.memAccesses);
            EXPECT_EQ(sum.coherenceViolations, plain.coherenceViolations);
            EXPECT_EQ(sum.l0Hits, plain.l0Hits);
            EXPECT_EQ(sum.l0Misses, plain.l0Misses);
            EXPECT_EQ(sum.fillsLinear, plain.fillsLinear);
            EXPECT_EQ(sum.fillsInterleaved, plain.fillsInterleaved);
            ++cells;
        }
    }
    EXPECT_EQ(cells, workloads::mediabenchSuite().size()
                         * driver::archRegistry().names().size());
}

namespace
{

/** FNV-1a over 64-bit words: the run digest of GoldenRuns. */
class RunDigest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ULL;
        }
    }

    void
    add(const std::string &s)
    {
        add(s.size());
        for (unsigned char c : s)
            add(c);
    }

    void
    add(const driver::BenchmarkRun &r)
    {
        add(r.bench);
        add(r.arch);
        add(r.loopCompute);
        add(r.loopStall);
        add(r.scalarCycles);
        add(r.memAccesses);
        add(r.coherenceViolations);
        std::uint64_t unroll_bits;
        std::memcpy(&unroll_bits, &r.avgUnroll, sizeof unroll_bits);
        add(unroll_bits);
        add(r.l0Hits);
        add(r.l0Misses);
        add(r.fillsLinear);
        add(r.fillsInterleaved);
        add(r.memStats.all().size());
        for (const auto &[name, value] : r.memStats.all()) {
            add(name);
            add(value);
        }
    }

    void
    add(const driver::LoopRow &row)
    {
        add(row.compute);
        add(row.stall);
        add(row.memAccesses);
        add(row.coherenceViolations);
        add(row.l0Hits);
        add(row.l0Misses);
        add(row.fillsLinear);
        add(row.fillsInterleaved);
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(h));
        return buf;
    }

  private:
    std::uint64_t h = 1469598103934665603ULL;
};

/** The paper grid's architectures (perfbench paper-serial). */
bool
paperGridArch(const std::string &label)
{
    for (const char *a :
         {"unified", "l0-2", "l0-4", "l0-8", "l0-16", "l0-unbounded",
          "l0-4-allcand", "multivliw", "interleaved-1", "interleaved-2",
          "l0-8-pf1", "l0-8-pf2"})
        if (label == a)
            return true;
    return false;
}

} // namespace

/**
 * Every simulated bit of every registered cell — each workload under
 * each architecture, run as the grid runs it (the unroll decision, the
 * unified baseline, buildLoopPlans, runCell with rows) — folded into
 * one digest: every BenchmarkRun field, avgUnroll's bits, every
 * memory statistic by name, and every LoopRow. A change that only
 * speeds the simulator or the scheduler up must leave it alone; one
 * that moves it on purpose updates the value and says why.
 *
 * The same pass pins the fold decisions of the paper grid (the
 * Mediabench models under its 12 architectures): how many plans it
 * builds, and how many of their invocations simulate and fold.
 */
TEST(GoldenRuns, EveryRegisteredCellMatchesDigest)
{
    const ArchSpec unified = ArchSpec::unified();
    RunDigest digest;
    std::size_t cells = 0;
    std::uint64_t paper_plans = 0, paper_simulated = 0, paper_folded = 0;
    const std::vector<std::string> &archs = driver::archRegistry().names();
    for (const std::string &name : workloads::workloadRegistry().names()) {
        const workloads::Benchmark bench =
            workloads::workloadRegistry().resolve(name);
        const std::vector<std::string> &paper = workloads::benchmarkNames();
        const bool paper_bench =
            std::find(paper.begin(), paper.end(), name) != paper.end();
        const std::vector<int> unrolls = driver::chooseUnrollFactors(bench);
        const driver::BenchmarkRun base = driver::runCell(
            bench, unified, unrolls,
            driver::buildLoopPlans(bench, unified, unrolls), nullptr);
        for (const std::string &label : archs) {
            const ArchSpec arch = driver::archRegistry().resolve(label);
            const auto plans = driver::buildLoopPlans(bench, arch, unrolls);
            std::vector<driver::LoopRow> rows;
            const driver::BenchmarkRun run = driver::runCell(
                bench, arch, unrolls, plans,
                label == "unified" ? nullptr : &base, &rows);
            digest.add(run);
            for (const driver::LoopRow &row : rows)
                digest.add(row);
            ++cells;
            if (paper_bench && paperGridArch(label)) {
                paper_plans += plans.size();
                for (const auto &plan : plans) {
                    paper_simulated += plan->simulatedRuns();
                    paper_folded += plan->foldedRuns();
                }
            }
        }
    }
    EXPECT_EQ(digest.hex(), "159a46c4d1351d23") << "over " << cells
                                                << " cells";
    EXPECT_EQ(paper_plans, 648u);
    EXPECT_EQ(paper_simulated, 1328u);
    EXPECT_EQ(paper_simulated + paper_folded, 21312u);
}

// ------------------------------------------------------ counted work

namespace
{

/** Heap allocations this thread made through the operator new below. */
thread_local std::uint64_t tAllocations = 0;

} // namespace

// Every heap allocation in this test binary goes through here, so a
// test can count its own thread's: one thread-local increment each.
void *
operator new(std::size_t size)
{
    ++tAllocations;
    for (;;) {
        if (void *p = std::malloc(size != 0 ? size : 1))
            return p;
        std::new_handler handler = std::get_new_handler();
        if (handler == nullptr)
            throw std::bad_alloc();
        handler();
    }
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }

namespace
{

/** A process-wide counter's value (its site registered it). */
std::uint64_t
counterValue(const char *name)
{
    return metrics::counter(name, "").value();
}

/** Allocations of a plan's simulated runs: its first, and later ones. */
struct RunAllocations
{
    std::uint64_t firstRuns = 0, firstAllocations = 0;
    std::uint64_t warmRuns = 0, warmAllocations = 0;
};

/**
 * Run @p plans over a fresh memory system as runCell does (less the
 * specialization-check cycles between invocations), counting the
 * allocations of every call that simulated (a folded call is not a
 * simulated run).
 */
void
countRunAllocations(const workloads::Benchmark &bench, const ArchSpec &arch,
                    const std::vector<int> &unrolls,
                    const std::vector<std::shared_ptr<sim::KernelPlan>> &plans,
                    RunAllocations &out)
{
    auto mem = mem::MemSystem::create(arch.config);
    sim::SimOptions opts;
    opts.checkCoherence = true;
    Cycle clock = 0;
    for (std::size_t i = 0; i < plans.size(); ++i) {
        sim::KernelPlan &plan = *plans[i];
        const std::uint64_t trips = bench.loops[i].trips / unrolls[i];
        for (std::uint64_t inv = 0; inv < bench.loops[i].invocations;
             ++inv) {
            const std::uint64_t simulated = plan.simulatedRuns();
            const std::uint64_t before = tAllocations;
            clock += plan.run(*mem, trips, clock, opts).totalCycles();
            const std::uint64_t allocations = tAllocations - before;
            if (plan.simulatedRuns() == simulated)
                continue;
            if (simulated == 0) {
                ++out.firstRuns;
                out.firstAllocations += allocations;
            } else {
                ++out.warmRuns;
                out.warmAllocations += allocations;
            }
        }
    }
}

} // namespace

/**
 * The work of one in-process paper grid, counted rather than timed:
 * counts do not drift with the host, so they catch a regression that
 * timing noise hides. Every wave-1 and wave-2 job of the paper grid
 * (the Mediabench models under perfbench paper-serial's 12
 * architectures) runs through executeCellJob on this thread. Work
 * counts are exact; a PR that moves one states the old and new value.
 * Allocation counts (this binary's operator new) are upper bounds, so
 * a toolchain with another string or growth policy cannot flake them.
 */
TEST(GoldenWork, PaperGridCountsAndAllocations)
{
    metrics::Registry::global().resetAllForTest();
    std::uint64_t base_accesses = 0, accesses = 0, jobs = 0,
                  job_allocations = 0;
    for (const std::string &name : workloads::benchmarkNames()) {
        driver::CellJob base_job;
        base_job.bench = name;
        base_job.arch = "unified";
        const driver::CellOutcome base = driver::executeCellJob(base_job);
        ASSERT_TRUE(base.ok) << base.error;
        base_accesses += base.run.memAccesses;
        for (const std::string &label : driver::archRegistry().names()) {
            if (label == "unified" || !paperGridArch(label))
                continue;
            driver::CellJob job;
            job.bench = name;
            job.arch = label;
            job.unrolls = base.unrolls;
            job.baseline = base.run;
            const std::uint64_t before = tAllocations;
            const driver::CellOutcome out = driver::executeCellJob(job);
            job_allocations += tAllocations - before;
            ++jobs;
            ASSERT_TRUE(out.ok) << out.error;
            accesses += out.run.memAccesses;
        }
    }
    const std::uint64_t plan_runs =
        counterValue("l0vliw_sim_plan_runs_total");
    const std::uint64_t folds = counterValue("l0vliw_sim_plan_folds_total");
    EXPECT_EQ(jobs, 13u * 11u);
    EXPECT_EQ(base_accesses, 1185488u);
    EXPECT_EQ(accesses, 13667440u); // perfbench's sim.accesses
    EXPECT_EQ(counterValue("l0vliw_sim_plan_builds_total"), 648u);
    EXPECT_EQ(plan_runs, 21312u);
    EXPECT_EQ(folds, 19984u);
    EXPECT_EQ(plan_runs - folds, 1328u);
    // The unroll decision's schedules included.
    EXPECT_EQ(counterValue("l0vliw_sched_attempts_total"), 1708u);
    EXPECT_EQ(counterValue("l0vliw_sched_attempts_failed_total"), 952u);
    // 322 a job with GCC 12's libstdc++; the bound leaves room for
    // another library's string and growth policies.
    EXPECT_LE(job_allocations, 350u * jobs);

    // Every cell again, plan by plan: a plan's first run simulates
    // from a cold state; a later simulated run (the second, whose
    // repeat folds) finds its pages, chunks and scratch in place.
    // Measured as above: 8.0 and 7.9 allocations a run, the later
    // ones the fold record each new plan fills once.
    RunAllocations runs;
    for (const std::string &name : workloads::benchmarkNames()) {
        const workloads::Benchmark bench =
            workloads::workloadRegistry().resolve(name);
        const std::vector<int> unrolls = driver::chooseUnrollFactors(bench);
        for (const std::string &label : driver::archRegistry().names()) {
            if (!paperGridArch(label))
                continue;
            const ArchSpec arch = driver::archRegistry().resolve(label);
            countRunAllocations(bench, arch, unrolls,
                                driver::buildLoopPlans(bench, arch, unrolls),
                                runs);
        }
    }
    EXPECT_EQ(runs.firstRuns, 648u);
    EXPECT_EQ(runs.warmRuns, 680u);
    EXPECT_LE(runs.firstAllocations, runs.firstRuns * 17 / 2);
    EXPECT_LE(runs.warmAllocations, runs.warmRuns * 9);
}

TEST(Suite, UnifiedCellEqualsBaseline)
{
    driver::ExperimentSpec spec;
    spec.benchmarks = {"gsmdec"};
    spec.archs = {"unified", "l0-8"};
    spec.columns = {driver::normalizedColumn("unified", 0),
                    driver::normalizedColumn("l0-8", 1)};
    driver::ResultGrid grid =
        driver::Suite(std::move(spec)).run(threads(2));
    expectRunsEqual(grid.cell(0, 0).run, grid.baseline(0));
    EXPECT_EQ(grid.cell(0, 0).normalized, 1.0);
}

TEST(Suite, MeanRowAndRendering)
{
    driver::ExperimentSpec spec;
    spec.benchmarks = {"gsmdec", "gsmenc"};
    spec.archs = {"l0-8"};
    spec.columns = {driver::normalizedColumn("norm", 0),
                    driver::stallColumn("st", 0),
                    driver::violationsColumn("viol")};
    spec.meanRow = true;
    driver::ResultGrid grid =
        driver::Suite(std::move(spec)).run(threads(1));
    ResultTable t = grid.render();

    ASSERT_EQ(t.header.size(), 4u);
    ASSERT_EQ(t.rows.size(), 3u); // 2 benchmarks + AMEAN
    const auto &mean = t.rows.back();
    EXPECT_EQ(mean[0].textValue(), "AMEAN");
    double expect = (grid.cell(0, 0).normalized
                     + grid.cell(1, 0).normalized) / 2;
    EXPECT_EQ(mean[1].number(), expect);
    EXPECT_EQ(mean[2].formatted(), ""); // stall: blank in mean row
    EXPECT_EQ(mean[3].formatted(), "0"); // violations: literal zero
}

TEST(Suite, ParallelBitIdenticalOnSyntheticFamilies)
{
    // The same jobs=8 == jobs=1 contract, across every registered
    // synthetic family and a parametric deep cut of each.
    driver::ExperimentSpec spec;
    spec.benchmarks = workloads::syntheticFamilyLabels();
    for (const char *extra :
         {"stride-64x3", "stencil2d-5", "reduce-16", "pchase-128",
          "rand-s11-20"})
        spec.benchmarks.push_back(extra);
    spec.archs = {"unified", "l0-4", "l0-8", "l0-unbounded",
                  "multivliw", "interleaved-2"};
    for (std::size_t a = 0; a < spec.archs.size(); ++a)
        spec.columns.push_back(driver::normalizedColumn(
            spec.archs[a], static_cast<int>(a)));

    driver::Suite suite(std::move(spec));
    driver::ResultGrid serial = suite.run(threads(1));
    driver::ResultGrid parallel = suite.run(threads(8));
    ASSERT_EQ(serial.numBenches(), parallel.numBenches());
    for (std::size_t b = 0; b < serial.numBenches(); ++b)
        for (std::size_t a = 0; a < serial.numArchs(); ++a) {
            expectRunsEqual(serial.cell(b, a).run,
                            parallel.cell(b, a).run);
            EXPECT_EQ(serial.cell(b, a).normalized,
                      parallel.cell(b, a).normalized);
            EXPECT_EQ(serial.cell(b, a).normalizedStall,
                      parallel.cell(b, a).normalizedStall);
        }
    EXPECT_EQ(renderJson(serial.render()),
              renderJson(parallel.render()));
}

TEST(Suite, SyntheticLabelsResolveInSpecs)
{
    driver::ExperimentSpec spec;
    spec.benchmarks = {"stream-4", "pchase-64"};
    spec.archs = {"l0-8"};
    spec.columns = {driver::normalizedColumn("norm", 0)};
    driver::ResultGrid grid =
        driver::Suite(std::move(spec)).run(threads(1));
    EXPECT_EQ(grid.bench(0).name, "stream-4");
    EXPECT_EQ(grid.bench(1).name, "pchase-64");
    for (std::size_t b = 0; b < grid.numBenches(); ++b)
        EXPECT_GT(grid.cell(b, 0).run.totalCycles(), 0u);
}

TEST(Suite, FilterSelectsBenchmarks)
{
    driver::ExperimentSpec spec;
    spec.archs = {"l0-8"};
    spec.columns = {driver::normalizedColumn("norm", 0)};
    spec.filter("gsm");
    ASSERT_EQ(spec.benchmarks.size(), 2u);
    EXPECT_EQ(spec.benchmarks[0], "gsmdec");
    EXPECT_EQ(spec.benchmarks[1], "gsmenc");
}

TEST(Suite, FilterSelectsArchLabelsInArchMajorGrids)
{
    driver::ExperimentSpec spec;
    spec.benchmarks = {"gsmdec"};
    spec.archs = {"unified", "l0-4", "l0-8", "multivliw"};
    spec.rows = driver::RowAxis::Archs;
    spec.columns = {driver::normalizedColumn("norm")};
    spec.filter("l0-");
    // No benchmark matches "l0-": the benchmark axis stays whole and
    // the pattern narrows the architecture labels instead.
    ASSERT_EQ(spec.benchmarks.size(), 1u);
    ASSERT_EQ(spec.archs.size(), 2u);
    EXPECT_EQ(spec.archs[0], "l0-4");
    EXPECT_EQ(spec.archs[1], "l0-8");
}

TEST(Suite, FilterKeepsArchsInBenchMajorGrids)
{
    // A benchmark-major grid's columns index into `archs`, so the
    // pattern must never narrow that axis.
    driver::ExperimentSpec spec;
    spec.benchmarks = {"l0ish-not-a-bench", "gsmdec"};
    spec.archs = {"unified", "l0-8"};
    spec.columns = {driver::normalizedColumn("u", 0),
                    driver::normalizedColumn("l0", 1)};
    spec.filter("l0");
    ASSERT_EQ(spec.benchmarks.size(), 1u);
    EXPECT_EQ(spec.benchmarks[0], "l0ish-not-a-bench");
    EXPECT_EQ(spec.archs.size(), 2u);
}

namespace
{

/** Run a command, its stdout captured in @p out (stderr dropped);
 *  its exit code, or -1 when it could not run or died of a signal. */
int
runCommand(const std::string &cmd, std::string &out)
{
    std::FILE *pipe = popen((cmd + " 2>/dev/null").c_str(), "r");
    if (pipe == nullptr)
        return -1;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0)
        out.append(buf, n);
    int status = pclose(pipe);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/** A command's stdout; empty optional when it did not exit 0. */
std::optional<std::string>
captureStdout(const std::string &cmd)
{
    std::string out;
    if (runCommand(cmd, out) != 0)
        return std::nullopt;
    return out;
}

/** A `--serve` daemon child, SIGTERMed and reaped on every exit path. */
struct DaemonProcess
{
    pid_t pid = -1;

    DaemonProcess() = default;
    DaemonProcess(const DaemonProcess &) = delete;
    DaemonProcess &operator=(const DaemonProcess &) = delete;

    ~DaemonProcess()
    {
        if (pid > 0) {
            kill(pid, SIGTERM);
            int status = 0;
            waitpid(pid, &status, 0);
        }
    }

    /** Fork `./fig7_distributed --serve` (any driver serves every
     *  registered cell) on a free port; its endpoint once it listens,
     *  or "" with @p error set. */
    std::string
    start(std::string &error)
    {
        // Reserve a port (closed before the fork: a tiny reuse race,
        // harmless in a test runner).
        std::uint16_t port = 0;
        {
            net::Fd listener = net::listenTcp(0, error, &port);
            if (!listener.valid())
                return "";
        }
        const std::string portText = std::to_string(port);
        pid = fork();
        if (pid == 0) {
            execl("./fig7_distributed", "./fig7_distributed", "--serve",
                  portText.c_str(), "--jobs", "2",
                  static_cast<char *>(nullptr));
            _exit(127);
        }
        for (int attempt = 0; pid > 0 && attempt < 500; ++attempt) {
            if (net::connectTcp("127.0.0.1", port, error).valid())
                return "127.0.0.1:" + portText;
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        error = "daemon never listened: " + error;
        return "";
    }
};

} // namespace

/**
 * The cross-process pin: for every bench driver binary,
 * `--executor tcp` into one `fig7_distributed --serve` daemon (any
 * driver serves every registered cell) must produce byte-identical
 * table/CSV/JSON output to `--executor inprocess --jobs 1`. The
 * drivers live next to this test in the build tree (ctest runs from
 * there); narrow --filters keep the 8 x 3 x 2 matrix fast.
 */
TEST(DriverBinaries, TcpOutputBytesEqualInProcess)
{
    struct DriverCase
    {
        const char *binary;
        const char *filter; ///< nullptr: no filter flag
    };
    const DriverCase drivers[] = {
        {"fig5_l0_sizes", "gsmdec"},
        {"fig6_mapping", "gsmdec"},
        {"fig7_distributed", "gsmdec"},
        {"fig8_synthetic", "stream-2"},
        {"table1_strides", "gsm"},
        {"table2_config", nullptr},
        {"ablation_coherence", "gsmdec"},
        {"ablation_prefetch", "epicdec"},
    };

    if (access(drivers[0].binary, X_OK) != 0)
        GTEST_SKIP() << "driver binaries not in the working directory "
                        "(run via ctest from the build tree)";

    DaemonProcess daemon;
    std::string error;
    const std::string endpoint = daemon.start(error);
    ASSERT_FALSE(endpoint.empty()) << error;

    for (const DriverCase &d : drivers) {
        std::string base = std::string("./") + d.binary;
        if (d.filter)
            base += std::string(" --filter=") + d.filter;
        for (const char *format : {"table", "csv", "json"}) {
            std::string fmt = std::string(" --format=") + format;
            auto inproc = captureStdout(
                base + " --executor inprocess --jobs 1" + fmt);
            auto remote = captureStdout(base + " --executor tcp --connect "
                                        + endpoint + "," + endpoint
                                        + fmt);
            ASSERT_TRUE(inproc.has_value()) << base << fmt;
            ASSERT_TRUE(remote.has_value()) << base << fmt;
            EXPECT_FALSE(inproc->empty()) << base << fmt;
            EXPECT_EQ(*inproc, *remote)
                << d.binary << " --format=" << format
                << ": tcp output diverged from in-process";
        }
    }
}

/**
 * A remote grid whose cells all fail: every transport attempt of the
 * driver resets (`--fault-inject reset@1`, the driver's side only), so
 * the baseline fails and its whole row prints as holes in each format,
 * and the driver exits with the holes code — after printing, not
 * instead of it.
 */
TEST(DriverBinaries, FailedCellsPrintAsHolesAndExitWithTheHolesCode)
{
    if (access("fig7_distributed", X_OK) != 0)
        GTEST_SKIP() << "driver binaries not in the working directory "
                        "(run via ctest from the build tree)";
    DaemonProcess daemon;
    std::string error;
    const std::string endpoint = daemon.start(error);
    ASSERT_FALSE(endpoint.empty()) << error;

    const std::string base =
        "./fig7_distributed --filter=gsmdec --executor tcp --connect "
        + endpoint + " --fault-inject reset@1 --cell-timeout-ms 5000";
    const std::pair<const char *, const char *> formats[] = {
        {"table", "failed(conn-reset)"},
        {"csv", "failed(conn-reset)"},
        {"json", "{\"failed\":\"conn-reset\"}"},
    };
    for (const auto &[format, hole] : formats) {
        std::string out;
        EXPECT_EQ(runCommand(base + " --format=" + format, out),
                  driver::kExitHoles)
            << format;
        // gsmdec's 8 columns, and the AMEAN of the 4 that take one.
        std::size_t holes = 0;
        for (std::size_t at = out.find(hole); at != std::string::npos;
             at = out.find(hole, at + 1))
            ++holes;
        EXPECT_EQ(holes, 12u) << format << ":\n" << out;
    }
}

TEST(Sinks, FormattingMatchesTextTable)
{
    EXPECT_EQ(CellValue::fixed(0.8375, 2).formatted(), "0.84");
    EXPECT_EQ(CellValue::percent(0.955, 1).formatted(), "95.5%");
    EXPECT_EQ(CellValue::integer(42).formatted(), "42");
    EXPECT_EQ(CellValue::text("x").formatted(), "x");
    EXPECT_EQ(CellValue::failed("timeout").formatted(), "failed(timeout)");
    EXPECT_EQ(CellValue::failed("timeout").json(),
              "{\"failed\":\"timeout\"}");
    CellValue mean = CellValue::fixed(0.8375, 2);
    mean.setExcluded(1);
    EXPECT_EQ(mean.formatted(), "0.84 (1 failed excluded)");
    EXPECT_EQ(mean.json(), "{\"value\":0.8375,\"excluded\":1}");
    EXPECT_FALSE(CellValue::failed("timeout").isNumeric());
}

TEST(Sinks, CsvEscapesAndJsonTypes)
{
    ResultTable t;
    t.title = "ti\"tle\n";
    t.header = {"name", "v"};
    t.rows = {{CellValue::text("a,b"), CellValue::fixed(0.5, 2)},
              {CellValue::text("q\"q"), CellValue::integer(7)}};

    std::string csv = renderCsv(t);
    EXPECT_EQ(csv, "name,v\n\"a,b\",0.50\n\"q\"\"q\",7\n");

    std::string json = renderJson(t);
    EXPECT_NE(json.find("\"ti\\\"tle\\n\""), std::string::npos);
    EXPECT_NE(json.find("[\"a,b\", 0.5]"), std::string::npos);
    EXPECT_NE(json.find("[\"q\\\"q\", 7]"), std::string::npos);

    std::string text = renderText(t);
    EXPECT_NE(text.find("a,b   0.50"), std::string::npos);
}
