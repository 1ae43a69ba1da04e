/**
 * @file
 * Experiment-engine suite: the parallel executor must be bit-identical
 * to serial execution and to the pre-redesign hand-rolled driver loop
 * (a double loop over the cell primitives) across every registered
 * ArchSpec — every BenchmarkRun field, every memory statistic, and
 * every derived metric. Plus the arch registry's label grammar and the
 * typed result sinks.
 */

#include <chrono>
#include <csignal>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include "common/result_sink.hh"
#include "driver/cli.hh"
#include "driver/executor.hh"
#include "driver/registry.hh"
#include "driver/runner.hh"
#include "driver/suite.hh"
#include "net/socket.hh"
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
    EXPECT_EQ(driver::archRegistry().resolve("int1").label,
              "interleaved-1");
    EXPECT_EQ(driver::archRegistry().resolve("int2").label,
              "interleaved-2");
    // Only canonical spellings are cell identities: no stray dash,
    // sign, space or leading zero, and no number that would wrap.
    for (const char *bad :
         {"bogus", "l0-", "l0-x", "l0-0", "l0-8-pfx", "l0-8-wat",
          "l0-8-", "l0-08", "l0-+8", "l0- 8", "l0-8-pf+1", "l0-8-pf01",
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

/** Capture a command's stdout (stderr dropped); empty optional when
 *  the command could not run or exited nonzero. */
std::optional<std::string>
captureStdout(const std::string &cmd)
{
    std::FILE *pipe = popen((cmd + " 2>/dev/null").c_str(), "r");
    if (pipe == nullptr)
        return std::nullopt;
    std::string out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0)
        out.append(buf, n);
    int status = pclose(pipe);
    if (status != 0)
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

    // Reserve a port for the daemon (closed before the fork: a tiny
    // reuse race, harmless in a test runner).
    std::string error;
    std::uint16_t port = 0;
    {
        net::Fd listener = net::listenTcp(0, error, &port);
        ASSERT_TRUE(listener.valid()) << error;
    }
    const std::string portText = std::to_string(port);
    DaemonProcess daemon;
    daemon.pid = fork();
    ASSERT_GE(daemon.pid, 0);
    if (daemon.pid == 0) {
        execl("./fig7_distributed", "./fig7_distributed", "--serve",
              portText.c_str(), "--jobs", "2",
              static_cast<char *>(nullptr));
        _exit(127);
    }
    bool listening = false;
    for (int attempt = 0; attempt < 500 && !listening; ++attempt) {
        listening = net::connectTcp("127.0.0.1", port, error).valid();
        if (!listening)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_TRUE(listening) << "daemon never listened: " << error;
    const std::string endpoint = "127.0.0.1:" + portText;

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

TEST(Sinks, FormattingMatchesTextTable)
{
    EXPECT_EQ(CellValue::fixed(0.8375, 2).formatted(), "0.84");
    EXPECT_EQ(CellValue::percent(0.955, 1).formatted(), "95.5%");
    EXPECT_EQ(CellValue::integer(42).formatted(), "42");
    EXPECT_EQ(CellValue::text("x").formatted(), "x");
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
