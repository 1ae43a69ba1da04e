/**
 * @file
 * The executor API and its wire protocol: lossless JSON round-trips
 * of CellJob/CellOutcome/BenchmarkRun (every field, StatSet and
 * bit-exact doubles included), tcp ≡ in-process bit-identity across
 * every registered ArchSpec, the connection-drop retry paths (daemon
 * restart included), the per-cell event stream, and graceful daemon
 * shutdown on SIGTERM.
 *
 * The reliability layer is covered here too: the per-job deadline
 * against a daemon that never replies, the heartbeat against a silent
 * daemon, --degrade local draining a suite with every daemon down,
 * failed --stream events carrying reason + attempts, and a chaos soak
 * (src/net/fault.hh) of 20 seeds over TCP asserting every seed
 * terminates with cells that are bit-identical to an in-process run
 * or carry an explicit failure reason — never a hang.
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "driver/executor.hh"
#include "driver/registry.hh"
#include "driver/runner.hh"
#include "driver/suite.hh"
#include "metrics/registry.hh"
#include "metrics/trace.hh"
#include "net/fault.hh"
#include "net/server.hh"
#include "net/socket.hh"
#include "workloads/registry.hh"

using namespace l0vliw;
using driver::ArchSpec;
using driver::CellJob;
using driver::CellOutcome;
using driver::ExecBackend;
using driver::ExecOptions;

namespace
{

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
    // Doubles travel as %.17g: bit-equality is the contract.
    EXPECT_EQ(a.avgUnroll, b.avgUnroll);
    EXPECT_EQ(a.memStats.all(), b.memStats.all());
}

/** A fully-populated run with adversarial values in every field. */
driver::BenchmarkRun
sampleRun()
{
    driver::BenchmarkRun r;
    r.bench = "gsm\"dec\n"; // exercises string escaping
    r.arch = "l0-8";
    r.loopCompute = 123456789;
    r.loopStall = 42;
    r.scalarCycles = 7;
    r.memAccesses = (1ULL << 62) + 12345; // past double's 53-bit window
    r.coherenceViolations = 3;
    r.avgUnroll = 0.1 + 0.2; // 0.30000000000000004: needs %.17g
    r.l0Hits = 999;
    r.l0Misses = 1;
    r.fillsLinear = 0;
    r.fillsInterleaved = 17;
    r.memStats.set("l0_hits", 999);
    r.memStats.set("weird key, \"quoted\"", 1ULL << 63);
    r.memStats.set("zero", 0);
    return r;
}

/** Wave-1 results for hand-built jobs, from the cell primitives:
 *  the unroll decision and the unified baseline. */
struct Wave1
{
    std::vector<int> unrolls;
    driver::BenchmarkRun baseline;
};

Wave1
wave1(const std::string &benchLabel)
{
    workloads::Benchmark bench =
        workloads::workloadRegistry().resolve(benchLabel);
    Wave1 out;
    out.unrolls = driver::chooseUnrollFactors(bench);
    ArchSpec uni = ArchSpec::unified();
    auto plans = driver::buildLoopPlans(bench, uni, out.unrolls);
    out.baseline =
        driver::runCell(bench, uni, out.unrolls, plans, nullptr);
    return out;
}

CellJob
makeJob(std::uint64_t id, const std::string &bench,
        const std::string &arch, const Wave1 &w1)
{
    CellJob job;
    job.id = id;
    job.bench = bench;
    job.arch = arch;
    job.unrolls = w1.unrolls;
    job.baseline = w1.baseline;
    return job;
}

} // namespace

// ---- common/json ----

TEST(Json, ParsesScalarsAndStructure)
{
    auto doc = json::parse(
        R"({"a": [1, -2.5, 1e3], "s": "x\n\"y\u0041", "t": true,)"
        R"( "n": null})");
    ASSERT_TRUE(doc.has_value());
    ASSERT_TRUE(doc->isObject());
    const json::Value *a = doc->find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->isArray());
    ASSERT_EQ(a->items().size(), 3u);
    EXPECT_EQ(a->items()[0].numberToken(), "1");
    EXPECT_EQ(a->items()[1].asDouble(), -2.5);
    EXPECT_EQ(a->items()[2].asDouble(), 1000.0);
    EXPECT_EQ(doc->find("s")->str(), "x\n\"yA");
    EXPECT_TRUE(doc->find("t")->boolean());
    EXPECT_TRUE(doc->find("n")->isNull());
}

TEST(Json, RejectsMalformedInput)
{
    for (const char *bad :
         {"", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "tru", "1 2",
          "\"unterminated", "{\"k\":\"\\u12\"}", "nan"}) {
        std::string err;
        EXPECT_FALSE(json::parse(bad, &err).has_value()) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
}

TEST(Json, NumbersKeepRawTokens)
{
    auto doc = json::parse("[18446744073709551615, 0.1]");
    ASSERT_TRUE(doc.has_value());
    // Full 64-bit range survives (a double round-trip would not).
    std::uint64_t max = 0;
    ASSERT_TRUE(json::toU64(doc->items()[0], max));
    EXPECT_EQ(max, 18446744073709551615ULL);
    EXPECT_EQ(doc->items()[1].asDouble(), 0.1);
}

TEST(Json, DoubleFormatRoundTrips)
{
    for (double v : {0.1 + 0.2, 1.0 / 3.0, 1e-300, 12345.6789,
                     2.2250738585072014e-308}) {
        auto doc = json::parse(json::fromDouble(v));
        ASSERT_TRUE(doc.has_value());
        EXPECT_EQ(doc->asDouble(), v);
    }
}

TEST(Json, QuoteEscapes)
{
    EXPECT_EQ(json::quote("a\"b\\c\n\x01"), "\"a\\\"b\\\\c\\n\\u0001\"");
    auto doc = json::parse(json::quote("a\"b\\c\n\x01\t\r"));
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->str(), "a\"b\\c\n\x01\t\r");
}

// ---- protocol round-trips ----

TEST(Protocol, BenchmarkRunRoundTripsEveryField)
{
    driver::BenchmarkRun r = sampleRun();
    std::string wire = driver::benchmarkRunToJson(r);
    EXPECT_EQ(wire.find('\n'), std::string::npos)
        << "wire encoding must stay newline-free";

    driver::BenchmarkRun back;
    std::string err;
    ASSERT_TRUE(driver::benchmarkRunFromJson(wire, back, err)) << err;
    expectRunsEqual(r, back);
}

TEST(Protocol, RealRunRoundTripsBitForBit)
{
    // A run the simulator actually produced, StatSet included.
    workloads::Benchmark bench =
        workloads::workloadRegistry().resolve("gsmdec");
    Wave1 w1 = wave1("gsmdec");
    ArchSpec arch = driver::archRegistry().resolve("l0-8");
    auto plans = driver::buildLoopPlans(bench, arch, w1.unrolls);
    driver::BenchmarkRun r = driver::runCell(bench, arch, w1.unrolls,
                                             plans, &w1.baseline);

    driver::BenchmarkRun back;
    std::string err;
    ASSERT_TRUE(driver::benchmarkRunFromJson(
        driver::benchmarkRunToJson(r), back, err)) << err;
    expectRunsEqual(r, back);
}

TEST(Protocol, CellJobRoundTrips)
{
    CellJob job;
    job.id = 77;
    job.bench = "stream-4";
    job.arch = "l0-8-pf2";
    job.unrolls = {1, 4, 2};
    job.baseline = sampleRun();

    CellJob back;
    std::string err;
    ASSERT_TRUE(CellJob::fromJson(job.toJson(), back, err)) << err;
    EXPECT_EQ(back.id, 77u);
    EXPECT_EQ(back.bench, "stream-4");
    EXPECT_EQ(back.arch, "l0-8-pf2");
    EXPECT_EQ(back.unrolls, (std::vector<int>{1, 4, 2}));
    EXPECT_EQ(back.baseline.scalarCycles, job.baseline.scalarCycles);
}

TEST(Protocol, JobFrameCarriesOnlyTheBaselineScalarCycles)
{
    // The worker reads nothing of the baseline but its scalar-region
    // cycles, so nothing else travels: no run object, no counters.
    CellJob job;
    job.id = 3;
    job.bench = "gsmdec";
    job.arch = "l0-8";
    job.unrolls = {4, 1};
    job.baseline = sampleRun();
    job.baseline.scalarCycles = (1ULL << 62) + 5; // past a double
    std::string wire = job.toJson();
    auto doc = json::parse(wire);
    ASSERT_TRUE(doc.has_value()) << wire;
    EXPECT_EQ(doc->find("run"), nullptr) << wire;
    EXPECT_EQ(doc->find("baseline"), nullptr) << wire;
    ASSERT_NE(doc->find("scalarCycles"), nullptr) << wire;
    EXPECT_EQ(doc->members().size(), 5u) << wire;

    CellJob back;
    std::string err;
    ASSERT_TRUE(CellJob::fromJson(wire, back, err)) << err;
    EXPECT_EQ(back.baseline.scalarCycles, job.baseline.scalarCycles);
    EXPECT_EQ(back.baseline.loopCompute, 0u);
    EXPECT_TRUE(back.baseline.memStats.all().empty());

    // A frame without it is malformed, not a zero scalar region.
    EXPECT_FALSE(CellJob::fromJson(
        "{\"id\":1,\"bench\":\"gsmdec\",\"arch\":\"l0-8\","
        "\"unrolls\":[4,1]}",
        back, err));
    EXPECT_NE(err.find("scalarCycles"), std::string::npos) << err;
}

TEST(Protocol, UnrollFactorsDecodeStrictly)
{
    // Factors are integer tokens in int range: a fraction or a value
    // past 32 bits is a decode error, never truncated to a factor the
    // sender did not ask for. Range checks against the loops are the
    // worker body's (ExecuteCellJob.RejectsFactorsOutsideTheTripCount).
    auto frame = [](const std::string &unrolls) {
        return "{\"id\":1,\"bench\":\"gsmdec\",\"arch\":\"l0-8\","
               "\"unrolls\":["
               + unrolls + "],\"scalarCycles\":0}";
    };
    CellJob job;
    std::string err;
    for (const char *bad : {"1.5", "4294967297", "2147483648", "1e0",
                            "-2147483649", "\"4\"", "true", "4,null"}) {
        EXPECT_FALSE(CellJob::fromJson(frame(bad), job, err)) << bad;
        EXPECT_NE(err.find("unrolls"), std::string::npos) << err;
    }
    for (const char *plain : {"0", "-1", "2147483647", "-2147483648"}) {
        ASSERT_TRUE(CellJob::fromJson(frame(plain), job, err))
            << plain << ": " << err;
        ASSERT_EQ(job.unrolls.size(), 1u);
        EXPECT_EQ(std::to_string(job.unrolls[0]), plain);
    }
    ASSERT_TRUE(CellJob::fromJson(frame(""), job, err)) << err;
    EXPECT_TRUE(job.unrolls.empty()); // a baseline job
}

TEST(Protocol, CellOutcomeRoundTrips)
{
    CellOutcome ok;
    ok.id = 5;
    ok.ok = true;
    ok.run = sampleRun();
    CellOutcome back;
    std::string err;
    ASSERT_TRUE(CellOutcome::fromJson(ok.toJson(), back, err)) << err;
    EXPECT_EQ(back.id, 5u);
    EXPECT_TRUE(back.ok);
    EXPECT_TRUE(back.error.empty());
    EXPECT_TRUE(back.unrolls.empty());
    expectRunsEqual(ok.run, back.run);

    // A baseline outcome carries the unroll decision back.
    ok.unrolls = {4, 1, 4};
    ASSERT_TRUE(CellOutcome::fromJson(ok.toJson(), back, err)) << err;
    EXPECT_EQ(back.unrolls, ok.unrolls);

    CellOutcome failed;
    failed.id = 6;
    failed.ok = false;
    failed.error = "unknown benchmark label 'nope'";
    ASSERT_TRUE(CellOutcome::fromJson(failed.toJson(), back, err))
        << err;
    EXPECT_EQ(back.id, 6u);
    EXPECT_FALSE(back.ok);
    EXPECT_EQ(back.error, failed.error);
}

TEST(Protocol, DecodeRejectsMissingFields)
{
    CellJob job;
    std::string err;
    EXPECT_FALSE(CellJob::fromJson("{\"id\":1}", job, err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(CellJob::fromJson("not json", job, err));

    driver::BenchmarkRun run;
    EXPECT_FALSE(driver::benchmarkRunFromJson(
        "{\"bench\":\"x\",\"arch\":\"y\"}", run, err));

    // Counters are strict u64s: negative or fractional tokens are
    // protocol errors, not silent strtoull wrap/truncation.
    std::string wire = driver::benchmarkRunToJson(sampleRun());
    auto corrupt = [&wire](const std::string &from,
                           const std::string &to) {
        std::string c = wire;
        c.replace(c.find(from), from.size(), to);
        return c;
    };
    EXPECT_FALSE(driver::benchmarkRunFromJson(
        corrupt("\"loopStall\":42", "\"loopStall\":-42"), run, err));
    EXPECT_NE(err.find("loopStall"), std::string::npos);
    EXPECT_FALSE(driver::benchmarkRunFromJson(
        corrupt("\"loopStall\":42", "\"loopStall\":4.2e1"), run, err));
    EXPECT_FALSE(driver::benchmarkRunFromJson(
        corrupt("\"loopStall\":42",
                "\"loopStall\":99999999999999999999999"), run, err));
    // memStats counters follow the same rule.
    for (const char *bad : {"-1", "1.5e3"}) {
        EXPECT_FALSE(driver::benchmarkRunFromJson(
            corrupt("\"zero\":0", std::string("\"zero\":") + bad), run,
            err))
            << bad;
        EXPECT_NE(err.find("zero"), std::string::npos) << err;
    }
}

// ---- executeCellJob (the worker body) ----

TEST(ExecuteCellJob, ResolvesLabelsThroughRegistries)
{
    Wave1 w1 = wave1("gsmdec");
    CellOutcome out =
        driver::executeCellJob(makeJob(9, "gsmdec", "l0-8", w1));
    ASSERT_TRUE(out.ok) << out.error;
    EXPECT_EQ(out.id, 9u);
    EXPECT_EQ(out.run.bench, "gsmdec");
    EXPECT_EQ(out.run.arch, "l0-8");
    EXPECT_GT(out.run.totalCycles(), 0u);
    // Scalar cycles come from the baseline riding in the job.
    EXPECT_EQ(out.run.scalarCycles, w1.baseline.scalarCycles);
}

TEST(ExecuteCellJob, FailsCleanlyOnBadJobs)
{
    Wave1 w1 = wave1("gsmdec");

    CellOutcome out =
        driver::executeCellJob(makeJob(1, "no-such-bench", "l0-8", w1));
    EXPECT_FALSE(out.ok);
    EXPECT_NE(out.error.find("no-such-bench"), std::string::npos);

    out = driver::executeCellJob(makeJob(2, "gsmdec", "l0-bogus", w1));
    EXPECT_FALSE(out.ok);
    EXPECT_NE(out.error.find("l0-bogus"), std::string::npos);

    CellJob shape = makeJob(3, "gsmdec", "l0-8", w1);
    shape.unrolls.push_back(1);
    out = driver::executeCellJob(shape);
    EXPECT_FALSE(out.ok);
    EXPECT_NE(out.error.find("unroll"), std::string::npos);

    // No factors marks a baseline job, which only "unified" can be.
    CellJob misplaced = makeJob(4, "gsmdec", "l0-8", w1);
    misplaced.unrolls.clear();
    out = driver::executeCellJob(misplaced);
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(out.reason, FailReason::JobError);
    EXPECT_NE(out.error.find("unified"), std::string::npos) << out.error;
}

TEST(ExecuteCellJob, RejectsFactorsOutsideTheTripCount)
{
    // A factor below 1 used to divide by zero (SIGFPE) or run a
    // negative trip count; one above the trip count leaves no whole
    // iteration to run. Either is a failed job, not a cell.
    workloads::Benchmark bench =
        workloads::workloadRegistry().resolve("gsmdec");
    Wave1 w1 = wave1("gsmdec");
    const std::uint64_t trips = bench.loops[0].trips;
    for (long long u : {0LL, -1LL, static_cast<long long>(trips) + 1}) {
        CellJob job = makeJob(5, "gsmdec", "l0-8", w1);
        job.unrolls[0] = static_cast<int>(u);
        CellOutcome out = driver::executeCellJob(job);
        EXPECT_FALSE(out.ok) << u;
        EXPECT_EQ(out.reason, FailReason::JobError) << u;
        EXPECT_NE(out.error.find("unroll factor"), std::string::npos)
            << out.error;
    }
    CellJob edge = makeJob(6, "gsmdec", "l0-8", w1);
    edge.unrolls[0] = static_cast<int>(trips);
    EXPECT_TRUE(driver::executeCellJob(edge).ok);
}

TEST(ExecuteCellJob, BaselineJobDecidesAndRunsTheUnifiedCell)
{
    // A job with no factors makes the unroll decision on the reference
    // configuration and returns it with the self-referential unified
    // run, bit for bit what the cell primitives compute directly.
    Wave1 w1 = wave1("gsmdec");
    CellJob job;
    job.id = 8;
    job.bench = "gsmdec";
    job.arch = "unified";
    job.baseline.scalarCycles = 12345; // ignored: self-referential
    CellOutcome out = driver::executeCellJob(job);
    ASSERT_TRUE(out.ok) << out.error;
    EXPECT_EQ(out.unrolls, w1.unrolls);
    expectRunsEqual(out.run, w1.baseline);

    // Every other job keeps the outcome free of factors.
    EXPECT_TRUE(
        driver::executeCellJob(makeJob(9, "gsmdec", "unified", w1))
            .unrolls.empty());
}

// ---- tcp executor: a loopback --serve daemon in this process ----

namespace
{

/** A net::Server answering the cell protocol, like --serve does. */
struct LoopbackDaemon
{
    net::Server server;
    std::atomic<int> served{0}; ///< job lines (pings not counted)
    std::atomic<int> pings{0};

    /** @p dropEvery > 0 closes the connection instead of replying to
     *  every dropEvery-th request — a daemon dying mid-job. @p workers
     *  > 1 serves each connection through the pipelined worker pool;
     *  @p serveDelayMs slows every job line down — a weak machine. */
    explicit LoopbackDaemon(int dropEvery = 0, int workers = 1,
                            int serveDelayMs = 0)
    {
        std::string error;
        if (workers > 1)
            server.setWorkersPerConnection(workers);
        bool ok = server.start(
            0,
            [this, dropEvery, serveDelayMs](
                const std::string &line) -> std::optional<std::string> {
                if (line == driver::kCellPingLine) {
                    pings.fetch_add(1);
                    return driver::handleCellLine(line);
                }
                int n = served.fetch_add(1) + 1;
                if (dropEvery > 0 && n % dropEvery == 0)
                    return std::nullopt;
                if (serveDelayMs > 0)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(serveDelayMs));
                return driver::handleCellLine(line);
            },
            error);
        EXPECT_TRUE(ok) << error;
    }

    std::string
    endpoint() const
    {
        return "127.0.0.1:" + std::to_string(server.port());
    }
};

ExecOptions
tcpOpts(const std::vector<std::string> &endpoints, int maxRetries = 2)
{
    ExecOptions opts;
    opts.backend = ExecBackend::Tcp;
    opts.endpoints = endpoints;
    opts.maxRetries = maxRetries;
    opts.retryBackoffMs = 10; // tests shouldn't sleep long
    return opts;
}

} // namespace

TEST(RemoteExecutor, BitIdenticalToInProcessAcrossRegistry)
{
    // Every registered ArchSpec crosses TCP; the decoded runs must
    // equal the in-process ones bit for bit, in every output format.
    driver::ExperimentSpec spec;
    spec.benchmarks = {"gsmdec", "stream-4"};
    spec.archs = driver::archRegistry().names();
    for (std::size_t a = 0; a < spec.archs.size(); ++a)
        spec.columns.push_back(driver::normalizedColumn(
            spec.archs[a], static_cast<int>(a)));
    driver::Suite suite(std::move(spec));

    ExecOptions inproc;
    inproc.jobs = 1;
    driver::ResultGrid serial = suite.run(inproc);

    LoopbackDaemon daemon;
    // Two connections into the same daemon: cells interleave across
    // streams and must still land bit-identically.
    driver::ResultGrid remote =
        suite.run(tcpOpts({daemon.endpoint(), daemon.endpoint()}));

    ASSERT_EQ(serial.numBenches(), remote.numBenches());
    ASSERT_EQ(serial.numArchs(), remote.numArchs());
    for (std::size_t b = 0; b < serial.numBenches(); ++b) {
        expectRunsEqual(serial.baseline(b), remote.baseline(b));
        for (std::size_t a = 0; a < serial.numArchs(); ++a) {
            expectRunsEqual(serial.cell(b, a).run,
                            remote.cell(b, a).run);
            EXPECT_EQ(serial.cell(b, a).normalized,
                      remote.cell(b, a).normalized);
            EXPECT_EQ(serial.cell(b, a).normalizedStall,
                      remote.cell(b, a).normalizedStall);
        }
    }
    EXPECT_EQ(renderText(serial.render()), renderText(remote.render()));
    EXPECT_EQ(renderCsv(serial.render()), renderCsv(remote.render()));
    EXPECT_EQ(renderJson(serial.render()), renderJson(remote.render()));
}

TEST(RemoteExecutor, ReconnectsWhenDaemonDropsMidJob)
{
    // The daemon hangs up instead of answering every third request:
    // the in-flight job must be re-queued on a fresh connection, and
    // every outcome still lands correctly.
    LoopbackDaemon daemon(/*dropEvery=*/3);
    Wave1 w1 = wave1("gsmdec");
    std::vector<CellJob> jobs;
    for (int i = 0; i < 6; ++i)
        jobs.push_back(
            makeJob(i, "gsmdec", i % 2 ? "l0-4" : "l0-8", w1));

    driver::RemoteExecutor exec(tcpOpts({daemon.endpoint()}));
    std::vector<CellOutcome> outcomes = exec.execute(jobs);

    ASSERT_EQ(outcomes.size(), jobs.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        EXPECT_TRUE(outcomes[i].ok) << outcomes[i].error;
        EXPECT_EQ(outcomes[i].id, jobs[i].id);
        EXPECT_EQ(outcomes[i].run.arch, jobs[i].arch);
    }
    EXPECT_GT(exec.stats().reconnects, 0);
    EXPECT_GT(exec.stats().retries, 0);
}

// ---- the pipelined window ----

TEST(RemoteExecutor, BitIdenticalAcrossWindowSizes)
{
    // The whole point of windowing: it changes how many round trips
    // overlap, never the results. Every registered ArchSpec crosses a
    // 2-worker pipelined daemon (replies may come back out of order)
    // at windows 1, 4, and 16 — each grid must match the in-process
    // reference bit for bit, and window=1 must reproduce the strict
    // lockstep exchange.
    driver::ExperimentSpec spec;
    spec.benchmarks = {"gsmdec"};
    spec.archs = driver::archRegistry().names();
    for (std::size_t a = 0; a < spec.archs.size(); ++a)
        spec.columns.push_back(driver::normalizedColumn(
            spec.archs[a], static_cast<int>(a)));
    driver::Suite suite(std::move(spec));

    ExecOptions inproc;
    inproc.jobs = 1;
    driver::ResultGrid serial = suite.run(inproc);

    LoopbackDaemon daemon(/*dropEvery=*/0, /*workers=*/2);
    for (int window : {1, 4, 16}) {
        ExecOptions opts = tcpOpts({daemon.endpoint()});
        opts.window = window;
        driver::ResultGrid remote = suite.run(opts);
        ASSERT_EQ(serial.numBenches(), remote.numBenches());
        ASSERT_EQ(serial.numArchs(), remote.numArchs());
        for (std::size_t b = 0; b < serial.numBenches(); ++b)
            for (std::size_t a = 0; a < serial.numArchs(); ++a) {
                expectRunsEqual(serial.cell(b, a).run,
                                remote.cell(b, a).run);
                EXPECT_EQ(serial.cell(b, a).normalized,
                          remote.cell(b, a).normalized)
                    << "window " << window;
            }
        EXPECT_EQ(renderText(serial.render()),
                  renderText(remote.render()))
            << "window " << window;
        EXPECT_EQ(renderJson(serial.render()),
                  renderJson(remote.render()))
            << "window " << window;
    }
}

TEST(RemoteExecutor, MidWindowTeardownRequeuesEveryInFlightJob)
{
    // Eight jobs on the wire when the daemon hangs up after serving
    // two: all six in-flight ids must re-queue onto the fresh
    // connection and complete — and exactly one of them (the head of
    // the line, the job the daemon was serving when the stream died)
    // pays the retry. The five windowed behind it were never looked
    // at, so charging them would burn whole budgets per teardown.
    net::Server server;
    std::atomic<int> served{0};
    std::string error;
    ASSERT_TRUE(server.start(
        0,
        [&served](
            const std::string &line) -> std::optional<std::string> {
            if (line == driver::kCellPingLine)
                return driver::handleCellLine(line);
            if (served.fetch_add(1) + 1 == 3)
                return std::nullopt; // die serving the third job
            return driver::handleCellLine(line);
        },
        error))
        << error;

    Wave1 w1 = wave1("gsmdec");
    std::vector<CellJob> jobs;
    for (int i = 0; i < 8; ++i)
        jobs.push_back(
            makeJob(i + 1, "gsmdec", i % 2 ? "l0-4" : "l0-8", w1));

    ExecOptions opts =
        tcpOpts({"127.0.0.1:" + std::to_string(server.port())});
    opts.window = 16; // the whole grid rides one window
    driver::RemoteExecutor exec(opts);
    std::vector<CellOutcome> outcomes = exec.execute(jobs);

    ASSERT_EQ(outcomes.size(), jobs.size());
    int retried = 0;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        EXPECT_TRUE(outcomes[i].ok) << outcomes[i].error;
        EXPECT_EQ(outcomes[i].id, jobs[i].id);
        EXPECT_GE(outcomes[i].attempts, 1);
        retried += outcomes[i].attempts > 1 ? 1 : 0;
    }
    EXPECT_EQ(retried, 1) << "only the head of the line pays";
    EXPECT_EQ(exec.stats().retries, 1);
    EXPECT_EQ(exec.stats().reconnects, 1);
    EXPECT_GE(exec.stats().maxInFlight, 6);
}

TEST(RemoteExecutor, WindowedBeatsLockstepOnAHighLatencyLink)
{
    // A simulated WAN: every write frame pays a fixed latency period
    // before it moves (both directions — the fault plan is global).
    // Lockstep pays the full round trip per job; the windowed pipeline
    // keeps frames moving in both directions at once. The cells are
    // pchase-64, the cheapest registered synthetic label, so a cell's
    // compute is far below one period even at sanitizer speed, and both
    // runs are measured in periods: the link, not the host, sets them.
    // Same daemon, same jobs: the speedup must be structural, the
    // results identical. Sixteen jobs make the per-job periods
    // outweigh each run's fixed ones (connecting, draining), which a
    // slow host (a sanitizer build) stretches most.
    constexpr int kPeriodMs = 25;
    constexpr int kJobs = 16;
    net::FaultSpec wan;
    std::string err;
    ASSERT_TRUE(net::FaultSpec::parse(
        "seed=1,latency=" + std::to_string(kPeriodMs) + "ms", wan, err))
        << err;

    LoopbackDaemon daemon;
    Wave1 w1 = wave1("pchase-64");
    std::vector<CellJob> jobs;
    for (int i = 0; i < kJobs; ++i)
        jobs.push_back(
            makeJob(i + 1, "pchase-64", i % 2 ? "l0-4" : "l0-8", w1));

    auto timedRun = [&](int window, double &periods, int &maxInFlight) {
        net::ScopedFaultPlan plan(wan);
        ExecOptions opts = tcpOpts({daemon.endpoint()});
        opts.window = window;
        driver::RemoteExecutor exec(opts);
        auto start = std::chrono::steady_clock::now();
        std::vector<CellOutcome> outcomes = exec.execute(jobs);
        periods = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count()
                  / kPeriodMs;
        maxInFlight = exec.stats().maxInFlight;
        return outcomes;
    };

    double lockstep = 0, windowed = 0;
    int lockstepDepth = 0, windowedDepth = 0;
    std::vector<CellOutcome> lockstepOut =
        timedRun(1, lockstep, lockstepDepth);
    std::vector<CellOutcome> windowedOut =
        timedRun(8, windowed, windowedDepth);

    ASSERT_EQ(lockstepOut.size(), jobs.size());
    ASSERT_EQ(windowedOut.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        ASSERT_TRUE(lockstepOut[i].ok) << lockstepOut[i].error;
        ASSERT_TRUE(windowedOut[i].ok) << windowedOut[i].error;
        expectRunsEqual(lockstepOut[i].run, windowedOut[i].run);
    }
    EXPECT_EQ(lockstepDepth, 1);
    EXPECT_GE(windowedDepth, 4);
    // By construction each lockstep job waits out a job frame and its
    // reply, one period each.
    EXPECT_GE(lockstep, 2.0 * jobs.size());
    // The pipeline must win by a structural margin, not measurement
    // noise.
    EXPECT_LT(windowed, 0.75 * lockstep)
        << "windowed " << windowed << " periods vs lockstep " << lockstep;
}

TEST(RemoteExecutor, CreditSchedulingFollowsDaemonThroughput)
{
    // One fast daemon, one 40ms-per-cell straggler, no static
    // partition: each endpoint claims only as its window drains, so
    // the fast daemon must end up with the bulk of the grid — the
    // observed-throughput scheduler in action.
    LoopbackDaemon fast;
    LoopbackDaemon slow(/*dropEvery=*/0, /*workers=*/1,
                        /*serveDelayMs=*/40);

    Wave1 w1 = wave1("gsmdec");
    std::vector<CellJob> jobs;
    for (int i = 0; i < 12; ++i)
        jobs.push_back(
            makeJob(i + 1, "gsmdec", i % 2 ? "l0-4" : "l0-8", w1));

    ExecOptions opts = tcpOpts({fast.endpoint(), slow.endpoint()});
    opts.window = 2;
    driver::RemoteExecutor exec(opts);
    std::vector<CellOutcome> outcomes = exec.execute(jobs);

    ASSERT_EQ(outcomes.size(), jobs.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i)
        EXPECT_TRUE(outcomes[i].ok) << outcomes[i].error;
    ASSERT_EQ(exec.stats().jobsPerEndpoint.size(), 2u);
    int onFast = exec.stats().jobsPerEndpoint[0];
    int onSlow = exec.stats().jobsPerEndpoint[1];
    EXPECT_EQ(onFast + onSlow, 12);
    EXPECT_GT(onFast, onSlow)
        << "fast " << onFast << " vs slow " << onSlow;
}

TEST(RemoteExecutor, OnlyIdleChannelsAreHeartbeatProbed)
{
    // Three jobs, a fast and a 150ms-per-cell slow daemon, 40ms
    // heartbeat. The slow channel spends its whole life with a job in
    // flight — it must see exactly the one fresh-connection probe,
    // never a mid-job ping (the reply itself proves liveness). The
    // fast channel drains the rest of the queue and then idles while
    // the straggler finishes — the idle-channel timer must probe it.
    LoopbackDaemon fast;
    LoopbackDaemon slow(/*dropEvery=*/0, /*workers=*/1,
                        /*serveDelayMs=*/150);

    Wave1 w1 = wave1("gsmdec");
    std::vector<CellJob> jobs;
    for (int i = 0; i < 3; ++i)
        jobs.push_back(
            makeJob(i + 1, "gsmdec", i % 2 ? "l0-4" : "l0-8", w1));

    ExecOptions opts = tcpOpts({fast.endpoint(), slow.endpoint()});
    opts.window = 1;
    opts.heartbeatMs = 40;
    driver::RemoteExecutor exec(opts);
    std::vector<CellOutcome> outcomes = exec.execute(jobs);

    ASSERT_EQ(outcomes.size(), jobs.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i)
        EXPECT_TRUE(outcomes[i].ok) << outcomes[i].error;
    EXPECT_EQ(slow.pings.load(), 1)
        << "a channel with a job in flight needs no ping";
    EXPECT_GE(fast.pings.load(), 2)
        << "the idle channel should have been probed on the timer";
}

TEST(RemoteExecutor, SurvivesDaemonRestartMidSuite)
{
    // Stop the daemon while a grid is in flight and bring a new one
    // up on the same port: the reconnect backoff must ride the gap.
    Wave1 w1 = wave1("gsmdec");
    std::vector<CellJob> jobs;
    for (int i = 0; i < 8; ++i)
        jobs.push_back(
            makeJob(i, "gsmdec", i % 2 ? "l0-4" : "l0-8", w1));

    net::Server first;
    std::atomic<int> served{0};
    std::string error;
    ASSERT_TRUE(first.start(
        0,
        [&served](const std::string &line) {
            served.fetch_add(1);
            return std::optional<std::string>(
                driver::handleCellLine(line));
        },
        error))
        << error;
    std::uint16_t port = first.port();

    ExecOptions opts =
        tcpOpts({"127.0.0.1:" + std::to_string(port)},
                /*maxRetries=*/8);
    opts.retryBackoffMs = 25; // 8 backed-off attempts ≈ 900ms of grace
    driver::RemoteExecutor exec(opts);

    std::vector<CellOutcome> outcomes;
    std::thread runner(
        [&]() { outcomes = exec.execute(jobs); });

    // Let a few cells through, then restart the daemon on that port.
    for (int spin = 0; served.load() < 2 && spin < 20000; ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_GE(served.load(), 2) << "daemon never saw the suite";
    first.stop();
    net::Server second;
    ASSERT_TRUE(second.start(
        port,
        [](const std::string &line) {
            return std::optional<std::string>(
                driver::handleCellLine(line));
        },
        error))
        << error;
    runner.join();

    ASSERT_EQ(outcomes.size(), jobs.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        EXPECT_TRUE(outcomes[i].ok) << outcomes[i].error;
        EXPECT_EQ(outcomes[i].id, jobs[i].id);
    }
    EXPECT_GE(exec.stats().connects, 2);
}

TEST(RemoteExecutor, ReroutesJobsFromADeadEndpoint)
{
    // One healthy daemon, one endpoint nobody listens on: the dead
    // endpoint's thread must retire after its first exhausted job and
    // hand everything back — the whole grid completes through the
    // healthy connection, no failed outcomes.
    LoopbackDaemon daemon;
    std::string error;
    std::uint16_t deadPort = 0;
    {
        net::Fd listener = net::listenTcp(0, error, &deadPort);
        ASSERT_TRUE(listener.valid()) << error;
    }

    Wave1 w1 = wave1("gsmdec");
    std::vector<CellJob> jobs;
    for (int i = 0; i < 8; ++i)
        jobs.push_back(
            makeJob(i, "gsmdec", i % 2 ? "l0-4" : "l0-8", w1));

    ExecOptions opts = tcpOpts(
        {daemon.endpoint(), "127.0.0.1:" + std::to_string(deadPort)},
        /*maxRetries=*/1);
    opts.retryBackoffMs = 1;
    driver::RemoteExecutor exec(opts);
    std::vector<CellOutcome> outcomes = exec.execute(jobs);

    ASSERT_EQ(outcomes.size(), jobs.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        EXPECT_TRUE(outcomes[i].ok) << outcomes[i].error;
        EXPECT_EQ(outcomes[i].id, jobs[i].id);
        EXPECT_EQ(outcomes[i].run.arch, jobs[i].arch);
    }
    // The dead endpoint burned retries before retiring.
    EXPECT_GE(exec.stats().retries, 1);
}

TEST(RemoteExecutor, FailsCleanlyWhenNoDaemonListens)
{
    // Reserve an ephemeral port, then close it: every attempt is
    // refused, the budget runs out, and failures land per-job.
    std::string error;
    std::uint16_t port = 0;
    {
        net::Fd listener = net::listenTcp(0, error, &port);
        ASSERT_TRUE(listener.valid()) << error;
    }
    Wave1 w1 = wave1("gsmdec");
    std::vector<CellJob> jobs = {makeJob(0, "gsmdec", "l0-8", w1)};

    ExecOptions opts = tcpOpts(
        {"127.0.0.1:" + std::to_string(port)}, /*maxRetries=*/1);
    opts.retryBackoffMs = 1;
    driver::RemoteExecutor exec(opts);
    std::vector<CellOutcome> outcomes = exec.execute(jobs);

    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_FALSE(outcomes[0].ok);
    EXPECT_NE(outcomes[0].error.find("failed after"), std::string::npos)
        << outcomes[0].error;
    EXPECT_GE(exec.stats().retries, 1);
}

TEST(RemoteExecutor, PropagatesInJobFailures)
{
    // A job the *daemon* rejects (bad label) is not a connection
    // failure: no retries, the failure comes back in the outcome.
    LoopbackDaemon daemon;
    Wave1 w1 = wave1("gsmdec");
    std::vector<CellJob> jobs = {
        makeJob(0, "gsmdec", "l0-8", w1),
        makeJob(1, "no-such-bench", "l0-8", w1),
    };
    driver::RemoteExecutor exec(tcpOpts({daemon.endpoint()}));
    std::vector<CellOutcome> outcomes = exec.execute(jobs);

    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_TRUE(outcomes[0].ok) << outcomes[0].error;
    EXPECT_FALSE(outcomes[1].ok);
    EXPECT_NE(outcomes[1].error.find("no-such-bench"),
              std::string::npos);
    EXPECT_EQ(exec.stats().retries, 0);
    // Both final outcomes, the in-job failure included, are replies
    // the one endpoint produced.
    EXPECT_EQ(exec.stats().jobsPerEndpoint, std::vector<int>{2});
    EXPECT_GE(exec.stats().maxInFlight, 1);
}

TEST(RemoteExecutor, DefaultsAndZeroTurnsDeadlineAndHeartbeatOff)
{
    // One channel kind, one set of defaults: a one-minute per-job
    // deadline, a five-second heartbeat and a window of four.
    ExecOptions defaults;
    defaults.backend = ExecBackend::Tcp;
    EXPECT_EQ(defaults.cellTimeoutMs, 60000);
    EXPECT_EQ(defaults.heartbeatMs, 5000);
    EXPECT_EQ(defaults.window, 4);

    Wave1 w1 = wave1("gsmdec");
    std::vector<CellJob> jobs;
    for (int i = 0; i < 8; ++i)
        jobs.push_back(
            makeJob(i + 1, "gsmdec", i % 2 ? "l0-4" : "l0-8", w1));

    // At the defaults a fresh channel is probed, and a slow daemon
    // fills exactly four window slots.
    {
        LoopbackDaemon daemon(/*dropEvery=*/0, /*workers=*/1,
                              /*serveDelayMs=*/20);
        driver::RemoteExecutor exec(tcpOpts({daemon.endpoint()}));
        for (const CellOutcome &out : exec.execute(jobs))
            EXPECT_TRUE(out.ok) << out.error;
        EXPECT_GE(daemon.pings.load(), 1);
        EXPECT_EQ(exec.stats().maxInFlight, 4);
    }
    // 0 is off, not a zero-length bound: no probe goes out, and a
    // cell slower than any short deadline still completes.
    {
        LoopbackDaemon daemon(/*dropEvery=*/0, /*workers=*/1,
                              /*serveDelayMs=*/100);
        ExecOptions opts = tcpOpts({daemon.endpoint()});
        opts.cellTimeoutMs = 0;
        opts.heartbeatMs = 0;
        driver::RemoteExecutor exec(opts);
        std::vector<CellOutcome> outcomes =
            exec.execute({jobs[0], jobs[1]});
        for (const CellOutcome &out : outcomes)
            EXPECT_TRUE(out.ok) << out.error;
        EXPECT_EQ(daemon.pings.load(), 0);
        EXPECT_EQ(exec.stats().timeouts, 0);
        EXPECT_EQ(exec.stats().retries, 0);
    }
}

TEST(RemoteExecutor, DaemonSurvivesBadUnrollFactors)
{
    // Straight onto a daemon connection, no executor in between: an
    // unroll factor of 0 (a division by zero), -1 (a zero-cycle cell),
    // 1.5 or 2^32+1 (truncated or wrapped) must each get a failed
    // outcome — the job-error for a frame that decodes, the id-0
    // frame-corrupt sentinel for one that does not — and the same
    // connection must then serve a valid job.
    LoopbackDaemon daemon;
    std::string error;
    net::Fd chan = net::connectTcp("127.0.0.1", daemon.server.port(),
                                   error);
    ASSERT_TRUE(chan.valid()) << error;
    net::LineReader reader(chan.get());
    auto roundTrip = [&](const std::string &frame, CellOutcome &out) {
        std::string reply, err;
        ASSERT_TRUE(net::writeLine(chan.get(), frame, err)) << err;
        ASSERT_EQ(reader.readLine(reply, err, 30000),
                  net::LineReader::Status::Line)
            << frame << ": " << err;
        ASSERT_TRUE(CellOutcome::fromJson(reply, out, err)) << err;
    };

    Wave1 w1 = wave1("gsmdec");
    const CellJob good = makeJob(2, "gsmdec", "l0-8", w1);
    const std::string key = "\"unrolls\":[";
    struct Bad
    {
        const char *factor;
        std::uint64_t id;
        FailReason reason;
    };
    for (const Bad &bad : {Bad{"0", 1, FailReason::JobError},
                           Bad{"-1", 1, FailReason::JobError},
                           Bad{"1.5", 0, FailReason::FrameCorrupt},
                           Bad{"4294967297", 0, FailReason::FrameCorrupt}}) {
        CellJob job = good;
        job.id = 1;
        std::string frame = job.toJson();
        std::size_t at = frame.find(key) + key.size();
        frame.replace(at, frame.find_first_of(",]", at) - at, bad.factor);

        CellOutcome out;
        roundTrip(frame, out);
        EXPECT_FALSE(out.ok) << bad.factor;
        EXPECT_EQ(out.id, bad.id) << bad.factor;
        EXPECT_EQ(out.reason, bad.reason) << bad.factor << ": "
                                          << out.error;
        roundTrip(good.toJson(), out);
        EXPECT_TRUE(out.ok) << bad.factor << ": " << out.error;
        EXPECT_EQ(out.id, 2u);
    }
    // One connection served all eight frames.
    EXPECT_EQ(daemon.served.load(), 8);
    EXPECT_EQ(daemon.server.connectionsAccepted(), 1);
}

// ---- the per-cell event stream ----

namespace
{

/** Run @p suite with @p opts streaming into a temp file; return the
 *  parsed event lines. */
std::vector<json::Value>
streamedEvents(const driver::Suite &suite, ExecOptions opts,
               const std::string &tag)
{
    std::string path = ::testing::TempDir() + "events_" + tag
                       + ".ndjson";
    {
        std::string error;
        auto stream = driver::OutcomeStream::open(path, error);
        EXPECT_NE(stream, nullptr) << error;
        opts.onOutcome = stream->callback();
        suite.run(opts);
    }
    std::vector<json::Value> events;
    std::FILE *f = std::fopen(path.c_str(), "r");
    EXPECT_NE(f, nullptr);
    char buf[65536];
    while (std::fgets(buf, sizeof(buf), f) != nullptr) {
        std::string line(buf);
        EXPECT_EQ(line.back(), '\n');
        line.pop_back();
        std::string error;
        auto doc = json::parse(line, &error);
        EXPECT_TRUE(doc.has_value())
            << error << " in event line: " << line;
        if (doc)
            events.push_back(std::move(*doc));
    }
    std::fclose(f);
    return events;
}

} // namespace

TEST(Stream, OneEventPerDispatchedCellFromEveryBackend)
{
    // 2 benchmarks × 3 archs, one of them "unified": a unified cell is
    // its benchmark's baseline job, dispatched once like any other
    // cell, so every backend must emit exactly 2 × 3 events, ids
    // unique, and each event's labels must name a real dispatched
    // cell.
    driver::ExperimentSpec spec;
    spec.benchmarks = {"gsmdec", "stream-4"};
    spec.archs = {"l0-8", "unified", "l0-4"};
    for (int a = 0; a < 3; ++a)
        spec.columns.push_back(
            driver::normalizedColumn(spec.archs[a], a));
    driver::Suite suite(std::move(spec));

    LoopbackDaemon daemon;
    ExecOptions inproc;
    inproc.jobs = 2;
    std::vector<std::pair<std::string, ExecOptions>> backends = {
        {"inprocess", inproc},
        {"tcp", tcpOpts({daemon.endpoint()})},
    };

    for (auto &[tag, opts] : backends) {
        std::vector<json::Value> events =
            streamedEvents(suite, opts, tag);
        ASSERT_EQ(events.size(), 6u) << tag;
        std::set<std::uint64_t> ids;
        for (const auto &event : events) {
            EXPECT_EQ(event.find("event")->str(), "cell") << tag;
            ids.insert(std::stoull(event.find("id")->numberToken()));
            EXPECT_TRUE(event.find("ok")->boolean()) << tag;
            std::string bench = event.find("bench")->str();
            std::string arch = event.find("arch")->str();
            EXPECT_TRUE(bench == "gsmdec" || bench == "stream-4");
            EXPECT_TRUE(arch == "l0-8" || arch == "l0-4"
                        || arch == "unified")
                << arch;
            EXPECT_TRUE(event.find("wallMs")->isNumber()) << tag;
            const json::Value *outcome = event.find("outcome");
            ASSERT_NE(outcome, nullptr) << tag;
            // The full CellOutcome rides in the event: a dashboard
            // can reconstruct the run without a second channel.
            const json::Value *run = outcome->find("run");
            ASSERT_NE(run, nullptr) << tag;
            EXPECT_EQ(run->find("bench")->str(), bench) << tag;
            EXPECT_EQ(run->find("arch")->str(), arch) << tag;
        }
        EXPECT_EQ(ids.size(), 6u) << tag << ": duplicate event ids";
    }
}

TEST(Stream, BaselineWaveThenEveryOtherCell)
{
    // Without a unified column (fig5's shape) a grid executes one
    // baseline job per benchmark and then every cell: nb + nb × na.
    // With one, the unified column *is* the baseline job: nb × na.
    // Either way each executed cell is one counted execution, one cell
    // span and one event, and the job ids run 1..N across both waves,
    // the baseline jobs first.
    struct Shape
    {
        std::vector<std::string> archs;
        std::uint64_t executed;
    };
    for (const Shape &shape :
         {Shape{{"l0-2", "l0-8", "l0-unbounded"}, 2 + 2 * 3},
          Shape{{"l0-8", "unified", "l0-4"}, 2 * 3}}) {
        driver::ExperimentSpec spec;
        spec.benchmarks = {"gsmdec", "stream-4"};
        spec.archs = shape.archs;
        driver::Suite suite(std::move(spec));
        ExecOptions opts;
        opts.jobs = 2;
        suite.run(opts); // registers the executed-cells counter
        metrics::Counter &executed =
            metrics::counter("l0vliw_driver_cells_executed_total", "");
        const std::uint64_t before = executed.value();

        metrics::TraceRecorder rec;
        std::mutex mutex;
        std::map<std::uint64_t, std::string> archOf; // by job id
        opts.trace = &rec;
        opts.onOutcome = [&](const CellJob &job, const CellOutcome &,
                             double) {
            std::lock_guard<std::mutex> lock(mutex);
            EXPECT_TRUE(archOf.emplace(job.id, job.arch).second)
                << "duplicate id " << job.id;
        };
        suite.run(opts);

        EXPECT_EQ(executed.value() - before, shape.executed);
        std::uint64_t cellSpans = 0;
        for (const metrics::TraceSpan &span : rec.spans())
            cellSpans += span.name == "cell" ? 1 : 0;
        EXPECT_EQ(cellSpans, shape.executed);
        ASSERT_EQ(archOf.size(), shape.executed);
        EXPECT_EQ(archOf.begin()->first, 1u);
        EXPECT_EQ(archOf.rbegin()->first, shape.executed);
        for (const auto &[id, arch] : archOf)
            EXPECT_EQ(arch == "unified", id <= 2) << id << " " << arch;
    }
}

// ---- graceful shutdown ----

TEST(Shutdown, DaemonExitsCleanlyOnSigterm)
{
    // Reserve a port for the daemon child (closed before the fork —
    // a tiny reuse race, harmless in a test runner).
    std::string error;
    std::uint16_t port = 0;
    {
        net::Fd listener = net::listenTcp(0, error, &port);
        ASSERT_TRUE(listener.valid()) << error;
    }

    pid_t daemon = fork();
    ASSERT_GE(daemon, 0);
    if (daemon == 0)
        _exit(driver::cellDaemonMain(port));

    // Wait for the daemon to listen, prove it serves, then SIGTERM.
    net::Fd conn;
    for (int attempt = 0; attempt < 200 && !conn.valid(); ++attempt) {
        conn = net::connectTcp("127.0.0.1", port, error);
        if (!conn.valid())
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_TRUE(conn.valid()) << error;
    ASSERT_EQ(kill(daemon, SIGTERM), 0);
    int status = 0;
    ASSERT_EQ(waitpid(daemon, &status, 0), daemon);
    EXPECT_TRUE(WIFEXITED(status))
        << "daemon must exit, not die of the signal";
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

// ---- deadlines, heartbeats, degradation ----

namespace
{

double
elapsedMsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** A daemon that answers the heartbeat probe but never replies to a
 *  job: its handler holds every job line until destruction. */
struct HangingDaemon
{
    std::mutex mutex;
    std::condition_variable cv;
    bool released = false;
    std::atomic<int> jobLines{0};
    net::Server server;

    HangingDaemon()
    {
        std::string error;
        bool ok = server.start(
            0,
            [this](const std::string &line) -> std::optional<std::string> {
                if (line == driver::kCellPingLine)
                    return driver::handleCellLine(line);
                jobLines.fetch_add(1);
                std::unique_lock<std::mutex> lock(mutex);
                cv.wait(lock, [this]() { return released; });
                return std::nullopt;
            },
            error);
        EXPECT_TRUE(ok) << error;
    }

    ~HangingDaemon()
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            released = true;
        }
        cv.notify_all();
        server.stop();
    }

    std::string
    endpoint() const
    {
        return "127.0.0.1:" + std::to_string(server.port());
    }
};

} // namespace

TEST(RemoteExecutor, DeadlineTearsDownAHungJob)
{
    // The daemon passes the fresh-channel ping, takes the job and never
    // replies: every attempt must end in a bounded-deadline teardown
    // and reconnect, not a hang, and the final outcome must say so in
    // transport terms.
    HangingDaemon daemon;
    Wave1 w1 = wave1("gsmdec");
    std::vector<CellJob> jobs = {makeJob(0, "gsmdec", "l0-8", w1)};

    ExecOptions opts = tcpOpts({daemon.endpoint()}, /*maxRetries=*/1);
    opts.retryBackoffMs = 1;
    opts.maxBackoffMs = 5;
    opts.cellTimeoutMs = 200;

    auto start = std::chrono::steady_clock::now();
    driver::RemoteExecutor exec(opts);
    std::vector<CellOutcome> outcomes = exec.execute(jobs);
    double elapsedMs = elapsedMsSince(start);

    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_FALSE(outcomes[0].ok);
    EXPECT_EQ(outcomes[0].reason, FailReason::Timeout);
    EXPECT_NE(outcomes[0].error.find("deadline"), std::string::npos)
        << outcomes[0].error;
    EXPECT_EQ(outcomes[0].attempts, 2);
    EXPECT_EQ(exec.stats().timeouts, 2);
    EXPECT_EQ(exec.stats().reconnects, 1);
    EXPECT_EQ(daemon.jobLines.load(), 2);
    // Two 200ms deadlines plus connect overhead — bounded, not a hang.
    EXPECT_GE(elapsedMs, 350.0);
    EXPECT_LT(elapsedMs, 10000.0);
}

TEST(RemoteExecutor, HeartbeatDetectsSilentDaemon)
{
    // A listener that accepts connections but never serves the
    // protocol loop: without heartbeats every job would burn its full
    // cell deadline against the silence. The ping probe must detect
    // the wedge within heartbeatMs instead.
    std::string error;
    std::uint16_t port = 0;
    net::Fd listener = net::listenTcp(0, error, &port);
    ASSERT_TRUE(listener.valid()) << error;
    std::mutex heldMutex;
    std::vector<net::Fd> held; ///< keep accepted conns open, silent
    std::thread acceptor([&]() {
        for (;;) {
            std::string acceptError;
            net::Fd conn = net::acceptConn(listener.get(), acceptError);
            if (!conn.valid())
                return;
            std::lock_guard<std::mutex> lock(heldMutex);
            held.push_back(std::move(conn));
        }
    });

    Wave1 w1 = wave1("gsmdec");
    std::vector<CellJob> jobs = {makeJob(0, "gsmdec", "l0-8", w1)};

    ExecOptions opts =
        tcpOpts({"127.0.0.1:" + std::to_string(port)}, /*maxRetries=*/1);
    opts.retryBackoffMs = 1;
    opts.maxBackoffMs = 5;
    opts.heartbeatMs = 100;
    opts.cellTimeoutMs = 60000; // the probe must fire long before this

    auto start = std::chrono::steady_clock::now();
    driver::RemoteExecutor exec(opts);
    std::vector<CellOutcome> outcomes = exec.execute(jobs);
    double elapsedMs = elapsedMsSince(start);

    ::shutdown(listener.get(), SHUT_RDWR); // wake the accept loop
    acceptor.join();

    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_FALSE(outcomes[0].ok);
    EXPECT_EQ(outcomes[0].reason, FailReason::Timeout);
    EXPECT_NE(outcomes[0].error.find("silent"), std::string::npos)
        << outcomes[0].error;
    EXPECT_EQ(outcomes[0].attempts, 2);
    EXPECT_EQ(exec.stats().timeouts, 2);
    // Two 100ms pong deadlines, nowhere near the 60s cell deadline.
    EXPECT_GE(elapsedMs, 150.0);
    EXPECT_LT(elapsedMs, 10000.0);
}

TEST(RemoteExecutor, DegradeLocalCompletesSuiteWithAllDaemonsDown)
{
    // Two reserved-then-closed ports: every endpoint permanently
    // fails. --degrade local must drain the whole grid through the
    // in-process executor — bit-identical outcomes, exactly one
    // (authoritative, successful) event per cell.
    std::string error;
    std::vector<std::string> dead;
    for (int e = 0; e < 2; ++e) {
        std::uint16_t port = 0;
        net::Fd listener = net::listenTcp(0, error, &port);
        ASSERT_TRUE(listener.valid()) << error;
        dead.push_back("127.0.0.1:" + std::to_string(port));
    }

    Wave1 w1 = wave1("gsmdec");
    std::vector<CellJob> jobs;
    for (int i = 0; i < 6; ++i)
        jobs.push_back(
            makeJob(i, "gsmdec", i % 2 ? "l0-4" : "l0-8", w1));

    ExecOptions inproc;
    inproc.jobs = 2;
    std::vector<CellOutcome> reference =
        driver::InProcessExecutor(inproc).execute(jobs);

    std::mutex eventMutex;
    std::vector<std::pair<std::uint64_t, bool>> events;
    ExecOptions opts = tcpOpts(dead, /*maxRetries=*/1);
    opts.retryBackoffMs = 1;
    opts.maxBackoffMs = 5;
    opts.degrade = driver::DegradeMode::Local;
    opts.onOutcome = [&](const CellJob &job,
                         const CellOutcome &outcome, double) {
        std::lock_guard<std::mutex> lock(eventMutex);
        events.emplace_back(job.id, outcome.ok);
    };
    driver::RemoteExecutor exec(opts);
    std::vector<CellOutcome> outcomes = exec.execute(jobs);

    ASSERT_EQ(outcomes.size(), jobs.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        EXPECT_TRUE(outcomes[i].ok) << outcomes[i].error;
        EXPECT_EQ(outcomes[i].id, jobs[i].id);
        ASSERT_TRUE(reference[i].ok) << reference[i].error;
        expectRunsEqual(reference[i].run, outcomes[i].run);
    }
    EXPECT_EQ(exec.stats().degradedLocal, 6);
    ASSERT_EQ(events.size(), jobs.size());
    std::set<std::uint64_t> eventIds;
    for (const auto &[id, ok] : events) {
        EXPECT_TRUE(ok);
        eventIds.insert(id);
    }
    EXPECT_EQ(eventIds.size(), jobs.size())
        << "parked cells must emit exactly one event, from the drain";
}

TEST(Stream, FailedCellEventsCarryReasonAndAttempts)
{
    // A permanently refused endpoint under --degrade fail: the failed
    // cell's stream event must carry the structured diagnosis, not
    // just prose — "reason" at the event level and inside the
    // embedded outcome, plus the attempt count the failure cost.
    std::string error;
    std::uint16_t port = 0;
    {
        net::Fd listener = net::listenTcp(0, error, &port);
        ASSERT_TRUE(listener.valid()) << error;
    }
    Wave1 w1 = wave1("gsmdec");
    std::vector<CellJob> jobs = {makeJob(3, "gsmdec", "l0-8", w1)};

    std::string path = ::testing::TempDir() + "events_failed.ndjson";
    {
        auto stream = driver::OutcomeStream::open(path, error);
        ASSERT_NE(stream, nullptr) << error;
        ExecOptions opts = tcpOpts(
            {"127.0.0.1:" + std::to_string(port)}, /*maxRetries=*/1);
        opts.retryBackoffMs = 1;
        opts.maxBackoffMs = 5;
        opts.onOutcome = stream->callback();
        driver::RemoteExecutor exec(opts);
        std::vector<CellOutcome> outcomes = exec.execute(jobs);
        ASSERT_EQ(outcomes.size(), 1u);
        EXPECT_FALSE(outcomes[0].ok);
    }

    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char buf[65536];
    ASSERT_NE(std::fgets(buf, sizeof(buf), f), nullptr);
    EXPECT_EQ(std::fgets(buf + std::strlen(buf), 2, f), nullptr)
        << "exactly one event expected";
    std::fclose(f);
    std::string line(buf);
    ASSERT_EQ(line.back(), '\n');
    line.pop_back();

    auto event = json::parse(line, &error);
    ASSERT_TRUE(event.has_value()) << error << " in: " << line;
    EXPECT_EQ(event->find("event")->str(), "cell");
    EXPECT_EQ(event->find("id")->numberToken(), "3");
    EXPECT_FALSE(event->find("ok")->boolean());
    const json::Value *reason = event->find("reason");
    ASSERT_NE(reason, nullptr);
    EXPECT_EQ(reason->str(),
              failReasonName(FailReason::ConnReset));
    const json::Value *attempts = event->find("attempts");
    ASSERT_NE(attempts, nullptr);
    EXPECT_EQ(attempts->numberToken(), "2");
    const json::Value *outcome = event->find("outcome");
    ASSERT_NE(outcome, nullptr);
    ASSERT_NE(outcome->find("reason"), nullptr);
    EXPECT_EQ(outcome->find("reason")->str(), reason->str());
}

// ---- per-job tracing ----

TEST(Trace, OneCompleteSpanChainPerDispatchedCellFromEveryBackend)
{
    // 2 benchmarks × {l0-8, unified, l0-4}: unified cells are the
    // baseline jobs and dispatch once each, so every backend traces
    // exactly 6 job lanes, each a complete lifecycle chain — enqueue,
    // cell, execute, plan-build, fold — plus exactly one wire-write on
    // the backend with a wire.
    driver::ExperimentSpec spec;
    spec.benchmarks = {"gsmdec", "stream-4"};
    spec.archs = {"l0-8", "unified", "l0-4"};
    for (int a = 0; a < 3; ++a)
        spec.columns.push_back(
            driver::normalizedColumn(spec.archs[a], a));
    driver::Suite suite(std::move(spec));

    LoopbackDaemon daemon;
    ExecOptions inproc;
    inproc.jobs = 2;
    std::vector<std::tuple<std::string, ExecOptions, bool>> backends = {
        {"inprocess", inproc, false},
        {"tcp", tcpOpts({daemon.endpoint()}), true},
    };

    for (auto &[tag, opts, hasWire] : backends) {
        metrics::TraceRecorder rec;
        opts.trace = &rec;
        suite.run(opts);

        std::map<std::uint64_t, std::map<std::string, int>> lanes;
        for (const metrics::TraceSpan &span : rec.spans()) {
            ++lanes[span.job][span.name];
            EXPECT_GE(span.tsUs, 0.0) << tag;
            EXPECT_GE(span.durUs, 0.0) << tag;
        }
        EXPECT_EQ(lanes.size(), 6u) << tag;
        for (auto &[job, names] : lanes) {
            EXPECT_EQ(names["enqueue"], 1) << tag << " job " << job;
            EXPECT_EQ(names["cell"], 1) << tag << " job " << job;
            EXPECT_EQ(names["execute"], 1) << tag << " job " << job;
            EXPECT_EQ(names["plan-build"], 1) << tag << " job " << job;
            EXPECT_EQ(names["fold"], 1) << tag << " job " << job;
            EXPECT_EQ(names["wire-write"], hasWire ? 1 : 0)
                << tag << " job " << job;
        }

        // The rendered document is loadable trace-event JSON.
        std::string error;
        auto doc = json::parse(rec.toChromeJson(), &error);
        ASSERT_TRUE(doc.has_value()) << tag << ": " << error;
        const json::Value *events = doc->find("traceEvents");
        ASSERT_NE(events, nullptr) << tag;
        EXPECT_EQ(events->items().size(), rec.spans().size()) << tag;
    }
}

TEST(Trace, FailedCellsCarryReasonTaggedSpans)
{
    // A permanently refused endpoint: the cell span must be tagged
    // with ok=false and the structured FailReason, exactly like the
    // stream event is.
    std::string error;
    std::uint16_t port = 0;
    {
        net::Fd listener = net::listenTcp(0, error, &port);
        ASSERT_TRUE(listener.valid()) << error;
    }
    Wave1 w1 = wave1("gsmdec");
    std::vector<CellJob> jobs = {makeJob(5, "gsmdec", "l0-8", w1)};

    metrics::TraceRecorder rec;
    ExecOptions opts = tcpOpts(
        {"127.0.0.1:" + std::to_string(port)}, /*maxRetries=*/1);
    opts.retryBackoffMs = 1;
    opts.maxBackoffMs = 5;
    opts.trace = &rec;
    driver::RemoteExecutor exec(opts);
    std::vector<CellOutcome> outcomes = exec.execute(jobs);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_FALSE(outcomes[0].ok);

    int cellSpans = 0;
    for (const metrics::TraceSpan &span : rec.spans()) {
        if (span.name != "cell")
            continue;
        ++cellSpans;
        EXPECT_EQ(span.job, 5u);
        std::map<std::string, std::string> args(span.args.begin(),
                                                span.args.end());
        EXPECT_EQ(args["ok"], "false");
        EXPECT_EQ(args["reason"],
                  failReasonName(FailReason::ConnReset));
        EXPECT_EQ(args["attempts"], "2");
    }
    EXPECT_EQ(cellSpans, 1);
    EXPECT_TRUE(json::parse(rec.toChromeJson(), &error).has_value())
        << error;
}

TEST(Trace, StaysValidJsonUnderChaos)
{
    // Fault injection corrupts, drops, and resets frames on both
    // sides of the wire; the trace must still parse as one valid
    // trace-event document with exactly one authoritative cell span
    // per job (retries may add wire-writes, never duplicate cells).
    Wave1 w1 = wave1("gsmdec");
    std::vector<CellJob> jobs;
    for (int i = 0; i < 4; ++i)
        jobs.push_back(
            makeJob(i + 1, "gsmdec", i % 2 ? "l0-4" : "l0-8", w1));

    net::FaultSpec spec;
    std::string error;
    ASSERT_TRUE(net::FaultSpec::parse(
        "delay=0..5ms@0.25,drop@0.1,corrupt@0.1,reset@0.1", spec,
        error))
        << error;
    spec.seed = 7;

    LoopbackDaemon daemon(/*dropEvery=*/0, /*workers=*/2);
    metrics::TraceRecorder rec;
    {
        net::ScopedFaultPlan chaos(spec);
        ExecOptions opts = tcpOpts({daemon.endpoint()},
                                   /*maxRetries=*/4);
        opts.window = 4;
        opts.retryBackoffMs = 2;
        opts.maxBackoffMs = 20;
        opts.cellTimeoutMs = 300;
        opts.heartbeatMs = 100;
        opts.degrade = driver::DegradeMode::Local;
        opts.trace = &rec;
        driver::RemoteExecutor exec(opts);
        std::vector<CellOutcome> outcomes = exec.execute(jobs);
        ASSERT_EQ(outcomes.size(), jobs.size());
    }

    std::map<std::uint64_t, int> cellSpans;
    for (const metrics::TraceSpan &span : rec.spans())
        if (span.name == "cell")
            ++cellSpans[span.job];
    ASSERT_EQ(cellSpans.size(), jobs.size());
    for (const CellJob &job : jobs)
        EXPECT_EQ(cellSpans[job.id], 1) << "job " << job.id;

    auto doc = json::parse(rec.toChromeJson(), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    EXPECT_NE(doc->find("traceEvents"), nullptr);
}

// ---- the metrics verb ----

TEST(Metrics, DaemonServesTheMetricsVerb)
{
    // The `metrics` query verb rides the cell protocol: a daemon
    // (here handleCellLine itself, like --serve) answers with the
    // Prometheus exposition wrapped in the standard query reply.
    std::optional<std::string> reply =
        driver::handleCellLine("metrics prom");
    ASSERT_TRUE(reply.has_value());
    std::string error;
    auto doc = json::parse(*reply, &error);
    ASSERT_TRUE(doc.has_value()) << error;
    ASSERT_NE(doc->find("ok"), nullptr);
    EXPECT_TRUE(doc->find("ok")->boolean());
    const json::Value *text = doc->find("text");
    ASSERT_NE(text, nullptr);
    // Executor tests above have run cells through this process.
    EXPECT_NE(
        text->str().find("# TYPE l0vliw_driver_cells_executed_total"),
        std::string::npos);

    // Unknown formats are a structured error, not a sentinel outcome.
    reply = driver::handleCellLine("metrics yaml");
    ASSERT_TRUE(reply.has_value());
    doc = json::parse(*reply, &error);
    ASSERT_TRUE(doc.has_value()) << error;
    EXPECT_FALSE(doc->find("ok")->boolean());
}

// ---- the chaos soak ----

TEST(ChaosSoak, TwentySeedsBitIdenticalOrDiagnosedNeverHung)
{
    // The payoff of the whole reliability layer: 20 consecutive fault
    // seeds over a loopback distributed suite (faults hit both the
    // client and the daemon side of every stream). Every seed must
    // terminate in bounded wall-clock, and every cell must either be
    // bit-identical to the in-process reference or carry an explicit
    // failure reason. Corruption injects control bytes the JSON layer
    // rejects by construction, so a silently wrong cell is impossible
    // — this asserts it stays that way.
    Wave1 w1 = wave1("gsmdec");
    std::vector<CellJob> jobs;
    // Ids start at 1: a daemon that receives a corrupted frame replies
    // with a failed id-0 outcome, which must never match a real job.
    for (int i = 0; i < 4; ++i)
        jobs.push_back(
            makeJob(i + 1, "gsmdec", i % 2 ? "l0-4" : "l0-8", w1));

    ExecOptions inproc;
    inproc.jobs = 2;
    std::vector<CellOutcome> reference =
        driver::InProcessExecutor(inproc).execute(jobs);
    for (const CellOutcome &ref : reference)
        ASSERT_TRUE(ref.ok) << ref.error;

    net::FaultSpec spec;
    std::string specError;
    ASSERT_TRUE(net::FaultSpec::parse(
        "delay=0..5ms@0.25,drop@0.05,corrupt@0.05,stall@0.01,"
        "reset@0.05",
        spec, specError))
        << specError;

    // One daemon shared across every seed (its reads/writes go
    // through the same global plan, so faults are bidirectional) —
    // pipelined, so worker replies interleave under fire too.
    LoopbackDaemon daemon(/*dropEvery=*/0, /*workers=*/2);

    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        spec.seed = seed;
        auto start = std::chrono::steady_clock::now();
        std::vector<CellOutcome> outcomes;
        {
            net::ScopedFaultPlan chaos(spec);
            ExecOptions opts =
                tcpOpts({daemon.endpoint(), daemon.endpoint()},
                        /*maxRetries=*/4);
            // A full window in flight on every stream: any teardown
            // must re-queue or diagnose every windowed id — the
            // per-seed checks below catch a lost one as a missing
            // outcome.
            opts.window = 4;
            opts.retryBackoffMs = 2;
            opts.maxBackoffMs = 20;
            opts.cellTimeoutMs = 300;
            opts.heartbeatMs = 100;
            opts.degrade = driver::DegradeMode::Local;
            driver::RemoteExecutor exec(opts);
            outcomes = exec.execute(jobs);
        }
        double elapsedMs = elapsedMsSince(start);

        ASSERT_EQ(outcomes.size(), jobs.size()) << "seed " << seed;
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            if (outcomes[i].ok) {
                EXPECT_EQ(outcomes[i].id, jobs[i].id)
                    << "seed " << seed;
                expectRunsEqual(reference[i].run, outcomes[i].run);
            } else {
                // A diagnosed failure is acceptable; a silent wrong
                // answer or a missing reason is not.
                EXPECT_NE(outcomes[i].reason, FailReason::None)
                    << "seed " << seed << ": " << outcomes[i].error;
                EXPECT_FALSE(outcomes[i].error.empty())
                    << "seed " << seed;
            }
        }
        // "Never a hang": deadlines bound every attempt, so a whole
        // 4-cell grid under faults resolves in seconds.
        EXPECT_LT(elapsedMs, 60000.0) << "seed " << seed;
    }
}
