/**
 * @file
 * The result store (src/store): tolerant event decoding, EventLog
 * round-trip / reopen / index rebuild / torn-tail recovery, ingest
 * idempotency, the query protocol, chaos ingest over a faulty
 * connection, and the loopback end-to-end contract — one stored event
 * per dispatched cell and a latest-grid answer byte-identical to the
 * driver's own table. Plus sequence numbers and the retained-events
 * view, compaction (byte-identity, crash safety, the query verb,
 * --retain-runs), the max-connections nack, and the l0store client's
 * transport-failure exit code.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "driver/cli.hh"
#include "driver/executor.hh"
#include "driver/suite.hh"
#include "net/fault.hh"
#include "net/framing.hh"
#include "net/server.hh"
#include "net/socket.hh"
#include "store/event_log.hh"
#include "store/service.hh"

using namespace l0vliw;
using store::Event;
using store::EventLog;
using store::StoreService;

namespace
{

/** A per-test temp path for the log file (removed on destruction). */
class TempLog
{
  public:
    explicit TempLog(const char *tag)
        : path_("/tmp/l0vliw_store_" + std::string(tag) + "_"
                + std::to_string(getpid()) + ".ndjson")
    {
        std::remove(path_.c_str());
    }
    ~TempLog() { std::remove(path_.c_str()); }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** A publisher-shaped cell event line. */
std::string
cellLine(const std::string &suite, const std::string &rev,
         const std::string &run, std::uint64_t id,
         const std::string &bench, const std::string &arch, bool ok,
         std::uint64_t cycles)
{
    driver::CellOutcome outcome;
    outcome.id = id;
    outcome.ok = ok;
    if (!ok) {
        outcome.error = "synthetic failure";
        outcome.reason = FailReason::Timeout;
    }
    outcome.run.bench = bench;
    outcome.run.arch = arch;
    outcome.run.loopCompute = cycles;
    std::string line = "{\"event\":\"cell\",\"id\":"
                       + std::to_string(id)
                       + ",\"bench\":" + json::quote(bench)
                       + ",\"arch\":" + json::quote(arch)
                       + ",\"suite\":" + json::quote(suite)
                       + ",\"rev\":" + json::quote(rev)
                       + ",\"run\":" + json::quote(run) + ",\"ok\":";
    line += ok ? "true" : "false";
    if (!ok)
        line += ",\"reason\":\"timeout\"";
    line += ",\"attempts\":1,\"wallMs\":1.5,\"outcome\":"
            + outcome.toJson() + "}";
    return line;
}

/** Publish @p count cell frames (ids 1..count, bench-<id>) through
 *  @p sink. */
void
publishCells(driver::OutcomeStream &sink, int count)
{
    for (int i = 1; i <= count; ++i) {
        driver::CellJob job;
        job.id = static_cast<std::uint64_t>(i);
        job.bench = "bench-" + std::to_string(i);
        job.arch = "l0-8";
        driver::CellOutcome outcome;
        outcome.id = job.id;
        outcome.ok = true;
        outcome.run.bench = job.bench;
        outcome.run.arch = job.arch;
        outcome.run.loopCompute = 100u + static_cast<std::uint64_t>(i);
        sink.write(job, outcome, 1.0);
    }
}

/** A publisher-shaped grid frame. */
std::string
gridLine(const std::string &suite, const std::string &rev,
         const std::string &run, const ResultTable &table)
{
    return "{\"event\":\"grid\",\"suite\":" + json::quote(suite)
           + ",\"rev\":" + json::quote(rev)
           + ",\"run\":" + json::quote(run)
           + ",\"table\":" + tableToWireJson(table) + "}";
}

ResultTable
sampleTable()
{
    ResultTable t;
    t.title = "sample grid\n";
    t.footer = "footer line\n";
    t.header = {"benchmark", "norm", "hit%"};
    t.rows = {{CellValue::text("gsmdec"), CellValue::fixed(1.2345, 2),
               CellValue::percent(0.981, 1)},
              {CellValue::text("epicdec"), CellValue::fixed(0.75, 2),
               CellValue::percent(0.5, 1)}};
    return t;
}

/** Decode a query reply; fails the test on malformed framing. */
void
parseReply(const std::string &reply, bool &ok, int &exit,
           std::string &text, std::string &error)
{
    std::string parseError;
    std::optional<json::Value> doc = json::parse(reply, &parseError);
    ASSERT_TRUE(doc.has_value()) << parseError << ": " << reply;
    ASSERT_TRUE(doc->isObject());
    const json::Value *okField = doc->find("ok");
    ASSERT_NE(okField, nullptr);
    ok = okField->boolean();
    exit = 0;
    text.clear();
    error.clear();
    if (const json::Value *v = doc->find("exit"))
        exit = std::stoi(v->numberToken());
    if (const json::Value *v = doc->find("text"))
        text = v->str();
    if (const json::Value *v = doc->find("error"))
        error = v->str();
}

} // namespace

// ---- lossless table wire encoding ----

TEST(TableWire, RoundTripsByteIdentically)
{
    ResultTable t = sampleTable();
    t.rows.push_back({CellValue::text("ids"),
                      CellValue::integer(0xffffffffffffffffULL),
                      CellValue::fixed(1.0 / 3.0, 5)});
    // A hole and a mean flagged with the holes it left out.
    CellValue flagged = CellValue::percent(0.25, 1);
    flagged.setExcluded(2);
    t.rows.push_back({CellValue::text("holes"),
                      CellValue::failed("conn-reset"), flagged});
    std::string wire = tableToWireJson(t);
    ResultTable back;
    std::string error;
    ASSERT_TRUE(tableFromWireJson(wire, back, error)) << error;
    EXPECT_EQ(renderText(back), renderText(t));
    EXPECT_EQ(renderCsv(back), renderCsv(t));
    EXPECT_EQ(renderJson(back), renderJson(t));
    // And the wire form itself is stable across a round trip.
    EXPECT_EQ(tableToWireJson(back), wire);
}

TEST(TableWire, RejectsMalformedTables)
{
    ResultTable out;
    std::string error;
    EXPECT_FALSE(tableFromWireJson("not json", out, error));
    EXPECT_FALSE(tableFromWireJson("{\"title\":\"t\"}", out, error));
    EXPECT_FALSE(tableFromWireJson(
        "{\"title\":\"\",\"footer\":\"\",\"header\":[],"
        "\"rows\":[[{\"k\":\"f\",\"v\":\"oops\"}]]}",
        out, error));
    // Display digits are an integer in [0, 17].
    for (const char *d : {"-1", "99999999999", "18", "1.5"}) {
        EXPECT_FALSE(tableFromWireJson(
            std::string("{\"title\":\"\",\"footer\":\"\",")
                + "\"header\":[],\"rows\":[[{\"k\":\"f\",\"v\":1,"
                + "\"d\":" + d + "}]]}",
            out, error))
            << d;
        EXPECT_NE(error.find("'d'"), std::string::npos) << error;
    }
    // A hole's reason is a string; the excluded count a natural int.
    EXPECT_FALSE(tableFromWireJson(
        "{\"title\":\"\",\"footer\":\"\",\"header\":[],"
        "\"rows\":[[{\"k\":\"x\",\"v\":1}]]}",
        out, error));
    EXPECT_FALSE(tableFromWireJson(
        "{\"title\":\"\",\"footer\":\"\",\"header\":[],"
        "\"rows\":[[{\"k\":\"i\",\"v\":1,\"e\":-1}]]}",
        out, error));
}

// ---- event decoding ----

TEST(StoreEvent, DecodesPublisherCellEvents)
{
    Event e;
    std::string error;
    ASSERT_TRUE(Event::decode(
        cellLine("fig7", "abc123", "r1", 7, "gsmdec", "l0-8", true, 500),
        e, error))
        << error;
    EXPECT_EQ(e.kind, Event::Kind::Cell);
    EXPECT_EQ(e.suite, "fig7");
    EXPECT_EQ(e.rev, "abc123");
    EXPECT_EQ(e.run, "r1");
    EXPECT_EQ(e.id, 7u);
    EXPECT_EQ(e.bench, "gsmdec");
    EXPECT_EQ(e.arch, "l0-8");
    EXPECT_TRUE(e.ok);
    EXPECT_EQ(e.totalCycles, 500u);
}

TEST(StoreEvent, TolerantDecodeDefaultsIdentityAndTaxonomy)
{
    // A minimal pre-store event: no suite/rev/run, no reason, no
    // attempts, no outcome — still ingestable.
    Event e;
    std::string error;
    ASSERT_TRUE(Event::decode("{\"event\":\"cell\",\"id\":3,"
                              "\"bench\":\"b\",\"arch\":\"a\","
                              "\"ok\":true}",
                              e, error))
        << error;
    EXPECT_EQ(e.suite, "default");
    EXPECT_EQ(e.rev, "unknown");
    EXPECT_EQ(e.run, "adhoc");
    EXPECT_EQ(e.reason, FailReason::None);
    EXPECT_EQ(e.attempts, 1);
    EXPECT_EQ(e.totalCycles, 0u);

    // Unknown reason names decode to None (forward compatibility).
    ASSERT_TRUE(Event::decode("{\"event\":\"cell\",\"id\":4,"
                              "\"bench\":\"b\",\"arch\":\"a\","
                              "\"ok\":false,"
                              "\"reason\":\"flux-capacitor\"}",
                              e, error));
    EXPECT_EQ(e.reason, FailReason::None);
}

TEST(StoreEvent, RejectsMalformedEvents)
{
    Event e;
    std::string error;
    EXPECT_FALSE(Event::decode("not json", e, error));
    EXPECT_FALSE(Event::decode("{\"event\":\"dance\"}", e, error));
    EXPECT_FALSE(Event::decode("{\"event\":\"cell\",\"id\":1}", e,
                               error));
    EXPECT_FALSE(Event::decode("{\"event\":\"grid\"}", e, error));
    // Present fields obey the one number rule: no wrap, no narrowing.
    for (const char *field : {"\"id\":-1", "\"attempts\":4294967297"}) {
        EXPECT_FALSE(Event::decode(
            std::string("{\"event\":\"cell\",\"bench\":\"b\",")
                + "\"arch\":\"a\",\"ok\":true," + field + "}",
            e, error))
            << field;
    }
}

// ---- EventLog ----

TEST(EventLogTest, RoundTripReopenRebuildsIndex)
{
    TempLog log("roundtrip");
    ResultTable table = sampleTable();
    {
        EventLog store;
        std::string error;
        ASSERT_TRUE(store.open(log.path(), error)) << error;
        for (int i = 0; i < 4; ++i)
            ASSERT_EQ(store.ingest(
                          cellLine("s", "rev1", "r1", i + 1, "bench",
                                   "arch-" + std::to_string(i), true,
                                   100 * (i + 1)),
                          error),
                      EventLog::Ingest::Stored)
                << error;
        ASSERT_EQ(store.ingest(gridLine("s", "rev1", "r1", table),
                               error),
                  EventLog::Ingest::Stored)
            << error;
    }

    EventLog reopened;
    std::string error;
    ASSERT_TRUE(reopened.open(log.path(), error)) << error;
    EXPECT_EQ(reopened.replayed(), 5u);
    EXPECT_EQ(reopened.malformed(), 0u);
    EXPECT_EQ(reopened.truncatedTail(), 0u);

    const store::RunInfo *run = reopened.latestRun("s");
    ASSERT_NE(run, nullptr);
    EXPECT_EQ(run->run, "r1");
    EXPECT_EQ(run->rev, "rev1");
    EXPECT_EQ(run->cells.size(), 4u);
    EXPECT_EQ(run->failedCells(), 0u);
    ASSERT_TRUE(run->hasGrid);
    EXPECT_EQ(renderText(run->grid), renderText(table));
    auto cell = run->cells.find({"bench", "arch-2"});
    ASSERT_NE(cell, run->cells.end());
    EXPECT_EQ(cell->second.totalCycles, 300u);
}

TEST(EventLogTest, DuplicateIngestIsIdempotent)
{
    TempLog log("dedup");
    EventLog store;
    std::string error;
    ASSERT_TRUE(store.open(log.path(), error)) << error;

    std::string line = cellLine("s", "rev1", "r1", 1, "b", "a", true, 10);
    EXPECT_EQ(store.ingest(line, error), EventLog::Ingest::Stored);
    EXPECT_EQ(store.ingest(line, error), EventLog::Ingest::Duplicate);
    // Same id in a *different* run is not a duplicate.
    EXPECT_EQ(store.ingest(cellLine("s", "rev1", "r2", 1, "b", "a",
                                    true, 10),
                           error),
              EventLog::Ingest::Stored);

    std::string grid = gridLine("s", "rev1", "r1", sampleTable());
    EXPECT_EQ(store.ingest(grid, error), EventLog::Ingest::Stored);
    EXPECT_EQ(store.ingest(grid, error), EventLog::Ingest::Duplicate);

    const store::SuiteInfo *info = store.suite("s");
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->counters.cells, 2u);
    EXPECT_EQ(info->counters.duplicates, 2u);
    EXPECT_EQ(info->counters.grids, 1u);

    // Duplicates were not appended: a reopen replays exactly the
    // stored events.
    EventLog reopened;
    ASSERT_TRUE(reopened.open(log.path(), error)) << error;
    EXPECT_EQ(reopened.replayed(), 3u);
}

TEST(EventLogTest, TruncatedTailToleratedOnReopen)
{
    TempLog log("torn");
    std::string whole = cellLine("s", "rev1", "r1", 1, "b", "a", true, 7);
    {
        std::ofstream out(log.path());
        out << whole << "\n";
        // A crash mid-append: the second line never got its newline.
        out << "{\"event\":\"cell\",\"id\":2,\"bench\":\"b\"";
    }

    EventLog store;
    std::string error;
    ASSERT_TRUE(store.open(log.path(), error)) << error;
    EXPECT_EQ(store.replayed(), 1u);
    EXPECT_GT(store.truncatedTail(), 0u);
    // Appending after the repair works and lands on a clean boundary.
    ASSERT_EQ(store.ingest(cellLine("s", "rev1", "r1", 2, "b", "a2",
                                    true, 8),
                           error),
              EventLog::Ingest::Stored);

    EventLog reopened;
    ASSERT_TRUE(reopened.open(log.path(), error)) << error;
    EXPECT_EQ(reopened.replayed(), 2u);
    EXPECT_EQ(reopened.truncatedTail(), 0u);
    const store::RunInfo *run = reopened.latestRun("s");
    ASSERT_NE(run, nullptr);
    EXPECT_EQ(run->cells.size(), 2u);
}

TEST(EventLogTest, MalformedCompleteLinesAreSkippedNotDeleted)
{
    TempLog log("malformed");
    {
        std::ofstream out(log.path());
        out << "this is not an event\n";
        out << cellLine("s", "rev1", "r1", 1, "b", "a", true, 7) << "\n";
    }
    EventLog store;
    std::string error;
    ASSERT_TRUE(store.open(log.path(), error)) << error;
    EXPECT_EQ(store.replayed(), 1u);
    EXPECT_EQ(store.malformed(), 1u);

    // The log file keeps the malformed line: never rewrite history.
    std::ifstream in(log.path());
    std::string first;
    std::getline(in, first);
    EXPECT_EQ(first, "this is not an event");
}

// ---- the query protocol ----

TEST(StoreServiceTest, IngestAcksAndQueryProtocol)
{
    TempLog log("service");
    StoreService service;
    std::string error;
    ASSERT_TRUE(service.open(log.path(), error)) << error;

    // Heartbeat probes work against a store.
    EXPECT_EQ(service.handleLine(driver::kCellPingLine),
              std::string(driver::kCellPongLine));

    // Ingest acks: stored, duplicate, malformed.
    std::string line = cellLine("s", "revA", "r1", 1, "gsmdec", "l0-8",
                                true, 100);
    EXPECT_EQ(service.handleLine(line),
              "{\"event\":\"ack\",\"stored\":true}");
    EXPECT_EQ(service.handleLine(line),
              "{\"event\":\"ack\",\"stored\":false}");
    std::optional<std::string> nack =
        service.handleLine("{\"event\":\"dance\"}");
    ASSERT_TRUE(nack.has_value());
    EXPECT_NE(nack->find("\"event\":\"nack\""), std::string::npos);

    // Populate: run r1 at revA (1 more cell + grid), run r2 at revB
    // with one cell 50% slower and one failed.
    ResultTable table = sampleTable();
    service.handleLine(cellLine("s", "revA", "r1", 2, "epicdec", "l0-8",
                                true, 200));
    service.handleLine(gridLine("s", "revA", "r1", table));
    service.handleLine(cellLine("s", "revB", "r2", 1, "gsmdec", "l0-8",
                                true, 150));
    service.handleLine(cellLine("s", "revB", "r2", 2, "epicdec", "l0-8",
                                false, 0));

    bool ok;
    int exit;
    std::string text, queryError;

    // latest-grid: the stored table re-renders byte-identically.
    parseReply(*service.handleLine("latest-grid s"), ok, exit, text,
               queryError);
    ASSERT_TRUE(ok) << queryError;
    EXPECT_EQ(exit, 0);
    EXPECT_EQ(text, renderText(table));
    parseReply(*service.handleLine("latest-grid s csv"), ok, exit, text,
               queryError);
    ASSERT_TRUE(ok);
    EXPECT_EQ(text, renderCsv(table));
    parseReply(*service.handleLine("latest-grid nosuch"), ok, exit,
               text, queryError);
    EXPECT_FALSE(ok);

    // diff of a rev against itself: all zero, exit 0.
    parseReply(*service.handleLine("diff s revA revA"), ok, exit, text,
               queryError);
    ASSERT_TRUE(ok) << queryError;
    EXPECT_EQ(exit, 0);
    EXPECT_NE(text.find("PASS"), std::string::npos);

    // revB is 50% slower on gsmdec and failed on epicdec: both the
    // threshold and the incomparable cell fail the diff.
    parseReply(*service.handleLine("diff s revA revB 10"), ok, exit,
               text, queryError);
    ASSERT_TRUE(ok) << queryError;
    EXPECT_EQ(exit, 1);
    EXPECT_NE(text.find("50.00"), std::string::npos);
    EXPECT_NE(text.find("fail"), std::string::npos);
    // A threshold above the regression still fails on the failed cell.
    parseReply(*service.handleLine("diff s revA revB 80"), ok, exit,
               text, queryError);
    EXPECT_EQ(exit, 1);
    parseReply(*service.handleLine("diff s revA nosuchrev"), ok, exit,
               text, queryError);
    EXPECT_FALSE(ok);
    for (const char *bad : {"nan", "inf", "-1"}) {
        parseReply(*service.handleLine(std::string("diff s revA revB ")
                                       + bad),
                   ok, exit, text, queryError);
        EXPECT_FALSE(ok) << bad;
        EXPECT_NE(queryError.find("bad threshold"), std::string::npos)
            << queryError;
    }

    // runs: both runs listed in ingest order.
    parseReply(*service.handleLine("runs s"), ok, exit, text,
               queryError);
    ASSERT_TRUE(ok);
    EXPECT_NE(text.find("r1"), std::string::npos);
    EXPECT_NE(text.find("r2"), std::string::npos);
    EXPECT_NE(text.find("revB"), std::string::npos);

    // stats: the duplicate, the failure, and its taxonomy bucket.
    parseReply(*service.handleLine("stats"), ok, exit, text,
               queryError);
    ASSERT_TRUE(ok);
    EXPECT_NE(text.find("s"), std::string::npos);
    EXPECT_NE(text.find("timeout"), std::string::npos);

    parseReply(*service.handleLine("frobnicate"), ok, exit, text,
               queryError);
    EXPECT_FALSE(ok);
}

// ---- chaos ingest ----

TEST(StoreServiceTest, FaultyConnectionNeverCorruptsTheLog)
{
    TempLog log("chaos");
    StoreService service;
    std::string error;
    ASSERT_TRUE(service.open(log.path(), error)) << error;

    net::Server server;
    ASSERT_TRUE(server.start(0, service.handler(), error)) << error;

    // Corruption, resets, and delays — but no drops or stalls, which
    // only exercise the (slow) ack-deadline path, not log integrity.
    net::FaultSpec spec;
    std::string specError;
    ASSERT_TRUE(net::FaultSpec::parse(
        "seed=11,delay=0..2ms@0.2,corrupt@0.1,reset@0.05", spec,
        specError))
        << specError;

    const int published = 40;
    {
        net::ScopedFaultPlan faulty(spec);
        std::unique_ptr<driver::OutcomeStream> sink =
            driver::OutcomeStream::open(
                "tcp:127.0.0.1:" + std::to_string(server.port()),
                error);
        // The eager connect itself may be reset; retry a few times.
        for (int i = 0; sink == nullptr && i < 10; ++i)
            sink = driver::OutcomeStream::open(
                "tcp:127.0.0.1:" + std::to_string(server.port()),
                error);
        ASSERT_NE(sink, nullptr) << error;
        sink->setMeta("chaos", "rev1", "r1");
        publishCells(*sink, published);
        sink->writeGrid(sampleTable()); // settles every frame
        // A link that keeps breaking is retried frame by frame, so it
        // costs a few frames, not the window.
        EXPECT_LE(sink->dropped(), published / 4);
    }
    server.stop();

    // Whatever the faults did, the persisted log must be pristine:
    // every line decodes, nothing tore.
    EventLog reopened;
    ASSERT_TRUE(reopened.open(log.path(), error)) << error;
    EXPECT_EQ(reopened.malformed(), 0u);
    EXPECT_EQ(reopened.truncatedTail(), 0u);
    // And everything the store acked as stored is in the index.
    const store::SuiteInfo *info = reopened.suite("chaos");
    if (info != nullptr) {
        const store::RunInfo *run = info->findRun("r1");
        ASSERT_NE(run, nullptr);
        EXPECT_LE(run->cells.size(),
                  static_cast<std::size_t>(published));
        for (const auto &kv : run->cells)
            EXPECT_EQ(kv.second.totalCycles,
                      100u + std::stoul(kv.first.first.substr(6)));
    }
}

// ---- loopback end-to-end ----

TEST(StoreEndToEnd, LoopbackPublishMatchesInProcessGrid)
{
    // The reference: a small suite run entirely in-process.
    auto makeSpec = []() {
        driver::ExperimentSpec spec;
        spec.title = "e2e grid\n";
        spec.footer = "e2e footer\n";
        spec.benchmarks = {"stream-4", "reduce-2"};
        spec.archs = {"l0-2", "l0-8"};
        spec.columns = {driver::normalizedColumn("l0-2", 0),
                        driver::normalizedColumn("l0-8", 1)};
        return spec;
    };
    driver::Suite reference(makeSpec());
    driver::ExecOptions plain;
    ResultTable direct = reference.run(plain).render();

    // The store under test.
    TempLog log("e2e");
    StoreService service;
    std::string error;
    ASSERT_TRUE(service.open(log.path(), error)) << error;
    net::Server server;
    // The four-argument spelling (perfbench's store daemon uses it)
    // serves exactly like start(port, service.handler(), error).
    ASSERT_TRUE(server.start(0, service.sessionHandler(),
                             service.closedHandler(), error))
        << error;
    const std::string endpoint =
        "127.0.0.1:" + std::to_string(server.port());

    // Publish two identical runs at two revs (rev diffs need both).
    for (int pass = 0; pass < 2; ++pass) {
        std::unique_ptr<driver::OutcomeStream> sink =
            driver::OutcomeStream::open("tcp:" + endpoint, error);
        ASSERT_NE(sink, nullptr) << error;
        sink->setMeta("e2e", pass == 0 ? "revA" : "revB",
                      pass == 0 ? "runA" : "runB");
        driver::ExecOptions opts;
        opts.onOutcome = sink->callback();
        driver::Suite suite(makeSpec());
        ResultTable published = suite.run(opts).render();
        sink->writeGrid(published);
        EXPECT_EQ(sink->dropped(), 0);
        EXPECT_EQ(renderText(published), renderText(direct));
    }

    // Exactly one stored event per dispatched cell (2 benchmarks x
    // 2 architectures, plus each benchmark's unified baseline job),
    // per run — no duplicates, no losses.
    {
        const store::SuiteInfo *info = service.log().suite("e2e");
        ASSERT_NE(info, nullptr);
        EXPECT_EQ(info->counters.cells, 12u);
        EXPECT_EQ(info->counters.duplicates, 0u);
        EXPECT_EQ(info->counters.grids, 2u);
        EXPECT_EQ(info->counters.failed, 0u);
        for (const auto &runName : {"runA", "runB"}) {
            const store::RunInfo *run = info->findRun(runName);
            ASSERT_NE(run, nullptr);
            EXPECT_EQ(run->cells.size(), 6u);
        }
    }

    // Query over the real socket, like the l0store client does:
    // latest-grid must be byte-identical to the driver's own table.
    net::Fd conn = net::connectTcp("127.0.0.1", server.port(), error);
    ASSERT_TRUE(conn.valid()) << error;
    net::LineReader reader(conn.get());
    auto query = [&](const std::string &q) {
        EXPECT_TRUE(net::writeLine(conn.get(), q, error)) << error;
        std::string reply;
        EXPECT_EQ(reader.readLine(reply, error, 10000),
                  net::LineReader::Status::Line)
            << error;
        return reply;
    };

    bool ok;
    int exit;
    std::string text, queryError;
    parseReply(query("latest-grid e2e"), ok, exit, text, queryError);
    ASSERT_TRUE(ok) << queryError;
    EXPECT_EQ(exit, 0);
    EXPECT_EQ(text, renderText(direct));

    // A diff of the two identical runs: all-zero deltas, exit 0.
    parseReply(query("diff e2e revA revB"), ok, exit, text, queryError);
    ASSERT_TRUE(ok) << queryError;
    EXPECT_EQ(exit, 0);
    EXPECT_NE(text.find("PASS"), std::string::npos);

    conn.reset();
    server.stop();
}

/**
 * A --publish run with holes streams its cells but no grid frame, so
 * latest-grid keeps serving the previous complete run — no new field,
 * just SuiteInfo::latestGridRun's existing rule. The second run's
 * endpoint refuses every connection: its baselines fail, every cell is
 * a hole, and runSuiteMain returns the holes code.
 */
TEST(StoreEndToEnd, PublishedRunWithHolesLeavesLatestGridOnTheLastComplete)
{
    auto makeSpec = []() {
        driver::ExperimentSpec spec;
        spec.benchmarks = {"stream-4", "reduce-2"};
        spec.archs = {"l0-2", "l0-8"};
        spec.columns = {driver::normalizedColumn("l0-2", 0),
                        driver::normalizedColumn("l0-8", 1)};
        spec.meanRow = true;
        return spec;
    };
    driver::ExecOptions plain;
    const std::string direct =
        renderText(driver::Suite(makeSpec()).run(plain).render());

    TempLog log("holes");
    StoreService service;
    std::string error;
    ASSERT_TRUE(service.open(log.path(), error)) << error;
    net::Server server;
    ASSERT_TRUE(server.start(0, service.handler(), error)) << error;
    std::uint16_t dead = 0;
    {
        net::Fd listener = net::listenTcp(0, error, &dead);
        ASSERT_TRUE(listener.valid()) << error;
    }

    for (const char *runId : {"complete", "holes"}) {
        driver::CliOptions cli;
        cli.publish = "127.0.0.1:" + std::to_string(server.port());
        cli.suiteName = "holes";
        cli.rev = "revA";
        cli.runId = runId;
        cli.format = SinkFormat::Csv;
        const bool holes = std::string(runId) == "holes";
        if (holes) {
            cli.executor = driver::ExecBackend::Tcp;
            cli.connect = {"127.0.0.1:" + std::to_string(dead)};
        }
        EXPECT_EQ(driver::runSuiteMain(makeSpec(), cli),
                  holes ? driver::kExitHoles : 0)
            << runId;
    } // each run's publisher settles its frames as it closes

    const store::SuiteInfo *info = service.log().suite("holes");
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->counters.grids, 1u);
    // The holes run's two failed baselines were streamed as events.
    const store::RunInfo *holesRun = info->findRun("holes");
    ASSERT_NE(holesRun, nullptr);
    EXPECT_FALSE(holesRun->hasGrid);
    EXPECT_EQ(holesRun->cells.size(), 2u);
    EXPECT_EQ(holesRun->failedCells(), 2u);
    EXPECT_EQ(info->latestRun(), holesRun);
    ASSERT_NE(info->latestGridRun(), nullptr);
    EXPECT_EQ(info->latestGridRun()->run, "complete");

    std::optional<std::string> reply =
        service.handleLine("latest-grid holes");
    ASSERT_TRUE(reply.has_value());
    bool ok;
    int exit;
    std::string text, queryError;
    parseReply(*reply, ok, exit, text, queryError);
    ASSERT_TRUE(ok) << queryError;
    EXPECT_EQ(text, direct);
    server.stop();
}

// ---- the publisher's window ----

TEST(StoreEndToEnd, RestartMidWindowLosesNothingAndDoublesNothing)
{
    // A store that answers slower than the publisher sends, so the
    // publisher's window is full when the store goes away.
    TempLog log("restart");
    std::atomic<int> lines{0};
    auto slowly = [&lines](StoreService &service) {
        return [&service, &lines](const std::string &line) {
            lines.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            return service.handleLine(line);
        };
    };
    std::string error;
    auto first = std::make_unique<StoreService>();
    ASSERT_TRUE(first->open(log.path(), error)) << error;
    net::Server server;
    ASSERT_TRUE(server.start(0, slowly(*first), error)) << error;
    const std::uint16_t port = server.port();

    std::unique_ptr<driver::OutcomeStream> sink =
        driver::OutcomeStream::open(
            "tcp:127.0.0.1:" + std::to_string(port), error);
    ASSERT_NE(sink, nullptr) << error;
    sink->setMeta("restart", "rev1", "r1");
    const int kCells = 100; // more than one window
    publishCells(*sink, kCells);

    // Restart on the same port and log while frames are unacked.
    server.stop();
    first.reset();
    lines = 0;
    StoreService second;
    ASSERT_TRUE(second.open(log.path(), error)) << error;
    net::Server restarted;
    ASSERT_TRUE(restarted.start(port, slowly(second), error)) << error;

    ResultTable table = sampleTable();
    sink->writeGrid(table);
    EXPECT_EQ(sink->dropped(), 0);
    // The publisher came back and resent cells, not just the grid.
    EXPECT_EQ(restarted.connectionsAccepted(), 1);
    EXPECT_GT(lines.load(), 1);

    const store::SuiteInfo *info = second.log().suite("restart");
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->counters.cells, static_cast<std::uint64_t>(kCells));
    EXPECT_LE(info->counters.duplicates, 64u); // resends only
    EXPECT_EQ(info->counters.grids, 1u);
    const store::RunInfo *run = info->findRun("r1");
    ASSERT_NE(run, nullptr);
    EXPECT_EQ(run->seenIds.size(), static_cast<std::size_t>(kCells));
    ASSERT_EQ(run->cells.size(), static_cast<std::size_t>(kCells));
    for (int i = 1; i <= kCells; ++i)
        EXPECT_EQ(run->cells.count({"bench-" + std::to_string(i), "l0-8"}),
                  1u)
            << i;
    restarted.stop();

    // The log holds each cell once: a fresh replay agrees.
    EventLog reopened;
    ASSERT_TRUE(reopened.open(log.path(), error)) << error;
    ASSERT_NE(reopened.suite("restart"), nullptr);
    EXPECT_EQ(reopened.suite("restart")->counters.cells,
              static_cast<std::uint64_t>(kCells));

    bool ok;
    int exit;
    std::string text, queryError;
    parseReply(*second.handleLine("latest-grid restart"), ok, exit, text,
               queryError);
    ASSERT_TRUE(ok) << queryError;
    EXPECT_EQ(text, renderText(table));
}

TEST(StoreEndToEnd, AcksMatchByPositionAndANackSettlesOnlyItsFrame)
{
    // A raw store stand-in: nack every 5th line, ack the rest, in
    // order, a little slower than the publisher sends.
    std::mutex mutex;
    std::vector<std::string> seen;
    net::Server server;
    std::string error;
    ASSERT_TRUE(server.start(
        0,
        [&](const std::string &line) -> std::optional<std::string> {
            std::size_t n;
            {
                std::lock_guard<std::mutex> lock(mutex);
                seen.push_back(line);
                n = seen.size();
            }
            std::this_thread::sleep_for(std::chrono::microseconds(100));
            if (n % 5 == 0)
                return "{\"event\":\"nack\",\"error\":\"line "
                       + std::to_string(n) + "\"}";
            return std::string("{\"event\":\"ack\",\"stored\":true}");
        },
        error))
        << error;

    std::unique_ptr<driver::OutcomeStream> sink =
        driver::OutcomeStream::open(
            "tcp:127.0.0.1:" + std::to_string(server.port()), error);
    ASSERT_NE(sink, nullptr) << error;
    sink->setMeta("nacks", "rev1", "r1");
    const int kCells = 100;
    auto t0 = std::chrono::steady_clock::now();
    testing::internal::CaptureStderr();
    publishCells(*sink, kCells);
    sink->writeGrid(sampleTable());
    std::string warnings = testing::internal::GetCapturedStderr();
    auto elapsed = std::chrono::steady_clock::now() - t0;
    // writeGrid returned only after the last reply: every line was in.
    {
        std::lock_guard<std::mutex> lock(mutex);
        EXPECT_EQ(seen.size(), static_cast<std::size_t>(kCells + 1));
    }

    EXPECT_EQ(sink->dropped(), 0);
    // No ack went missing, so no deadline fired and nothing was resent.
    EXPECT_LT(elapsed, std::chrono::seconds(5));
    EXPECT_EQ(server.connectionsAccepted(), 1);
    {
        std::lock_guard<std::mutex> lock(mutex);
        ASSERT_EQ(seen.size(), static_cast<std::size_t>(kCells + 1));
        std::set<std::string> distinct(seen.begin(), seen.end());
        EXPECT_EQ(distinct.size(), seen.size());
    }
    // One warning per nack, in the order the store sent them.
    std::vector<std::string> nacked;
    for (std::size_t at = warnings.find("rejected a frame");
         at != std::string::npos;
         at = warnings.find("rejected a frame", at + 1)) {
        std::size_t line = warnings.find("line ", at);
        ASSERT_NE(line, std::string::npos);
        nacked.push_back(warnings.substr(
            line + 5, warnings.find('"', line) - line - 5));
    }
    std::vector<std::string> expected;
    for (int n = 5; n <= kCells + 1; n += 5)
        expected.push_back(std::to_string(n));
    EXPECT_EQ(nacked, expected) << warnings;
    server.stop();
}

// ---- sequencing and the retained-events view ----

namespace
{

std::uint64_t
fileSize(const std::string &path)
{
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0
               ? static_cast<std::uint64_t>(st.st_size)
               : 0;
}

} // namespace

TEST(EventLogTest, SequenceNumbersAndRetainedEvents)
{
    TempLog log("seq");
    std::vector<std::string> lines = {
        cellLine("s", "rev1", "r1", 1, "b", "a1", true, 10),
        cellLine("s", "rev1", "r1", 2, "b", "a2", true, 20),
        gridLine("s", "rev1", "r1", sampleTable()),
    };
    {
        EventLog store;
        std::string error;
        ASSERT_TRUE(store.open(log.path(), error)) << error;
        EXPECT_EQ(store.latestSeq(), 0u);
        for (const auto &line : lines)
            ASSERT_EQ(store.ingest(line, error),
                      EventLog::Ingest::Stored)
                << error;
        EXPECT_EQ(store.latestSeq(), 3u);

        // The retained view: verbatim lines in sequence order, and a
        // dedup-dropped resend neither bumps the counter nor appends.
        ASSERT_EQ(store.events().size(), 3u);
        for (std::size_t i = 0; i < lines.size(); ++i) {
            EXPECT_EQ(store.events()[i].seq, i + 1);
            EXPECT_EQ(store.events()[i].line, lines[i]);
            EXPECT_EQ(store.events()[i].suite, "s");
            EXPECT_EQ(store.events()[i].run, "r1");
        }
        EXPECT_EQ(store.ingest(lines[0], error),
                  EventLog::Ingest::Duplicate);
        EXPECT_EQ(store.latestSeq(), 3u);
        EXPECT_EQ(store.events().size(), 3u);
    }

    // Sequence numbers are not persisted: a reopen renumbers from 1
    // in replay order, which reproduces them exactly for an intact
    // log.
    EventLog reopened;
    std::string error;
    ASSERT_TRUE(reopened.open(log.path(), error)) << error;
    EXPECT_EQ(reopened.latestSeq(), 3u);
    ASSERT_EQ(reopened.events().size(), 3u);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        EXPECT_EQ(reopened.events()[i].seq, i + 1);
        EXPECT_EQ(reopened.events()[i].line, lines[i]);
    }
}

// ---- retention / compaction ----

TEST(EventLogTest, CompactKeepsNewestRunsByteIdentically)
{
    TempLog log("compact");
    EventLog store;
    std::string error;
    ASSERT_TRUE(store.open(log.path(), error)) << error;

    // Three runs in "s" (each with a distinct grid), one in "t".
    for (int r = 1; r <= 3; ++r) {
        std::string run = "r" + std::to_string(r);
        for (int c = 1; c <= 2; ++c)
            ASSERT_EQ(store.ingest(cellLine("s", "rev" + run, run, c,
                                            "b", "a" + std::to_string(c),
                                            true, 100 * r + c),
                                   error),
                      EventLog::Ingest::Stored);
        ResultTable table = sampleTable();
        table.title = "grid of " + run + "\n";
        ASSERT_EQ(store.ingest(gridLine("s", "rev" + run, run, table),
                               error),
                  EventLog::Ingest::Stored);
    }
    ASSERT_EQ(store.ingest(cellLine("t", "revT", "rt", 1, "b", "a",
                                    true, 7),
                           error),
              EventLog::Ingest::Stored);

    const std::uint64_t seqBefore = store.latestSeq();
    const std::uint64_t sizeBefore = fileSize(log.path());
    const std::string gridBefore =
        renderText(store.latestRun("s")->grid);
    std::vector<std::uint64_t> keptSeqs;
    for (const auto &event : store.events())
        if (event.suite == "t" || event.run != "r1")
            keptSeqs.push_back(event.seq);

    EventLog::CompactStats stats;
    ASSERT_TRUE(store.compact(2, stats, error)) << error;
    EXPECT_EQ(stats.droppedRuns, 1u);  // s/r1
    EXPECT_EQ(stats.droppedEvents, 3u);
    EXPECT_EQ(stats.keptEvents, 7u);
    EXPECT_LT(stats.bytesAfter, stats.bytesBefore);
    EXPECT_EQ(stats.bytesBefore, sizeBefore);
    EXPECT_EQ(fileSize(log.path()), stats.bytesAfter);

    // Sequence numbers of the kept events are preserved — the seq
    // range the stats footer reports survives compaction.
    EXPECT_EQ(store.latestSeq(), seqBefore);
    ASSERT_EQ(store.events().size(), keptSeqs.size());
    for (std::size_t i = 0; i < keptSeqs.size(); ++i)
        EXPECT_EQ(store.events()[i].seq, keptSeqs[i]);

    // Queries over the kept runs answer byte-identically; the
    // dropped run is gone.
    const store::SuiteInfo *info = store.suite("s");
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->runs.size(), 2u);
    EXPECT_EQ(info->findRun("r1"), nullptr);
    EXPECT_EQ(renderText(store.latestRun("s")->grid), gridBefore);
    ASSERT_NE(store.latestRun("t"), nullptr);

    // Appends resume on the new file, and a reopen replays exactly
    // the kept events plus the new one.
    ASSERT_EQ(store.ingest(cellLine("s", "revr3", "r3", 9, "b", "a9",
                                    true, 999),
                           error),
              EventLog::Ingest::Stored);
    EventLog reopened;
    ASSERT_TRUE(reopened.open(log.path(), error)) << error;
    EXPECT_EQ(reopened.replayed(), stats.keptEvents + 1);
    EXPECT_EQ(reopened.malformed(), 0u);
    EXPECT_EQ(renderText(reopened.latestRun("s")->grid), gridBefore);
}

TEST(EventLogTest, CompactCrashSafetyStaleTempIgnored)
{
    // A crash after writing the temp but before the rename: the next
    // open must serve the *old* complete log — the temp is garbage —
    // and remove it so a later compact starts clean.
    TempLog log("crashsafe");
    const std::string temp = log.path() + ".compact";
    std::vector<std::string> lines = {
        cellLine("s", "rev1", "r1", 1, "b", "a1", true, 10),
        cellLine("s", "rev1", "r2", 1, "b", "a1", true, 20),
    };
    {
        std::ofstream out(log.path());
        for (const auto &line : lines)
            out << line << "\n";
        // The interrupted compaction: a subset, torn mid-line.
        std::ofstream tmp(temp);
        tmp << lines[1] << "\n";
        tmp << lines[1].substr(0, 25);
    }

    EventLog store;
    std::string error;
    ASSERT_TRUE(store.open(log.path(), error)) << error;
    EXPECT_NE(::access(temp.c_str(), F_OK), 0)
        << "stale compaction temp not removed";
    // Zero lost events: the uncompacted log is what counts.
    EXPECT_EQ(store.replayed(), 2u);
    EXPECT_EQ(store.truncatedTail(), 0u);
    const store::SuiteInfo *info = store.suite("s");
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->runs.size(), 2u);
    std::remove(temp.c_str());
}

TEST(StoreServiceTest, CompactQueryVerbAndRetainRuns)
{
    TempLog log("compactverb");
    StoreService service;
    service.setRetainRuns(2);
    std::string error;
    ASSERT_TRUE(service.open(log.path(), error)) << error;

    ResultTable table = sampleTable();
    for (int r = 1; r <= 3; ++r) {
        std::string run = "r" + std::to_string(r);
        service.handleLine(cellLine("s", "rev" + run, run, 1, "b", "a",
                                    true, 100 * r));
        service.handleLine(gridLine("s", "rev" + run, run, table));
    }
    // --retain-runs auto-compacted down to 2 as the third run landed.
    const store::SuiteInfo *info = service.log().suite("s");
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->runs.size(), 2u);
    EXPECT_EQ(info->findRun("r1"), nullptr);

    bool ok;
    int exit;
    std::string text, queryError;
    parseReply(*service.handleLine("latest-grid s"), ok, exit, text,
               queryError);
    ASSERT_TRUE(ok) << queryError;
    const std::string gridBefore = text;

    // A keep count past int range is refused, not narrowed to 1.
    parseReply(*service.handleLine("compact 4294967297"), ok, exit, text,
               queryError);
    EXPECT_FALSE(ok);
    parseReply(*service.handleLine("runs s"), ok, exit, text,
               queryError);
    ASSERT_TRUE(ok) << queryError;
    EXPECT_NE(text.find("r2"), std::string::npos) << text;
    EXPECT_NE(text.find("r3"), std::string::npos) << text;

    // The query verb compacts further; latest-grid stays identical.
    parseReply(*service.handleLine("compact 1"), ok, exit, text,
               queryError);
    ASSERT_TRUE(ok) << queryError;
    EXPECT_EQ(exit, 0);
    EXPECT_NE(text.find("compacted: kept"), std::string::npos);
    EXPECT_EQ(service.log().suite("s")->runs.size(), 1u);
    parseReply(*service.handleLine("latest-grid s"), ok, exit, text,
               queryError);
    ASSERT_TRUE(ok) << queryError;
    EXPECT_EQ(text, gridBefore);

    // Argument validation.
    parseReply(*service.handleLine("compact 0"), ok, exit, text,
               queryError);
    EXPECT_FALSE(ok);
    parseReply(*service.handleLine("compact"), ok, exit, text,
               queryError);
    EXPECT_FALSE(ok);
}

TEST(StoreServiceTest, StatsFooterAndMetricsVerb)
{
    TempLog log("metricsverb");
    StoreService service;
    service.setRetainRuns(2);
    std::string error;
    ASSERT_TRUE(service.open(log.path(), error)) << error;

    ResultTable table = sampleTable();
    for (int r = 1; r <= 3; ++r) {
        std::string run = "r" + std::to_string(r);
        service.handleLine(cellLine("s", "rev" + run, run, 1, "b", "a",
                                    true, 100 * r));
        service.handleLine(gridLine("s", "rev" + run, run, table));
    }

    // The stats footer reports the live log size (which must agree
    // with the file), the retained global seq range, and the one
    // auto-compaction the third run triggered.
    bool ok;
    int exit;
    std::string text, queryError;
    parseReply(*service.handleLine("stats"), ok, exit, text,
               queryError);
    ASSERT_TRUE(ok) << queryError;
    EXPECT_EQ(service.log().bytes(), fileSize(log.path()));
    EXPECT_NE(text.find("log "
                        + std::to_string(service.log().bytes())
                        + " byte(s)"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("seq "
                        + std::to_string(service.log().firstSeq())
                        + ".."
                        + std::to_string(service.log().latestSeq())),
              std::string::npos)
        << text;
    EXPECT_GT(service.log().firstSeq(), 1u)
        << "compaction dropped the oldest run";
    EXPECT_NE(text.find("1 compaction(s)"), std::string::npos) << text;

    // The metrics verb answers with the Prometheus exposition through
    // the same reply envelope as every other query.
    parseReply(*service.handleLine("metrics"), ok, exit, text,
               queryError);
    ASSERT_TRUE(ok) << queryError;
    EXPECT_EQ(exit, 0);
    EXPECT_NE(text.find("# TYPE l0vliw_store_ingest_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("l0vliw_store_ingest_total{result=\"stored\"}"),
              std::string::npos);
    EXPECT_NE(text.find("l0vliw_store_log_bytes"), std::string::npos);

    parseReply(*service.handleLine("metrics table"), ok, exit, text,
               queryError);
    ASSERT_TRUE(ok) << queryError;
    parseReply(*service.handleLine("metrics yaml"), ok, exit, text,
               queryError);
    EXPECT_FALSE(ok);

    // The unknown-verb help now advertises it.
    parseReply(*service.handleLine("frobnicate"), ok, exit, text,
               queryError);
    EXPECT_FALSE(ok);
    EXPECT_NE(queryError.find("metrics"), std::string::npos);
}

// ---- the max-connections guard ----

TEST(StoreServiceTest, MaxConnectionsRejectsWithNack)
{
    TempLog log("maxconns");
    StoreService service;
    std::string error;
    ASSERT_TRUE(service.open(log.path(), error)) << error;
    net::Server server;
    server.setMaxConnections(1, StoreService::connectionLimitNack(1));
    ASSERT_TRUE(server.start(0, service.handler(), error)) << error;

    // The first connection takes the slot...
    net::Fd first = net::connectTcp("127.0.0.1", server.port(), error);
    ASSERT_TRUE(first.valid()) << error;
    net::LineReader firstReader(first.get());
    std::string reply;
    ASSERT_TRUE(net::writeLine(first.get(), driver::kCellPingLine,
                               error));
    ASSERT_EQ(firstReader.readLine(reply, error, 5000),
              net::LineReader::Status::Line);
    EXPECT_EQ(reply, driver::kCellPongLine);

    // ...the second is told why and closed (reject, don't queue). The
    // nack arrives at accept, before the client says anything.
    net::Fd second = net::connectTcp("127.0.0.1", server.port(), error);
    ASSERT_TRUE(second.valid()) << error;
    net::LineReader secondReader(second.get());
    ASSERT_EQ(secondReader.readLine(reply, error, 5000),
              net::LineReader::Status::Line);
    EXPECT_NE(reply.find("\"event\":\"nack\""), std::string::npos);
    EXPECT_NE(reply.find("connection limit reached (1)"),
              std::string::npos);
    EXPECT_EQ(secondReader.readLine(reply, error, 5000),
              net::LineReader::Status::Eof);

    // Closing the first frees the slot (the server notices the close
    // asynchronously; retry until it has). A refused retry gets its
    // nack at once; an admitted one hears nothing until it pings.
    first.reset();
    bool freed = false;
    for (int i = 0; i < 100 && !freed; ++i) {
        net::Fd retry = net::connectTcp("127.0.0.1", server.port(),
                                        error);
        ASSERT_TRUE(retry.valid()) << error;
        net::LineReader retryReader(retry.get());
        if (retryReader.readLine(reply, error, 100)
            == net::LineReader::Status::Line) {
            EXPECT_NE(reply.find("connection limit reached"),
                      std::string::npos);
            retry.reset();
            usleep(10000);
            continue;
        }
        ASSERT_TRUE(net::writeLine(retry.get(), driver::kCellPingLine,
                                   error));
        ASSERT_EQ(retryReader.readLine(reply, error, 5000),
                  net::LineReader::Status::Line);
        freed = reply == driver::kCellPongLine;
    }
    EXPECT_TRUE(freed);
    server.stop();
}

// ---- the client's transport-failure exit code ----

TEST(QueryCliTest, DeadEndpointExitsTwo)
{
    // src/store/README.md: exit 2 is reserved for transport/protocol
    // failure, distinct from a diff verdict (1) — what lets CI tell
    // "store unreachable" from "regression found". Port 1 on loopback
    // refuses the connect.
    int rc = std::system(L0STORE_BIN
                         " query 127.0.0.1:1 stats >/dev/null 2>&1");
    ASSERT_TRUE(WIFEXITED(rc));
    EXPECT_EQ(WEXITSTATUS(rc), 2);

    // A malformed endpoint fails the same way, before any socket.
    rc = std::system(L0STORE_BIN
                     " query not-an-endpoint stats >/dev/null 2>&1");
    ASSERT_TRUE(WIFEXITED(rc));
    EXPECT_EQ(WEXITSTATUS(rc), 2);
}
