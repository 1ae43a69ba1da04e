/**
 * @file
 * The result store (src/store): tolerant event decoding, EventLog
 * round-trip / reopen / index rebuild / torn-tail recovery, ingest
 * idempotency, the query protocol, chaos ingest over a faulty
 * connection, and the loopback end-to-end contract — one stored event
 * per dispatched cell and a latest-grid answer byte-identical to the
 * driver's own table. Plus the observability surface underneath
 * src/obs: sequence numbers and the retained-events view, compaction
 * (byte-identity, crash safety, the query verb, --retain-runs), the
 * subscription channel (replay + live push, the slow-subscriber
 * disconnect, the max-connections nack), and the l0store client's
 * transport-failure exit code.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
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
        exit = static_cast<int>(v->asI64());
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

    int published = 0;
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

        for (int i = 0; i < 40; ++i) {
            driver::CellJob job;
            job.id = static_cast<std::uint64_t>(i + 1);
            job.bench = "bench-" + std::to_string(i);
            job.arch = "l0-8";
            driver::CellOutcome outcome;
            outcome.id = job.id;
            outcome.ok = true;
            outcome.run.bench = job.bench;
            outcome.run.arch = job.arch;
            outcome.run.loopCompute = 100 + i;
            sink->write(job, outcome, 1.0);
            ++published;
        }
        EXPECT_LE(sink->dropped(), published);
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
    ASSERT_TRUE(server.start(0, service.handler(), error)) << error;
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

    // Sequence numbers of the kept events are preserved — a live
    // subscriber's resume coordinate survives compaction.
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

    // Argument validation, and subscribe needs a session connection.
    parseReply(*service.handleLine("compact 0"), ok, exit, text,
               queryError);
    EXPECT_FALSE(ok);
    parseReply(*service.handleLine("compact"), ok, exit, text,
               queryError);
    EXPECT_FALSE(ok);
    parseReply(*service.handleLine("subscribe s"), ok, exit, text,
               queryError);
    EXPECT_FALSE(ok);
    EXPECT_NE(queryError.find("session"), std::string::npos);
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

// ---- the subscription channel ----

namespace
{

/** Read one subscription frame and parse it (fails the test on a
 *  non-line status or malformed JSON). */
json::Value
readFrame(net::LineReader &reader, int deadlineMs = 5000)
{
    std::string line, error;
    EXPECT_EQ(reader.readLine(line, error, deadlineMs),
              net::LineReader::Status::Line)
        << error;
    std::optional<json::Value> doc = json::parse(line, &error);
    EXPECT_TRUE(doc.has_value()) << error << ": " << line;
    return doc.value_or(json::Value());
}

std::string
frameEvent(const json::Value &doc)
{
    const json::Value *event = doc.find("event");
    return event != nullptr && event->isString() ? event->str()
                                                 : std::string();
}

} // namespace

TEST(StoreServiceTest, SubscribeReplaysThenPushesLive)
{
    TempLog log("subscribe");
    StoreService service;
    std::string error;
    ASSERT_TRUE(service.open(log.path(), error)) << error;
    net::Server server;
    ASSERT_TRUE(server.start(0, service.sessionHandler(),
                             service.closedHandler(), error))
        << error;

    // Two events stored before anyone subscribes...
    std::vector<std::string> lines = {
        cellLine("s", "rev1", "r1", 1, "b", "a1", true, 10),
        cellLine("s", "rev1", "r1", 2, "b", "a2", true, 20),
    };
    net::Fd pub = net::connectTcp("127.0.0.1", server.port(), error);
    ASSERT_TRUE(pub.valid()) << error;
    net::LineReader pubReader(pub.get());
    std::string reply;
    for (const auto &line : lines) {
        ASSERT_TRUE(net::writeLine(pub.get(), line, error)) << error;
        ASSERT_EQ(pubReader.readLine(reply, error, 5000),
                  net::LineReader::Status::Line);
        EXPECT_EQ(reply, "{\"event\":\"ack\",\"stored\":true}");
    }

    // ...are replayed in order inside the handshake.
    net::Fd sub = net::connectTcp("127.0.0.1", server.port(), error);
    ASSERT_TRUE(sub.valid()) << error;
    net::LineReader subReader(sub.get());
    ASSERT_TRUE(net::writeLine(sub.get(), "subscribe s", error));
    json::Value doc = readFrame(subReader);
    EXPECT_EQ(frameEvent(doc), "subscribed");
    EXPECT_EQ(doc.find("suite")->str(), "s");
    EXPECT_EQ(doc.find("latest")->asI64(), 2);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        doc = readFrame(subReader);
        EXPECT_EQ(frameEvent(doc), "push");
        EXPECT_EQ(doc.find("seq")->asI64(),
                  static_cast<std::int64_t>(i + 1));
        // The stored line rides spliced in verbatim.
        const json::Value *data = doc.find("data");
        ASSERT_NE(data, nullptr);
        EXPECT_EQ(data->find("bench")->str(), "b");
    }
    doc = readFrame(subReader);
    EXPECT_EQ(frameEvent(doc), "caught-up");
    EXPECT_EQ(doc.find("seq")->asI64(), 2);

    // A newly-ingested event for the suite arrives as a live push;
    // one for another suite does not.
    ASSERT_TRUE(net::writeLine(
        pub.get(), cellLine("other", "rev1", "r1", 1, "b", "a", true, 5),
        error));
    ASSERT_EQ(pubReader.readLine(reply, error, 5000),
              net::LineReader::Status::Line);
    ASSERT_TRUE(net::writeLine(
        pub.get(), cellLine("s", "rev1", "r1", 3, "b", "a3", true, 30),
        error));
    ASSERT_EQ(pubReader.readLine(reply, error, 5000),
              net::LineReader::Status::Line);
    doc = readFrame(subReader);
    EXPECT_EQ(frameEvent(doc), "push");
    EXPECT_EQ(doc.find("seq")->asI64(), 4);
    EXPECT_EQ(doc.find("data")->find("arch")->str(), "a3");

    // A second subscribe on the same connection is refused.
    ASSERT_TRUE(net::writeLine(sub.get(), "subscribe s", error));
    doc = readFrame(subReader);
    EXPECT_FALSE(doc.find("ok")->boolean());

    // Resume: `from-seq` replays only the suffix.
    net::Fd resume = net::connectTcp("127.0.0.1", server.port(), error);
    ASSERT_TRUE(resume.valid()) << error;
    net::LineReader resumeReader(resume.get());
    ASSERT_TRUE(net::writeLine(resume.get(), "subscribe s from-seq 4",
                               error));
    doc = readFrame(resumeReader);
    EXPECT_EQ(frameEvent(doc), "subscribed");
    EXPECT_EQ(doc.find("from")->asI64(), 4);
    doc = readFrame(resumeReader);
    EXPECT_EQ(frameEvent(doc), "push");
    EXPECT_EQ(doc.find("seq")->asI64(), 4);
    doc = readFrame(resumeReader);
    EXPECT_EQ(frameEvent(doc), "caught-up");

    resume.reset();
    sub.reset();
    pub.reset();
    server.stop();
}

TEST(StoreServiceTest, SlowSubscriberIsDisconnectedNotBlockingIngest)
{
    TempLog log("slowsub");
    StoreService service;
    // A tiny live-feed bound so the stall surfaces quickly.
    service.setOutboxCap(8);
    std::string error;
    ASSERT_TRUE(service.open(log.path(), error)) << error;
    net::Server server;
    ASSERT_TRUE(server.start(0, service.sessionHandler(),
                             service.closedHandler(), error))
        << error;

    // The stalled subscriber: a socket with a tiny receive buffer
    // (set before connect, so the advertised window stays small) that
    // subscribes and then never reads. Kernel buffers absorb the
    // first frames; after that the writer blocks and the outbox
    // fills.
    int raw = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(raw, 0);
    int rcvbuf = 4096;
    ASSERT_EQ(::setsockopt(raw, SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                           sizeof(rcvbuf)),
              0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(raw, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    net::Fd sub(raw);
    ASSERT_TRUE(net::writeLine(sub.get(), "subscribe slow", error));

    // Publish fat events (a ~16 KiB pad the tolerant decoder ignores)
    // and demand a prompt ack for every one: if the fanout ever
    // waited on the stalled subscriber, an ack would stall with it.
    // The backlog must beat the kernel, not just the outbox: with the
    // subscriber not reading, loopback TCP still buffers ~3 MiB (the
    // sender's sndbuf autotunes to 4 MiB however small the peer's
    // window is), so push ~7.5 MiB to guarantee the writer blocks and
    // the live feed overruns the bound.
    constexpr int kEvents = 480;
    net::Fd pub = net::connectTcp("127.0.0.1", server.port(), error);
    ASSERT_TRUE(pub.valid()) << error;
    net::LineReader pubReader(pub.get());
    const std::string pad(16000, 'x');
    std::string reply;
    for (int i = 0; i < kEvents; ++i) {
        std::string line = cellLine("slow", "rev1", "r1",
                                    static_cast<std::uint64_t>(i + 1),
                                    "b", "a" + std::to_string(i), true,
                                    100);
        line.insert(line.size() - 1, ",\"pad\":\"" + pad + "\"");
        ASSERT_TRUE(net::writeLine(pub.get(), line, error)) << error;
        auto start = std::chrono::steady_clock::now();
        ASSERT_EQ(pubReader.readLine(reply, error, 5000),
                  net::LineReader::Status::Line)
            << "ack " << i << " stalled: " << error;
        EXPECT_EQ(reply, "{\"event\":\"ack\",\"stored\":true}");
        EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count(),
                  2000)
            << "ack " << i << " was not prompt";
    }

    // And the slow consumer was disconnected, not waited for: its
    // stream ends (after whatever the kernel buffered) instead of
    // carrying all the pushes.
    net::LineReader subReader(sub.get());
    int frames = 0;
    net::LineReader::Status status;
    for (;;) {
        std::string line;
        status = subReader.readLine(line, error, 10000);
        if (status != net::LineReader::Status::Line)
            break;
        ++frames;
        ASSERT_LT(frames, kEvents + 2) << "subscriber was never cut "
                                          "off";
    }
    EXPECT_NE(status, net::LineReader::Status::Timeout);
    EXPECT_LT(frames, kEvents + 2); // a buffered prefix, not all

    sub.reset();
    pub.reset();
    server.stop();
}

TEST(StoreServiceTest, MaxConnectionsRejectsWithNack)
{
    TempLog log("maxconns");
    StoreService service;
    service.setMaxConnections(1);
    std::string error;
    ASSERT_TRUE(service.open(log.path(), error)) << error;
    net::Server server;
    ASSERT_TRUE(server.start(0, service.sessionHandler(),
                             service.closedHandler(), error))
        << error;

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

    // ...the second is told why and closed (reject, don't queue).
    net::Fd second = net::connectTcp("127.0.0.1", server.port(), error);
    ASSERT_TRUE(second.valid()) << error;
    net::LineReader secondReader(second.get());
    ASSERT_TRUE(net::writeLine(second.get(), driver::kCellPingLine,
                               error));
    ASSERT_EQ(secondReader.readLine(reply, error, 5000),
              net::LineReader::Status::Line);
    EXPECT_NE(reply.find("\"event\":\"nack\""), std::string::npos);
    EXPECT_NE(reply.find("connection limit reached (1)"),
              std::string::npos);
    EXPECT_EQ(secondReader.readLine(reply, error, 5000),
              net::LineReader::Status::Eof);

    // Closing the first frees the slot (the closed callback runs
    // asynchronously; retry until it has).
    first.reset();
    bool freed = false;
    for (int i = 0; i < 100 && !freed; ++i) {
        net::Fd retry = net::connectTcp("127.0.0.1", server.port(),
                                        error);
        ASSERT_TRUE(retry.valid()) << error;
        net::LineReader retryReader(retry.get());
        ASSERT_TRUE(net::writeLine(retry.get(), driver::kCellPingLine,
                                   error));
        ASSERT_EQ(retryReader.readLine(reply, error, 5000),
                  net::LineReader::Status::Line);
        freed = reply == driver::kCellPongLine;
        retry.reset();
        if (!freed)
            usleep(10000);
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
