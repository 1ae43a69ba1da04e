/**
 * @file
 * The live-observability subsystem (src/obs): LiveGrid's fold of the
 * subscription channel — exactly-once via sequence dedup, the
 * in-flight view, the stored-grid byte-identity contract, the
 * lost-history reset — the renderers, and the Watcher end to end
 * against a real session-mode store: a clean session, and a chaos
 * soak under injected resets and corruption proving each stored event
 * lands exactly once across any number of reconnects.
 */

#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "driver/executor.hh"
#include "net/fault.hh"
#include "net/framing.hh"
#include "net/server.hh"
#include "net/socket.hh"
#include "obs/live_grid.hh"
#include "obs/watch.hh"
#include "store/service.hh"

using namespace l0vliw;
using obs::LiveGrid;
using obs::Watcher;
using store::StoreService;

namespace
{

/** A per-test temp path for the log file (removed on destruction). */
class TempLog
{
  public:
    explicit TempLog(const char *tag)
        : path_("/tmp/l0vliw_obs_" + std::string(tag) + "_"
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
cellLine(const std::string &suite, const std::string &run,
         std::uint64_t id, const std::string &bench,
         const std::string &arch, bool ok, std::uint64_t cycles)
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
    std::string line =
        "{\"event\":\"cell\",\"id\":" + std::to_string(id)
        + ",\"bench\":" + json::quote(bench)
        + ",\"arch\":" + json::quote(arch)
        + ",\"suite\":" + json::quote(suite)
        + ",\"rev\":\"rev1\",\"run\":" + json::quote(run) + ",\"ok\":";
    line += ok ? "true" : "false";
    if (!ok)
        line += ",\"reason\":\"timeout\"";
    line += ",\"attempts\":1,\"wallMs\":1.5,\"outcome\":"
            + outcome.toJson() + "}";
    return line;
}

std::string
gridLine(const std::string &suite, const std::string &run,
         const ResultTable &table)
{
    return "{\"event\":\"grid\",\"suite\":" + json::quote(suite)
           + ",\"rev\":\"rev1\",\"run\":" + json::quote(run)
           + ",\"table\":" + tableToWireJson(table) + "}";
}

ResultTable
sampleTable()
{
    ResultTable t;
    t.title = "sample grid\n";
    t.footer = "footer line\n";
    t.header = {"benchmark", "norm"};
    t.rows = {{CellValue::text("gsmdec"), CellValue::fixed(1.23, 2)},
              {CellValue::text("epicdec"), CellValue::fixed(0.75, 2)}};
    return t;
}

/** Wrap a stored line as the channel's push frame. */
std::string
pushFrame(std::uint64_t seq, const std::string &line)
{
    return "{\"event\":\"push\",\"seq\":" + std::to_string(seq)
           + ",\"data\":" + line + "}";
}

} // namespace

// ---- the fold ----

TEST(LiveGridTest, FoldsReplayIntoLiveViewExactlyOnce)
{
    LiveGrid grid("s");
    std::string error;

    EXPECT_EQ(grid.applyFrame("{\"event\":\"subscribed\",\"suite\":"
                              "\"s\",\"from\":0,\"latest\":3}",
                              error),
              LiveGrid::Apply::Info);
    EXPECT_FALSE(grid.caughtUp());

    // Two cells, one failed; the foreign suite's push is ignored.
    EXPECT_EQ(grid.applyFrame(
                  pushFrame(1, cellLine("s", "r1", 1, "b1", "a", true,
                                        100)),
                  error),
              LiveGrid::Apply::Applied);
    EXPECT_EQ(grid.applyFrame(
                  pushFrame(2, cellLine("s", "r1", 2, "b2", "a", false,
                                        0)),
                  error),
              LiveGrid::Apply::Applied);
    EXPECT_EQ(grid.applyFrame(
                  pushFrame(7, cellLine("other", "r1", 1, "b1", "a",
                                        true, 1)),
                  error),
              LiveGrid::Apply::Info);
    // The replay overlap of a resumed session dedups here.
    EXPECT_EQ(grid.applyFrame(
                  pushFrame(2, cellLine("s", "r1", 2, "b2", "a", false,
                                        0)),
                  error),
              LiveGrid::Apply::Duplicate);

    EXPECT_EQ(grid.info().counters.cells, 2u);
    EXPECT_EQ(grid.info().counters.duplicates, 1u);
    EXPECT_EQ(grid.info().counters.failed, 1u);
    EXPECT_EQ(grid.info().counters.byReason[static_cast<int>(
                  FailReason::Timeout)], 1u);
    EXPECT_EQ(grid.lastSeq(), 2u);

    // In flight: no grid frame yet, and the live table says so.
    EXPECT_EQ(grid.latestStoredGrid(), nullptr);
    ResultTable live = grid.liveTable();
    EXPECT_NE(live.title.find("[in flight]"), std::string::npos);
    EXPECT_NE(renderText(live).find("timeout"), std::string::npos);

    EXPECT_EQ(grid.applyFrame("{\"event\":\"caught-up\",\"seq\":3}",
                              error),
              LiveGrid::Apply::Info);
    EXPECT_TRUE(grid.caughtUp());

    // The published grid lands: byte-identical to the stored table.
    ResultTable table = sampleTable();
    EXPECT_EQ(grid.applyFrame(pushFrame(3, gridLine("s", "r1", table)),
                              error),
              LiveGrid::Apply::Applied);
    EXPECT_EQ(grid.info().counters.grids, 1u);
    ASSERT_NE(grid.latestStoredGrid(), nullptr);
    EXPECT_EQ(renderText(*grid.latestStoredGrid()), renderText(table));
    EXPECT_EQ(grid.liveTable().title.find("[in flight]"),
              std::string::npos);
}

TEST(LiveGridTest, LatestRunWinsAndMissingCellsAreMarked)
{
    LiveGrid grid("s");
    std::string error;
    // Run r1 produced two cells; r2 has only one so far — the live
    // view tracks r2 and marks the (b2, a) cell it expects.
    grid.applyFrame(pushFrame(1, cellLine("s", "r1", 1, "b1", "a",
                                          true, 100)),
                    error);
    grid.applyFrame(pushFrame(2, cellLine("s", "r1", 2, "b2", "a",
                                          true, 200)),
                    error);
    grid.applyFrame(pushFrame(3, cellLine("s", "r2", 1, "b1", "a",
                                          true, 110)),
                    error);

    std::string text = renderText(grid.liveTable());
    EXPECT_NE(text.find("run r2"), std::string::npos);
    EXPECT_NE(text.find("..."), std::string::npos); // b2 in flight
    EXPECT_EQ(grid.info().runs.size(), 2u);
}

TEST(LiveGridTest, RejectedAndMalformedFrames)
{
    LiveGrid grid("s");
    std::string error;
    EXPECT_EQ(grid.applyFrame("{\"ok\":false,\"error\":\"no\"}",
                              error),
              LiveGrid::Apply::Rejected);
    EXPECT_EQ(error, "no");
    EXPECT_EQ(grid.applyFrame("{\"event\":\"nack\",\"error\":\"bad\"}",
                              error),
              LiveGrid::Apply::Rejected);
    EXPECT_EQ(grid.applyFrame("not json at all", error),
              LiveGrid::Apply::Malformed);
    EXPECT_EQ(grid.applyFrame("{\"event\":\"push\",\"seq\":1,"
                              "\"data\":{\"event\":\"dance\"}}",
                              error),
              LiveGrid::Apply::Malformed);
    EXPECT_EQ(grid.info().counters.cells, 0u);
}

TEST(LiveGridTest, ResetsWhenServerLostHistory)
{
    LiveGrid grid("s");
    std::string error;
    grid.applyFrame(pushFrame(1, cellLine("s", "r1", 1, "b1", "a",
                                          true, 100)),
                    error);
    grid.applyFrame(pushFrame(2, cellLine("s", "r1", 2, "b2", "a",
                                          true, 200)),
                    error);
    ASSERT_EQ(grid.lastSeq(), 2u);

    // A reconnect's handshake says the server only knows seq 1: it
    // restarted onto a shorter log, so our fold is unverifiable —
    // drop it and refold from the replay that follows.
    EXPECT_EQ(grid.applyFrame("{\"event\":\"subscribed\",\"suite\":"
                              "\"s\",\"from\":3,\"latest\":1}",
                              error),
              LiveGrid::Apply::Info);
    EXPECT_EQ(grid.resets(), 1u);
    EXPECT_EQ(grid.lastSeq(), 0u);
    EXPECT_EQ(grid.info().counters.cells, 0u);
    EXPECT_TRUE(grid.info().runs.empty());
    // The same seq numbers apply cleanly again after the reset.
    EXPECT_EQ(grid.applyFrame(
                  pushFrame(1, cellLine("s", "r1", 1, "b1", "a", true,
                                        100)),
                  error),
              LiveGrid::Apply::Applied);
}

TEST(LiveGridTest, AgreesWithTheStoreOnOneStream)
{
    // One canned stream, two consumers: the store ingests it, the
    // live view folds the store's pushes of it. Two runs, a failed
    // cell, a grid frame, and a resend of an already-stored cell —
    // which the store drops by id and the live side sees as a replay
    // overlap of the seq it already applied.
    const std::vector<std::string> stream = {
        cellLine("s", "r1", 1, "b1", "a", true, 100),
        cellLine("s", "r1", 2, "b2", "a", false, 0),
        gridLine("s", "r1", sampleTable()),
        cellLine("s", "r2", 1, "b1", "a", true, 110),
        cellLine("s", "r1", 2, "b2", "a", false, 0),
        cellLine("s", "r2", 2, "b2", "a", true, 210),
    };
    TempLog log("agree");
    StoreService service;
    std::string error;
    ASSERT_TRUE(service.open(log.path(), error)) << error;
    LiveGrid grid("s");
    std::map<std::string, std::uint64_t> seqOf;
    for (const std::string &line : stream) {
        std::optional<std::string> ack = service.handleLine(line);
        ASSERT_TRUE(ack.has_value());
        if (*ack == "{\"event\":\"ack\",\"stored\":true}")
            seqOf[line] = service.log().events().back().seq;
        else
            ASSERT_EQ(*ack, "{\"event\":\"ack\",\"stored\":false}");
        grid.applyFrame(pushFrame(seqOf.at(line), line), error);
    }

    const store::SuiteInfo *stored = service.log().suite("s");
    ASSERT_NE(stored, nullptr);
    const store::SuiteInfo &live = grid.info();
    ASSERT_EQ(live.runs.size(), 2u);
    ASSERT_EQ(stored->runs.size(), live.runs.size());
    for (std::size_t i = 0; i < live.runs.size(); ++i) {
        const store::RunInfo &a = stored->runs[i];
        const store::RunInfo &b = live.runs[i];
        EXPECT_EQ(a.run, b.run);
        EXPECT_EQ(a.rev, b.rev);
        EXPECT_EQ(a.seq, b.seq);
        EXPECT_EQ(a.seenIds, b.seenIds);
        EXPECT_EQ(a.hasGrid, b.hasGrid);
        ASSERT_EQ(a.cells.size(), b.cells.size());
        for (const auto &kv : a.cells) {
            const store::CellRecord &x = kv.second;
            const store::CellRecord &y = b.cells.at(kv.first);
            EXPECT_EQ(x.ok, y.ok);
            EXPECT_EQ(x.reason, y.reason);
            EXPECT_EQ(x.attempts, y.attempts);
            EXPECT_EQ(x.wallMs, y.wallMs);
            EXPECT_EQ(x.totalCycles, y.totalCycles);
        }
    }

    const store::SuiteCounters &sc = stored->counters;
    const store::SuiteCounters &lc = live.counters;
    EXPECT_EQ(sc.cells, 4u);
    EXPECT_EQ(sc.duplicates, 1u);
    EXPECT_EQ(sc.grids, 1u);
    EXPECT_EQ(sc.failed, 1u);
    EXPECT_EQ(lc.cells, sc.cells);
    EXPECT_EQ(lc.duplicates, sc.duplicates);
    EXPECT_EQ(lc.grids, sc.grids);
    EXPECT_EQ(lc.failed, sc.failed);
    for (int r = 0; r < kFailReasonCount; ++r)
        EXPECT_EQ(lc.byReason[r], sc.byReason[r]) << r;

    // Latest run is r2; the latest grid is still r1's (r2 is in
    // flight), rendered byte-identically on both sides.
    ASSERT_NE(service.log().latestRun("s"), nullptr);
    ASSERT_NE(live.latestRun(), nullptr);
    EXPECT_EQ(service.log().latestRun("s")->run, "r2");
    EXPECT_EQ(live.latestRun()->run, "r2");
    std::optional<std::string> reply =
        service.handleLine("latest-grid s");
    ASSERT_TRUE(reply.has_value());
    std::optional<json::Value> doc = json::parse(*reply);
    ASSERT_TRUE(doc.has_value() && doc->find("text") != nullptr)
        << *reply;
    ASSERT_NE(grid.latestStoredGrid(), nullptr);
    EXPECT_EQ(renderText(*grid.latestStoredGrid()),
              doc->find("text")->str());
}

// ---- renderers ----

TEST(WatchRender, TuiAndHtmlFrames)
{
    LiveGrid grid("s");
    std::string error;
    grid.applyFrame(pushFrame(1, cellLine("s", "r1", 1, "<b>", "a&c",
                                          true, 100)),
                    error);

    std::string tui = obs::renderTui(grid, "127.0.0.1:1", true);
    EXPECT_EQ(tui.rfind("\x1b[H", 0), 0u); // redraw in place, not clear
    EXPECT_NE(tui.find("live s"), std::string::npos);

    std::string html = obs::renderHtml(grid, "127.0.0.1:1", false);
    EXPECT_NE(html.find("http-equiv=\"refresh\""), std::string::npos);
    EXPECT_NE(html.find("reconnecting"), std::string::npos);
    // Benchmark/arch names are escaped, not spliced raw.
    EXPECT_EQ(html.find("<b>"), std::string::npos);
    EXPECT_NE(html.find("&lt;b&gt;"), std::string::npos);

    const std::string path = "/tmp/l0vliw_obs_html_"
                             + std::to_string(getpid()) + ".html";
    ASSERT_TRUE(obs::writeFileAtomic(path, html, error)) << error;
    EXPECT_EQ(::access(path.c_str(), F_OK), 0);
    std::remove(path.c_str());
}

// ---- the Watcher against a real store ----

namespace
{

/** One session-mode store with @p cells events + a grid published. */
struct LiveStore
{
    TempLog log{"watcher"};
    StoreService service;
    net::Server server;
    ResultTable table = sampleTable();
    int published = 0;

    void start()
    {
        std::string error;
        ASSERT_TRUE(service.open(log.path(), error)) << error;
        ASSERT_TRUE(server.start(0, service.sessionHandler(),
                                 service.closedHandler(), error))
            << error;
    }

    std::string endpoint() const
    {
        return "127.0.0.1:" + std::to_string(server.port());
    }

    void publish(int cells)
    {
        std::string error;
        net::Fd pub =
            net::connectTcp("127.0.0.1", server.port(), error);
        ASSERT_TRUE(pub.valid()) << error;
        net::LineReader reader(pub.get());
        std::string reply;
        auto send = [&](const std::string &line) {
            ASSERT_TRUE(net::writeLine(pub.get(), line, error))
                << error;
            ASSERT_EQ(reader.readLine(reply, error, 5000),
                      net::LineReader::Status::Line)
                << error;
        };
        for (int i = 0; i < cells; ++i)
            send(cellLine("fig", "r1",
                          static_cast<std::uint64_t>(i + 1),
                          "bench-" + std::to_string(i), "l0-8", true,
                          100 + i));
        send(gridLine("fig", "r1", table));
        published = cells + 1;
    }
};

} // namespace

TEST(WatcherEndToEnd, CatchesUpByteIdenticalToLatestGrid)
{
    LiveStore store;
    store.start();
    store.publish(6);

    Watcher watcher(store.endpoint(), "fig");
    std::string error;
    Watcher::Session session = watcher.runSession(
        [](LiveGrid &grid) { return !grid.caughtUp(); }, error, 250);
    EXPECT_EQ(session, Watcher::Session::Stopped);
    EXPECT_EQ(watcher.grid().info().counters.cells, 6u);
    EXPECT_EQ(watcher.grid().info().counters.grids, 1u);
    EXPECT_EQ(watcher.grid().info().counters.duplicates, 0u);

    // The --once contract: the watcher's stored grid renders byte-
    // identically to the store's own latest-grid answer.
    ASSERT_NE(watcher.grid().latestStoredGrid(), nullptr);
    std::optional<std::string> reply =
        store.service.handleLine("latest-grid fig");
    ASSERT_TRUE(reply.has_value());
    std::optional<json::Value> doc = json::parse(*reply);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(renderText(*watcher.grid().latestStoredGrid()),
              doc->find("text")->str());

    store.server.stop();
}

TEST(WatcherEndToEnd, SeesLivePushesAfterCatchUp)
{
    LiveStore store;
    store.start();
    store.publish(2);

    Watcher watcher(store.endpoint(), "fig");
    std::string error;
    // First session: stop at caught-up, then publish more and resume.
    ASSERT_EQ(watcher.runSession(
                  [](LiveGrid &grid) { return !grid.caughtUp(); },
                  error, 250),
              Watcher::Session::Stopped);
    ASSERT_EQ(watcher.grid().lastSeq(), 3u);

    std::string pubError;
    net::Fd pub =
        net::connectTcp("127.0.0.1", store.server.port(), pubError);
    ASSERT_TRUE(pub.valid()) << pubError;
    net::LineReader reader(pub.get());
    std::string reply;
    ASSERT_TRUE(net::writeLine(
        pub.get(), cellLine("fig", "r1", 9, "bench-9", "l0-8", true, 9),
        pubError));
    ASSERT_EQ(reader.readLine(reply, pubError, 5000),
              net::LineReader::Status::Line);

    // The resumed session's `from-seq 4` replays exactly the new
    // event — nothing we already folded comes back.
    ASSERT_EQ(watcher.runSession(
                  [](LiveGrid &grid) { return grid.lastSeq() < 4; },
                  error, 250),
              Watcher::Session::Stopped);
    EXPECT_EQ(watcher.grid().info().counters.cells, 3u);
    EXPECT_EQ(watcher.grid().info().counters.duplicates, 0u);

    pub.reset();
    store.server.stop();
}

// ---- chaos soak: exactly-once across reconnects ----

TEST(WatcherChaos, ExactlyOnceUnderResetsAndCorruption)
{
    // Publish the whole run on a clean transport first — the faults
    // are aimed at the subscription channel, not the ingest path
    // (test_store.cc owns chaos ingest).
    LiveStore store;
    store.start();
    store.publish(24);
    const std::uint64_t want =
        static_cast<std::uint64_t>(store.published);

    net::FaultSpec spec;
    std::string specError;
    ASSERT_TRUE(net::FaultSpec::parse("seed=23,corrupt@0.12,reset@0.08",
                                      spec, specError))
        << specError;

    int sessions = 0;
    {
        net::ScopedFaultPlan faulty(spec);
        Watcher watcher(store.endpoint(), "fig");
        std::string error;
        while (watcher.grid().lastSeq() < want
               || !watcher.grid().caughtUp()) {
            ASSERT_LT(++sessions, 500)
                << "chaos soak never converged: " << error;
            // Rejected is expected chaos here too: a corrupted
            // subscribe line reads as a bad query and gets an
            // {"ok":false} answer.
            watcher.runSession(
                [&](LiveGrid &grid) {
                    return grid.lastSeq() < want || !grid.caughtUp();
                },
                error, 250);
        }

        // Exactly once: every stored event applied, none twice —
        // whatever the replay overlap was, the dedup absorbed it
        // (duplicates counts the absorbed resends, applied does not).
        EXPECT_EQ(watcher.grid().info().counters.cells, want - 1);
        EXPECT_EQ(watcher.grid().info().counters.grids, 1u);
        EXPECT_EQ(watcher.grid().lastSeq(), want);
        ASSERT_NE(watcher.grid().latestStoredGrid(), nullptr);
        EXPECT_EQ(renderText(*watcher.grid().latestStoredGrid()),
                  renderText(store.table));
        // The soak is only a soak if the connection actually dropped:
        // at these fault rates a 27-frame replay cannot survive one
        // session (0.8^27 against the corruptions alone).
        EXPECT_GE(sessions, 2) << "no fault ever fired";
    }

    store.server.stop();
}
