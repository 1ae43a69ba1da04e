/**
 * @file
 * The src/net transport subsystem: Fd ownership, endpoint parsing,
 * line framing over partial reads (truncated and oversized frames
 * are errors, not short lines), deadline-bounded reads, the seeded
 * fault-injection layer (spec grammar, per-operation semantics), the
 * accept-loop server, the daemon's per-line protocol body, and the
 * --stream event sink.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "driver/executor.hh"
#include "net/fault.hh"
#include "net/framing.hh"
#include "net/server.hh"
#include "net/socket.hh"

using namespace l0vliw;
using net::Fd;
using net::LineReader;

namespace
{

/** Is @p fd still an open descriptor? */
bool
fdOpen(int fd)
{
    return fcntl(fd, F_GETFD) != -1;
}

/** A connected socket pair (both ends owned). */
std::pair<Fd, Fd>
makeSocketPair()
{
    int fds[2] = {-1, -1};
    EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    return {Fd(fds[0]), Fd(fds[1])};
}

} // namespace

// ---- Fd ----

TEST(Fd, ClosesOnDestruction)
{
    int raw = -1;
    {
        int fds[2];
        ASSERT_EQ(pipe(fds), 0);
        Fd a(fds[0]), b(fds[1]);
        raw = fds[0];
        EXPECT_TRUE(a.valid());
        EXPECT_TRUE(fdOpen(raw));
    }
    EXPECT_FALSE(fdOpen(raw));
}

TEST(Fd, MoveTransfersOwnership)
{
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    Fd a(fds[0]);
    Fd keepWrite(fds[1]);

    Fd b = std::move(a);
    EXPECT_FALSE(a.valid());
    EXPECT_EQ(b.get(), fds[0]);
    EXPECT_TRUE(fdOpen(fds[0]));

    Fd c;
    c = std::move(b);
    EXPECT_FALSE(b.valid());
    EXPECT_TRUE(fdOpen(fds[0]));

    // release() hands the fd out without closing.
    int released = c.release();
    EXPECT_EQ(released, fds[0]);
    EXPECT_FALSE(c.valid());
    EXPECT_TRUE(fdOpen(released));
    close(released);
}

TEST(Fd, ResetClosesPrevious)
{
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    Fd a(fds[0]);
    a.reset(fds[1]);
    EXPECT_FALSE(fdOpen(fds[0]));
    EXPECT_TRUE(fdOpen(fds[1]));
}

// ---- parseHostPort ----

TEST(HostPort, ParsesValidEndpoints)
{
    net::HostPort hp;
    std::string err;
    ASSERT_TRUE(net::parseHostPort("127.0.0.1:8080", hp, err)) << err;
    EXPECT_EQ(hp.host, "127.0.0.1");
    EXPECT_EQ(hp.port, 8080);

    ASSERT_TRUE(net::parseHostPort("worker-3.cluster:65535", hp, err));
    EXPECT_EQ(hp.host, "worker-3.cluster");
    EXPECT_EQ(hp.port, 65535);

    ASSERT_TRUE(net::parseHostPort("localhost:1", hp, err));
    EXPECT_EQ(hp.port, 1);
}

TEST(HostPort, RejectsMalformedEndpoints)
{
    net::HostPort hp;
    for (const char *bad :
         {"", "localhost", ":8080", "host:", "host:abc", "host:12x",
          "host:0", "host:65536", "host:99999999"}) {
        std::string err;
        EXPECT_FALSE(net::parseHostPort(bad, hp, err)) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
}

// ---- LineReader / writeLine ----

TEST(Framing, SplitsBatchedLines)
{
    auto [a, b] = makeSocketPair();
    std::string err;
    // Three frames and a fragment arrive in one read.
    ASSERT_EQ(write(a.get(), "one\ntwo\nthree\nfour", 18), 18);

    LineReader reader(b.get());
    std::string line;
    ASSERT_EQ(reader.readLine(line, err), LineReader::Status::Line);
    EXPECT_EQ(line, "one");
    ASSERT_EQ(reader.readLine(line, err), LineReader::Status::Line);
    EXPECT_EQ(line, "two");
    ASSERT_EQ(reader.readLine(line, err), LineReader::Status::Line);
    EXPECT_EQ(line, "three");

    // The fragment completes in a second write.
    ASSERT_EQ(write(a.get(), "teen\n", 5), 5);
    ASSERT_EQ(reader.readLine(line, err), LineReader::Status::Line);
    EXPECT_EQ(line, "fourteen");

    a.reset();
    EXPECT_EQ(reader.readLine(line, err), LineReader::Status::Eof);
}

TEST(Framing, ReassemblesPartialReads)
{
    auto [a, b] = makeSocketPair();
    LineReader reader(b.get());
    std::string line, err;

    // The frame trickles in byte by byte from another thread.
    std::thread writer([fd = a.get()]() {
        const char *msg = "partial-frame\n";
        for (const char *p = msg; *p; ++p)
            ASSERT_EQ(write(fd, p, 1), 1);
    });
    ASSERT_EQ(reader.readLine(line, err), LineReader::Status::Line);
    EXPECT_EQ(line, "partial-frame");
    writer.join();
}

TEST(Framing, TruncatedFrameIsAnErrorNotAShortLine)
{
    auto [a, b] = makeSocketPair();
    ASSERT_EQ(write(a.get(), "complete\nhalf-a-fra", 19), 19);
    a.reset(); // peer dies mid-frame

    LineReader reader(b.get());
    std::string line, err;
    ASSERT_EQ(reader.readLine(line, err), LineReader::Status::Line);
    EXPECT_EQ(line, "complete");
    ASSERT_EQ(reader.readLine(line, err), LineReader::Status::Error);
    EXPECT_NE(err.find("truncated"), std::string::npos) << err;
}

TEST(Framing, OversizedFrameIsRejected)
{
    auto [a, b] = makeSocketPair();
    LineReader reader(b.get(), /*maxLine=*/64);
    std::string big(200, 'x');
    big += '\n';
    std::thread writer([&a, &big]() {
        ASSERT_EQ(write(a.get(), big.data(), big.size()),
                  static_cast<ssize_t>(big.size()));
    });
    std::string line, err;
    EXPECT_EQ(reader.readLine(line, err), LineReader::Status::Error);
    EXPECT_NE(err.find("exceeds"), std::string::npos) << err;
    writer.join();
}

TEST(Framing, WriteLineRoundTrips)
{
    auto [a, b] = makeSocketPair();
    std::string err;
    ASSERT_TRUE(net::writeLine(a.get(), "{\"id\":1}", err)) << err;
    ASSERT_TRUE(net::writeLine(a.get(), "", err)) << err;

    LineReader reader(b.get());
    std::string line;
    ASSERT_EQ(reader.readLine(line, err), LineReader::Status::Line);
    EXPECT_EQ(line, "{\"id\":1}");
    ASSERT_EQ(reader.readLine(line, err), LineReader::Status::Line);
    EXPECT_EQ(line, "");
}

TEST(Framing, WriteToHungUpPeerFailsWithoutSignal)
{
    auto [a, b] = makeSocketPair();
    b.reset(); // peer gone
    std::string err;
    // First write may succeed (buffered); the second must fail with
    // EPIPE surfaced as an error, not a process-killing SIGPIPE.
    net::writeLine(a.get(), "x", err);
    EXPECT_FALSE(net::writeLine(a.get(), "y", err));
    EXPECT_FALSE(err.empty());
}

TEST(Framing, MaxFrameSizeBoundary)
{
    // A frame of exactly maxLine bytes is within protocol; one more
    // byte is off-protocol. The boundary must not be off by one in
    // either direction.
    constexpr std::size_t kBound = 64;
    {
        auto [a, b] = makeSocketPair();
        std::string atLimit(kBound, 'a');
        ASSERT_EQ(write(a.get(), (atLimit + "\n").data(), kBound + 1),
                  static_cast<ssize_t>(kBound + 1));
        LineReader reader(b.get(), kBound);
        std::string line, err;
        ASSERT_EQ(reader.readLine(line, err), LineReader::Status::Line)
            << err;
        EXPECT_EQ(line, atLimit);
        EXPECT_EQ(reader.errorKind(), LineReader::ErrorKind::None);
    }
    {
        auto [a, b] = makeSocketPair();
        std::string oneOver(kBound + 1, 'b');
        ASSERT_EQ(write(a.get(), (oneOver + "\n").data(), kBound + 2),
                  static_cast<ssize_t>(kBound + 2));
        LineReader reader(b.get(), kBound);
        std::string line, err;
        EXPECT_EQ(reader.readLine(line, err), LineReader::Status::Error);
        EXPECT_EQ(reader.errorKind(),
                  LineReader::ErrorKind::Oversized);
        EXPECT_NE(err.find("exceeds"), std::string::npos) << err;
    }
}

TEST(Framing, DeadlineExpiresAsTimeoutNotError)
{
    auto [a, b] = makeSocketPair();
    LineReader reader(b.get());
    std::string line, err;
    auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(reader.readLine(line, err, /*deadlineMs=*/50),
              LineReader::Status::Timeout);
    auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    EXPECT_GE(waited, 45);
    EXPECT_LT(waited, 5000) << "deadline did not bound the read";
    // A timeout is not an error: the error classifier stays clean.
    EXPECT_EQ(reader.errorKind(), LineReader::ErrorKind::None);
}

TEST(Framing, ZeroDeadlinePollsWhatHasArrived)
{
    auto [a, b] = makeSocketPair();
    LineReader reader(b.get());
    std::string line, err;
    // Nothing there: a zero budget returns at once.
    EXPECT_EQ(reader.readLine(line, err, 0), LineReader::Status::Timeout);
    // Two frames already in the socket, none in the reader's buffer:
    // a zero budget still takes them.
    ASSERT_EQ(write(a.get(), "one\ntwo\n", 8), 8);
    ASSERT_EQ(reader.readLine(line, err, 0), LineReader::Status::Line)
        << err;
    EXPECT_EQ(line, "one");
    ASSERT_EQ(reader.readLine(line, err, 0), LineReader::Status::Line)
        << err;
    EXPECT_EQ(line, "two");
    EXPECT_EQ(reader.readLine(line, err, 0), LineReader::Status::Timeout);
}

TEST(Framing, TimedOutPartialFrameResumesOnRetry)
{
    auto [a, b] = makeSocketPair();
    LineReader reader(b.get());
    std::string line, err;
    // Half a frame arrives, then silence past the deadline.
    ASSERT_EQ(write(a.get(), "first-", 6), 6);
    ASSERT_EQ(reader.readLine(line, err, 50),
              LineReader::Status::Timeout);
    // The late remainder completes the SAME frame on the next read —
    // buffered partial bytes survive a timeout.
    ASSERT_EQ(write(a.get(), "half\n", 5), 5);
    ASSERT_EQ(reader.readLine(line, err, 1000),
              LineReader::Status::Line)
        << err;
    EXPECT_EQ(line, "first-half");
}

TEST(Framing, ReaderResetDropsStaleBytes)
{
    auto [a, b] = makeSocketPair();
    auto [c, d] = makeSocketPair();
    ASSERT_EQ(write(a.get(), "stale-no-newline", 16), 16);

    LineReader reader(b.get());
    // Reconnect: buffered bytes from the dead stream must not leak
    // into the new one.
    ASSERT_EQ(write(c.get(), "ignored", 7), 7);
    reader.reset(d.get());
    std::string line, err;
    ASSERT_EQ(write(c.get(), "\n", 1), 1);
    ASSERT_EQ(reader.readLine(line, err), LineReader::Status::Line);
    EXPECT_EQ(line, "ignored");
}

// ---- fault injection ----

TEST(FaultSpec, ParsesTheFullGrammar)
{
    net::FaultSpec spec;
    std::string err;
    ASSERT_TRUE(net::FaultSpec::parse(
        "seed=7,delay=0..50ms@0.2,drop@0.05,corrupt@0.02,stall@0.01,"
        "reset@0.02",
        spec, err))
        << err;
    EXPECT_EQ(spec.seed, 7u);
    EXPECT_DOUBLE_EQ(spec.delayProb, 0.2);
    EXPECT_EQ(spec.delayMinMs, 0);
    EXPECT_EQ(spec.delayMaxMs, 50);
    EXPECT_DOUBLE_EQ(spec.dropProb, 0.05);
    EXPECT_DOUBLE_EQ(spec.corruptProb, 0.02);
    EXPECT_DOUBLE_EQ(spec.stallProb, 0.01);
    EXPECT_DOUBLE_EQ(spec.resetProb, 0.02);
    // The summary re-renders in the same grammar: parse(summary()) is
    // a fixed point.
    net::FaultSpec again;
    ASSERT_TRUE(net::FaultSpec::parse(spec.summary(), again, err))
        << spec.summary() << ": " << err;
    EXPECT_EQ(again.summary(), spec.summary());

    // Clauses are independent and the seed defaults to 1.
    ASSERT_TRUE(net::FaultSpec::parse("drop@0.5", spec, err)) << err;
    EXPECT_EQ(spec.seed, 1u);
    EXPECT_DOUBLE_EQ(spec.dropProb, 0.5);
    EXPECT_DOUBLE_EQ(spec.delayProb, 0);
}

TEST(FaultSpec, RejectsMalformedSpecs)
{
    for (const char *bad :
         {"", "seed=", "seed=x", "drop", "drop@", "drop@1.5",
          "drop@-0.1", "explode@0.5", "delay=5ms@0.5",
          "delay=5..1ms@0.5", "delay=1..5ms@2", "drop@0.5,,reset@0.1",
          "seed=7,", "seed=-1", "seed=18446744073709551616", "seed=07",
          "drop@nan", "delay=0..5ms@nan"}) {
        net::FaultSpec spec;
        std::string err;
        EXPECT_FALSE(net::FaultSpec::parse(bad, spec, err)) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
}

TEST(FaultPlan, SameSeedSameActionSequence)
{
    net::FaultSpec spec;
    std::string err;
    ASSERT_TRUE(net::FaultSpec::parse(
        "seed=42,delay=1..9ms@0.3,drop@0.2,corrupt@0.2,stall@0.1,"
        "reset@0.1",
        spec, err))
        << err;
    net::FaultPlan a(spec), b(spec);
    bool sawFault = false;
    for (int i = 0; i < 200; ++i) {
        net::FaultOp op =
            i % 2 == 0 ? net::FaultOp::Read : net::FaultOp::Write;
        net::FaultAction fromA = a.next(op), fromB = b.next(op);
        EXPECT_EQ(static_cast<int>(fromA.kind),
                  static_cast<int>(fromB.kind));
        EXPECT_EQ(fromA.delayMs, fromB.delayMs);
        EXPECT_EQ(fromA.salt, fromB.salt);
        sawFault |= fromA.kind != net::FaultAction::Kind::None;
    }
    EXPECT_TRUE(sawFault) << "a ~70% fault spec produced 200 clean ops";
}

TEST(FaultSpec, LatencyClauseIsFixedAndProbabilityFree)
{
    // latency= models link RTT, not flakiness: every write pays it,
    // no probability, no RNG draw — so adding it to a seeded spec
    // must not perturb the fault sequence the seed already bought.
    net::FaultSpec spec;
    std::string err;
    ASSERT_TRUE(net::FaultSpec::parse("seed=9,latency=25ms", spec, err))
        << err;
    EXPECT_EQ(spec.latencyMs, 25);
    net::FaultSpec again;
    ASSERT_TRUE(net::FaultSpec::parse(spec.summary(), again, err))
        << spec.summary() << ": " << err;
    EXPECT_EQ(again.summary(), spec.summary());

    net::FaultPlan plan(spec);
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(plan.next(net::FaultOp::Write).latencyMs, 25);
        EXPECT_EQ(plan.next(net::FaultOp::Read).latencyMs, 0)
            << "reads never pay write latency";
    }

    for (const char *bad :
         {"latency=", "latency=ms", "latency=0ms", "latency=-5ms",
          "latency=5", "latency=999999999ms"}) {
        net::FaultSpec rejected;
        EXPECT_FALSE(net::FaultSpec::parse(bad, rejected, err)) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
}

TEST(FaultInject, LatencyDelaysEveryWriteFrame)
{
    net::FaultSpec spec;
    std::string err;
    ASSERT_TRUE(net::FaultSpec::parse("seed=1,latency=30ms", spec, err))
        << err;
    auto [a, b] = makeSocketPair();
    net::ScopedFaultPlan plan(spec);
    auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(net::writeLine(a.get(), "over-the-wan", err)) << err;
    LineReader reader(b.get());
    std::string line;
    ASSERT_EQ(reader.readLine(line, err, 2000), LineReader::Status::Line)
        << err;
    auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    EXPECT_EQ(line, "over-the-wan");
    EXPECT_GE(waited, 25) << "the frame should have paid the link";
}

TEST(FaultInject, DroppedWriteReportsSuccessAndPeerTimesOut)
{
    net::FaultSpec spec;
    std::string err;
    ASSERT_TRUE(net::FaultSpec::parse("seed=1,drop@1", spec, err));
    auto [a, b] = makeSocketPair();
    LineReader reader(b.get());
    std::string line;
    {
        net::ScopedFaultPlan plan(spec);
        // The write "succeeds" but nothing reaches the peer: exactly
        // how a silently-lossy transport looks from the sender.
        ASSERT_TRUE(net::writeLine(a.get(), "vanishes", err)) << err;
        EXPECT_EQ(reader.readLine(line, err, 50),
                  LineReader::Status::Timeout);
    }
    // Plan uninstalled: the stream works again.
    ASSERT_TRUE(net::writeLine(a.get(), "arrives", err)) << err;
    ASSERT_EQ(reader.readLine(line, err, 1000),
              LineReader::Status::Line)
        << err;
    EXPECT_EQ(line, "arrives");
}

TEST(FaultInject, ResetFailsTheOperation)
{
    net::FaultSpec spec;
    std::string err;
    ASSERT_TRUE(net::FaultSpec::parse("seed=1,reset@1", spec, err));
    auto [a, b] = makeSocketPair();
    net::ScopedFaultPlan plan(spec);
    EXPECT_FALSE(net::writeLine(a.get(), "never", err));
    EXPECT_NE(err.find("injected"), std::string::npos) << err;
}

TEST(FaultInject, CorruptedFrameIsAlwaysDetectable)
{
    // The injected corruption overwrites one byte with a control
    // character, which the JSON layer rejects anywhere in a compact
    // frame — so a corrupted CellOutcome can never silently decode.
    net::FaultSpec spec;
    std::string err;
    ASSERT_TRUE(net::FaultSpec::parse("seed=9,corrupt@1", spec, err));
    for (int trial = 0; trial < 8; ++trial) {
        auto [a, b] = makeSocketPair();
        std::string frame = "{\"id\":123,\"ok\":true,\"pad\":\"trial-"
                            + std::to_string(trial) + "\"}";
        ASSERT_EQ(write(a.get(), (frame + "\n").data(),
                        frame.size() + 1),
                  static_cast<ssize_t>(frame.size() + 1));
        net::ScopedFaultPlan plan(spec);
        LineReader reader(b.get());
        std::string line;
        LineReader::Status status = reader.readLine(line, err, 100);
        if (status == LineReader::Status::Line) {
            // A payload byte was smashed: the frame must not parse.
            EXPECT_FALSE(json::parse(line, &err).has_value())
                << "corrupted frame decoded cleanly: " << line;
        } else {
            // The terminator itself was smashed: detected as a
            // timeout (production: the deadline machinery fires).
            EXPECT_EQ(status, LineReader::Status::Timeout);
        }
    }
}

TEST(FaultInject, StallBurnsTheDeadline)
{
    net::FaultSpec spec;
    std::string err;
    ASSERT_TRUE(net::FaultSpec::parse("seed=1,stall@1", spec, err));
    auto [a, b] = makeSocketPair();
    // Data is sitting right there — the stall must still starve the
    // read until its deadline.
    ASSERT_EQ(write(a.get(), "ready\n", 6), 6);
    net::ScopedFaultPlan plan(spec);
    LineReader reader(b.get());
    std::string line;
    auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(reader.readLine(line, err, 80),
              LineReader::Status::Timeout);
    auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    EXPECT_GE(waited, 70);
}

TEST(FaultInject, DelaySlowsButDeliversIntact)
{
    net::FaultSpec spec;
    std::string err;
    ASSERT_TRUE(
        net::FaultSpec::parse("seed=3,delay=20..20ms@1", spec, err));
    auto [a, b] = makeSocketPair();
    net::ScopedFaultPlan plan(spec);
    auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(net::writeLine(a.get(), "slow-but-sure", err)) << err;
    LineReader reader(b.get());
    std::string line;
    ASSERT_EQ(reader.readLine(line, err, 2000),
              LineReader::Status::Line)
        << err;
    auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    EXPECT_EQ(line, "slow-but-sure");
    EXPECT_GE(waited, 35) << "write and read delays should stack";
}

TEST(FaultInject, EnvSpecInstallsAPlan)
{
    ASSERT_EQ(setenv("L0VLIW_FAULT_INJECT", "seed=5,drop@0.5", 1), 0);
    net::installFaultPlanFromEnv();
    std::shared_ptr<net::FaultPlan> plan = net::activeFaultPlan();
    ASSERT_NE(plan, nullptr);
    EXPECT_EQ(plan->spec().seed, 5u);
    EXPECT_DOUBLE_EQ(plan->spec().dropProb, 0.5);
    net::installFaultPlan(nullptr);
    unsetenv("L0VLIW_FAULT_INJECT");
}

// ---- SIGPIPE hardening ----

TEST(Sigpipe, PipeWriteToDeadReaderSurvivesAsError)
{
    // Pipes have no MSG_NOSIGNAL: without the SIG_IGN disposition the
    // plain-write fallback would kill the process on a dead reader —
    // any pipe-fed peer's exact failure mode when its reader dies
    // between dispatch and write.
    net::ignoreSigpipe();
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    Fd writeEnd(fds[1]);
    close(fds[0]); // reader gone
    std::string err;
    EXPECT_FALSE(net::writeLine(writeEnd.get(), "into the void", err));
    EXPECT_FALSE(err.empty());
}

TEST(Sigpipe, SocketWriteToClosedPeerSurvivesAsError)
{
    // The socket flavor of the same audit: a daemon/driver writing to
    // a peer that already hung up gets an error string, not SIGPIPE.
    auto [a, b] = makeSocketPair();
    b.reset();
    std::string err;
    net::writeLine(a.get(), "x", err); // may land in the buffer
    EXPECT_FALSE(net::writeLine(a.get(), "y", err));
    EXPECT_FALSE(err.empty());
}

// ---- listen / connect / accept ----

TEST(Socket, LoopbackConnectAndEphemeralPort)
{
    std::string err;
    std::uint16_t port = 0;
    Fd listener = net::listenTcp(0, err, &port);
    ASSERT_TRUE(listener.valid()) << err;
    EXPECT_GT(port, 0);

    std::thread client([&port]() {
        std::string cerr;
        Fd conn = net::connectTcp("127.0.0.1", port, cerr);
        ASSERT_TRUE(conn.valid()) << cerr;
        std::string werr;
        EXPECT_TRUE(net::writeLine(conn.get(), "hello", werr)) << werr;
    });

    Fd accepted = net::acceptConn(listener.get(), err);
    ASSERT_TRUE(accepted.valid()) << err;
    LineReader reader(accepted.get());
    std::string line;
    ASSERT_EQ(reader.readLine(line, err), LineReader::Status::Line);
    EXPECT_EQ(line, "hello");
    client.join();
}

TEST(Socket, ConnectToClosedPortFails)
{
    // Grab an ephemeral port, then close it: connecting must fail
    // with a message, not hang.
    std::string err;
    std::uint16_t port = 0;
    {
        Fd listener = net::listenTcp(0, err, &port);
        ASSERT_TRUE(listener.valid()) << err;
    }
    Fd conn = net::connectTcp("127.0.0.1", port, err);
    EXPECT_FALSE(conn.valid());
    EXPECT_FALSE(err.empty());
}

// ---- Server ----

TEST(Server, EchoesAcrossConnections)
{
    net::Server server;
    std::string err;
    ASSERT_TRUE(server.start(
        0,
        [](const std::string &line) {
            return std::optional<std::string>("echo:" + line);
        },
        err))
        << err;

    for (int round = 0; round < 3; ++round) {
        Fd conn = net::connectTcp("127.0.0.1", server.port(), err);
        ASSERT_TRUE(conn.valid()) << err;
        LineReader reader(conn.get());
        for (int i = 0; i < 4; ++i) {
            std::string msg = "r" + std::to_string(round) + "-m"
                              + std::to_string(i);
            ASSERT_TRUE(net::writeLine(conn.get(), msg, err)) << err;
            std::string reply;
            ASSERT_EQ(reader.readLine(reply, err),
                      LineReader::Status::Line)
                << err;
            EXPECT_EQ(reply, "echo:" + msg);
        }
    }
    EXPECT_EQ(server.connectionsAccepted(), 3);
    server.stop();
    EXPECT_FALSE(server.running());
}

TEST(Server, ServesConcurrentConnections)
{
    net::Server server;
    std::string err;
    ASSERT_TRUE(server.start(
        0,
        [](const std::string &line) {
            return std::optional<std::string>(line + line);
        },
        err))
        << err;

    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c) {
        clients.emplace_back([port = server.port(), c]() {
            std::string cerr;
            Fd conn = net::connectTcp("127.0.0.1", port, cerr);
            ASSERT_TRUE(conn.valid()) << cerr;
            LineReader reader(conn.get());
            for (int i = 0; i < 8; ++i) {
                std::string msg = std::to_string(c * 100 + i);
                ASSERT_TRUE(net::writeLine(conn.get(), msg, cerr));
                std::string reply;
                ASSERT_EQ(reader.readLine(reply, cerr),
                          LineReader::Status::Line);
                EXPECT_EQ(reply, msg + msg);
            }
        });
    }
    for (auto &t : clients)
        t.join();
    EXPECT_EQ(server.connectionsAccepted(), 4);
}

TEST(Server, NulloptHandlerClosesTheConnection)
{
    net::Server server;
    std::string err;
    ASSERT_TRUE(server.start(
        0,
        [](const std::string &line) {
            return line == "drop" ? std::nullopt
                                  : std::optional<std::string>("ok");
        },
        err))
        << err;

    Fd conn = net::connectTcp("127.0.0.1", server.port(), err);
    ASSERT_TRUE(conn.valid()) << err;
    LineReader reader(conn.get());
    ASSERT_TRUE(net::writeLine(conn.get(), "keep", err));
    std::string reply;
    ASSERT_EQ(reader.readLine(reply, err), LineReader::Status::Line);
    EXPECT_EQ(reply, "ok");

    ASSERT_TRUE(net::writeLine(conn.get(), "drop", err));
    EXPECT_NE(reader.readLine(reply, err), LineReader::Status::Line);
}

TEST(Server, MaxConnectionsCountsSilentConnections)
{
    // The cap counts a connection from its accept, not from its first
    // line: a first connection that never speaks still holds the one
    // slot, so the second gets the nack at once and then EOF.
    net::Server server;
    server.setMaxConnections(1, "full");
    std::string err;
    ASSERT_TRUE(server.start(
        0, [](const std::string &line) { return line; }, err))
        << err;

    Fd silent = net::connectTcp("127.0.0.1", server.port(), err);
    ASSERT_TRUE(silent.valid()) << err;
    Fd second = net::connectTcp("127.0.0.1", server.port(), err);
    ASSERT_TRUE(second.valid()) << err;
    LineReader reader(second.get());
    std::string reply;
    ASSERT_EQ(reader.readLine(reply, err, 5000), LineReader::Status::Line);
    EXPECT_EQ(reply, "full");
    EXPECT_EQ(reader.readLine(reply, err, 5000), LineReader::Status::Eof);
    EXPECT_EQ(server.connectionsAccepted(), 2);

    // The silent connection was served all along.
    LineReader silentReader(silent.get());
    ASSERT_TRUE(net::writeLine(silent.get(), "hello", err));
    ASSERT_EQ(silentReader.readLine(reply, err, 5000),
              LineReader::Status::Line);
    EXPECT_EQ(reply, "hello");
    server.stop();
}

TEST(Server, StopUnblocksAndIsIdempotent)
{
    net::Server server;
    std::string err;
    ASSERT_TRUE(server.start(
        0,
        [](const std::string &) {
            return std::optional<std::string>("x");
        },
        err))
        << err;
    // A connection idling mid-stream must not wedge stop().
    Fd conn = net::connectTcp("127.0.0.1", server.port(), err);
    ASSERT_TRUE(conn.valid()) << err;
    server.stop();
    server.stop(); // idempotent
    EXPECT_FALSE(server.running());

    // Stopped means reusable: the object can serve again.
    net::Server again;
    ASSERT_TRUE(again.start(
        0,
        [](const std::string &) {
            return std::optional<std::string>("y");
        },
        err))
        << err;
}

// ---- the pipelined per-connection worker pool ----

TEST(Server, PipelinedWorkersReplyOutOfOrder)
{
    // Two workers per connection: a slow request dispatched first
    // must not serialize the fast one queued behind it — replies come
    // back in completion order, which is the contract that lets the
    // cell protocol window jobs (frames carry ids, order carries
    // nothing).
    net::Server server;
    server.setWorkersPerConnection(2);
    std::string err;
    ASSERT_TRUE(server.start(
        0,
        [](const std::string &line) {
            if (line == "slow")
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(120));
            return std::optional<std::string>("done:" + line);
        },
        err))
        << err;

    Fd conn = net::connectTcp("127.0.0.1", server.port(), err);
    ASSERT_TRUE(conn.valid()) << err;
    ASSERT_TRUE(net::writeLine(conn.get(), "slow", err)) << err;
    ASSERT_TRUE(net::writeLine(conn.get(), "fast", err)) << err;
    LineReader reader(conn.get());
    std::string first, second;
    ASSERT_EQ(reader.readLine(first, err, 5000),
              LineReader::Status::Line)
        << err;
    ASSERT_EQ(reader.readLine(second, err, 5000),
              LineReader::Status::Line)
        << err;
    EXPECT_EQ(first, "done:fast");
    EXPECT_EQ(second, "done:slow");
}

TEST(Server, PipelinedBurstIsAnsweredCompletely)
{
    // 64 requests written before a single reply is read: the bounded
    // queue backpressures the connection reader instead of buffering
    // without limit, and every request is answered exactly once.
    net::Server server;
    server.setWorkersPerConnection(3);
    std::string err;
    ASSERT_TRUE(server.start(
        0,
        [](const std::string &line) {
            return std::optional<std::string>(line);
        },
        err))
        << err;

    Fd conn = net::connectTcp("127.0.0.1", server.port(), err);
    ASSERT_TRUE(conn.valid()) << err;
    std::vector<int> counts(64, 0);
    for (int i = 0; i < 64; ++i)
        ASSERT_TRUE(
            net::writeLine(conn.get(), std::to_string(i), err))
            << err;
    LineReader reader(conn.get());
    for (int i = 0; i < 64; ++i) {
        std::string reply;
        ASSERT_EQ(reader.readLine(reply, err, 5000),
                  LineReader::Status::Line)
            << err;
        int n = std::atoi(reply.c_str());
        ASSERT_GE(n, 0);
        ASSERT_LT(n, 64);
        counts[static_cast<std::size_t>(n)] += 1;
    }
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(counts[static_cast<std::size_t>(i)], 1) << i;
}

TEST(Server, PipelinedNulloptPoisonsTheConnectionNotTheServer)
{
    // One worker voting to hang up closes the whole connection (the
    // serial contract, kept), but the accept loop lives on: a fresh
    // connection gets fresh workers.
    net::Server server;
    server.setWorkersPerConnection(2);
    std::string err;
    ASSERT_TRUE(server.start(
        0,
        [](const std::string &line) {
            return line == "drop" ? std::nullopt
                                  : std::optional<std::string>("ok");
        },
        err))
        << err;

    {
        Fd conn = net::connectTcp("127.0.0.1", server.port(), err);
        ASSERT_TRUE(conn.valid()) << err;
        LineReader reader(conn.get());
        ASSERT_TRUE(net::writeLine(conn.get(), "drop", err));
        std::string reply;
        // The poisoned connection may flush an earlier reply but must
        // end in a close, never serve indefinitely.
        LineReader::Status status = reader.readLine(reply, err, 5000);
        while (status == LineReader::Status::Line)
            status = reader.readLine(reply, err, 5000);
        EXPECT_NE(status, LineReader::Status::Timeout);
    }

    Fd conn = net::connectTcp("127.0.0.1", server.port(), err);
    ASSERT_TRUE(conn.valid()) << err;
    LineReader reader(conn.get());
    ASSERT_TRUE(net::writeLine(conn.get(), "keep", err));
    std::string reply;
    ASSERT_EQ(reader.readLine(reply, err, 5000),
              LineReader::Status::Line)
        << err;
    EXPECT_EQ(reply, "ok");
}

// ---- the daemon's protocol body over the server ----

TEST(CellProtocol, MalformedFramesFailCleanly)
{
    for (const char *bad :
         {"not json", "{\"id\":1}", "{", "[]",
          "{\"id\":1,\"bench\":\"gsmdec\",\"arch\":\"l0-8\"}"}) {
        std::string reply = driver::handleCellLine(bad);
        driver::CellOutcome outcome;
        std::string err;
        ASSERT_TRUE(driver::CellOutcome::fromJson(reply, outcome, err))
            << "reply to a malformed frame must still be a valid "
               "CellOutcome line: "
            << err;
        EXPECT_FALSE(outcome.ok) << bad;
        EXPECT_FALSE(outcome.error.empty()) << bad;
    }
}

TEST(CellProtocol, PingAnswersPong)
{
    // Every executing side is handleCellLine behind a transport, so
    // one assertion covers the daemon and in-process test daemons: a
    // ping probe gets an immediate pong.
    EXPECT_EQ(driver::handleCellLine(driver::kCellPingLine),
              driver::kCellPongLine);
    // And a pong is NOT a valid job — a desynced stream fails loud.
    driver::CellOutcome outcome;
    std::string err;
    ASSERT_TRUE(driver::CellOutcome::fromJson(
        driver::handleCellLine(driver::kCellPongLine), outcome, err));
    EXPECT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.reason, FailReason::FrameCorrupt);
}

TEST(CellProtocol, OnlyDecodedJobFramesCountAsJobs)
{
    // What the daemon's "after N jobs" shutdown line counts: a frame
    // that decodes as a CellJob and reaches executeCellJob — a bad
    // label included — but not a ping, a metrics scrape or a
    // malformed frame.
    driver::CellJob bad;
    bad.id = 3;
    bad.bench = "no-such-bench";
    bad.arch = "l0-8";
    bad.unrolls = {1};
    struct Case
    {
        std::string line;
        bool ranJob;
    };
    for (const Case &c : {Case{driver::kCellPingLine, false},
                          Case{"metrics prom", false},
                          Case{"{\"id\":", false},
                          Case{bad.toJson(), true}}) {
        bool ranJob = !c.ranJob;
        driver::handleCellLine(c.line, &ranJob);
        EXPECT_EQ(ranJob, c.ranJob) << c.line;
    }
}

TEST(CellProtocol, FailureReasonsRoundTripTheWire)
{
    driver::CellOutcome out;
    out.id = 9;
    out.ok = false;
    out.error = "synthetic";
    out.reason = FailReason::Timeout;
    out.attempts = 4;
    driver::CellOutcome back;
    std::string err;
    ASSERT_TRUE(
        driver::CellOutcome::fromJson(out.toJson(), back, err))
        << err;
    EXPECT_EQ(back.reason, FailReason::Timeout);
    EXPECT_EQ(back.attempts, 4);
    // Every taxonomy entry has a stable wire name and decodes back.
    for (FailReason reason :
         {FailReason::Timeout, FailReason::WorkerCrash,
          FailReason::FrameCorrupt, FailReason::ConnReset,
          FailReason::JobError}) {
        EXPECT_EQ(failReasonFromName(failReasonName(reason)), reason);
    }
    // Unknown names (a newer peer) degrade to None, not a failure.
    EXPECT_EQ(failReasonFromName("quantum-flux"), FailReason::None);
}

TEST(CellProtocol, ServerAnswersJobLines)
{
    net::Server server;
    std::string err;
    ASSERT_TRUE(server.start(
        0,
        [](const std::string &line) {
            return std::optional<std::string>(
                driver::handleCellLine(line));
        },
        err))
        << err;

    Fd conn = net::connectTcp("127.0.0.1", server.port(), err);
    ASSERT_TRUE(conn.valid()) << err;
    LineReader reader(conn.get());

    // A malformed frame then a well-formed (but unresolvable) job:
    // both come back as failed outcomes on the same connection.
    ASSERT_TRUE(net::writeLine(conn.get(), "garbage", err));
    std::string reply;
    ASSERT_EQ(reader.readLine(reply, err), LineReader::Status::Line);
    driver::CellOutcome outcome;
    ASSERT_TRUE(driver::CellOutcome::fromJson(reply, outcome, err));
    EXPECT_FALSE(outcome.ok);
    EXPECT_NE(outcome.error.find("malformed job"), std::string::npos);

    driver::CellJob job;
    job.id = 42;
    job.bench = "no-such-bench";
    job.arch = "l0-8";
    ASSERT_TRUE(net::writeLine(conn.get(), job.toJson(), err));
    ASSERT_EQ(reader.readLine(reply, err), LineReader::Status::Line);
    ASSERT_TRUE(driver::CellOutcome::fromJson(reply, outcome, err));
    EXPECT_EQ(outcome.id, 42u);
    EXPECT_FALSE(outcome.ok);
    EXPECT_NE(outcome.error.find("no-such-bench"), std::string::npos);
}

// ---- OutcomeStream ----

TEST(OutcomeStream, RejectsBadDestinations)
{
    std::string err;
    EXPECT_EQ(driver::OutcomeStream::open("/no/such/dir/events.ndjson",
                                          err),
              nullptr);
    EXPECT_FALSE(err.empty());
    err.clear();
    EXPECT_EQ(driver::OutcomeStream::open("fd:9999", err), nullptr);
    EXPECT_FALSE(err.empty());
    err.clear();
    EXPECT_EQ(driver::OutcomeStream::open("fd:x", err), nullptr);
    EXPECT_FALSE(err.empty());
}

TEST(OutcomeStream, EmitsOneParseableEventPerCell)
{
    std::string path =
        ::testing::TempDir() + "outcome_stream_events.ndjson";
    {
        std::string err;
        auto stream = driver::OutcomeStream::open(path, err);
        ASSERT_NE(stream, nullptr) << err;

        driver::CellEventFn emit = stream->callback();
        for (int i = 0; i < 3; ++i) {
            driver::CellJob job;
            job.id = static_cast<std::uint64_t>(i);
            job.bench = "stream-4";
            job.arch = "l0-" + std::to_string(2 << i);
            driver::CellOutcome outcome;
            outcome.id = job.id;
            outcome.ok = i != 1;
            if (i == 1)
                outcome.error = "synthetic failure";
            emit(job, outcome, 1.5 * i);
        }
    }

    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char buf[16384];
    int events = 0;
    while (std::fgets(buf, sizeof(buf), f) != nullptr) {
        std::string line(buf);
        ASSERT_FALSE(line.empty());
        ASSERT_EQ(line.back(), '\n') << "unterminated event frame";
        line.pop_back();
        std::string err;
        auto doc = json::parse(line, &err);
        ASSERT_TRUE(doc.has_value()) << err;
        EXPECT_EQ(doc->find("event")->str(), "cell");
        EXPECT_EQ(doc->find("id")->numberToken(),
                  std::to_string(events));
        EXPECT_EQ(doc->find("bench")->str(), "stream-4");
        EXPECT_TRUE(doc->find("arch")->isString());
        EXPECT_TRUE(doc->find("ok")->isBool());
        EXPECT_EQ(doc->find("ok")->boolean(), events != 1);
        EXPECT_TRUE(doc->find("wallMs")->isNumber());
        const json::Value *outcome = doc->find("outcome");
        ASSERT_NE(outcome, nullptr);
        EXPECT_TRUE(outcome->isObject());
        ++events;
    }
    std::fclose(f);
    EXPECT_EQ(events, 3);
}
