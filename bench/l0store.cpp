/**
 * @file
 * The result store: `l0store --serve <port>` runs the aggregator
 * daemon that ingests published --stream events into an append-only
 * NDJSON log (src/store), and `l0store query <host:port> <words...>`
 * asks it questions:
 *
 *   l0store --serve 4100 --log results.ndjson --retain-runs 50
 *   fig7_distributed --publish 127.0.0.1:4100 --suite fig7 --rev $SHA
 *   l0store query 127.0.0.1:4100 latest-grid fig7
 *   l0store query 127.0.0.1:4100 diff fig7 <rev-a> <rev-b> 10
 *   l0store query 127.0.0.1:4100 runs fig7
 *   l0store query 127.0.0.1:4100 stats
 *   l0store query 127.0.0.1:4100 metrics prom  # Prometheus scrape
 *   l0store compact 127.0.0.1:4100 50          # keep 50 runs/suite
 *
 * The query exit status is the store's verdict (diff returns 1 when
 * any cell regresses past the threshold), 2 on transport or protocol
 * failure — shell-scriptable, which is how bench/run_bench.sh --diff
 * rides on it. Auth/TLS are out of scope by design: bind the daemon to
 * localhost and front it with stunnel or an ssh tunnel when the
 * network is not trusted (src/store/README.md).
 */

#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/decimal.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "net/fault.hh"
#include "net/framing.hh"
#include "net/server.hh"
#include "net/socket.hh"
#include "store/service.hh"

using namespace l0vliw;

namespace
{

/** How long a query client waits for the daemon's one reply line. */
constexpr int kQueryReplyMs = 30000;

volatile std::sig_atomic_t g_signal = 0;

void
signalHandler(int sig)
{
    g_signal = sig;
}

[[noreturn]] void
usage(int exit)
{
    std::fprintf(
        exit == 0 ? stdout : stderr,
        "usage: l0store --serve <port> [--log FILE] "
        "[--retain-runs N] [--max-conns N]\n"
        "       l0store query <host:port> latest-grid <suite> [fmt]\n"
        "       l0store query <host:port> diff <suite> <rev-a> "
        "<rev-b> [threshold%%] [fmt]\n"
        "       l0store query <host:port> runs <suite> [fmt]\n"
        "       l0store query <host:port> stats [fmt]\n"
        "       l0store query <host:port> compact <keep-runs>\n"
        "       l0store query <host:port> metrics "
        "[prom|table|csv|json]\n"
        "       l0store compact <host:port> <keep-runs>\n"
        "fmt: table|csv|json (default table). --log defaults to "
        "l0store.ndjson.\n"
        "--retain-runs keeps at most N runs per suite "
        "(auto-compaction); --max-conns rejects connections past the "
        "cap with a nack.\n");
    std::exit(exit);
}

int
serveMain(std::uint16_t port, const std::string &logPath,
          int retainRuns, int maxConns)
{
    // Same shutdown discipline as the cell daemon: block the signals,
    // route them to a flag, tear down on the normal path.
    sigset_t mask, old;
    sigemptyset(&mask);
    sigaddset(&mask, SIGINT);
    sigaddset(&mask, SIGTERM);
    sigprocmask(SIG_BLOCK, &mask, &old);
    struct sigaction sa{};
    sa.sa_handler = signalHandler;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
    // A publisher vanishing mid-ack is that connection's problem.
    net::ignoreSigpipe();

    store::StoreService service;
    service.setRetainRuns(retainRuns);
    std::string error;
    if (!service.open(logPath, error))
        fatal("--log %s", error.c_str());

    // The --max-conns cap is the server's: a connection past it is
    // refused at accept, whether or not it ever sends a line.
    net::Server server;
    if (maxConns > 0)
        server.setMaxConnections(
            maxConns, store::StoreService::connectionLimitNack(maxConns));
    if (!server.start(port, service.handler(), error))
        fatal("--serve %u: %s", static_cast<unsigned>(port),
              error.c_str());

    inform("store daemon listening on port %u (pid %ld, log %s, "
           "%llu events replayed)",
           static_cast<unsigned>(server.port()),
           static_cast<long>(getpid()), logPath.c_str(),
           static_cast<unsigned long long>(
               service.log().replayed()));
    while (g_signal == 0)
        sigsuspend(&old);
    int sig = g_signal;

    server.stop();
    sigprocmask(SIG_SETMASK, &old, nullptr);
    inform("store daemon on port %u shut down on signal %d after %d "
           "connections",
           static_cast<unsigned>(server.port()), sig,
           server.connectionsAccepted());
    return 0;
}

int
queryMain(const std::string &endpoint,
          const std::vector<std::string> &words)
{
    net::HostPort hp;
    std::string error;
    if (!net::parseHostPort(endpoint, hp, error)) {
        std::fprintf(stderr, "l0store query: %s\n", error.c_str());
        return 2;
    }
    std::string request;
    for (const auto &word : words) {
        if (!request.empty())
            request += ' ';
        request += word;
    }

    net::ignoreSigpipe();
    net::Fd conn = net::connectTcp(hp.host, hp.port, error);
    if (!conn.valid()) {
        std::fprintf(stderr, "l0store query: %s\n", error.c_str());
        return 2;
    }
    if (!net::writeLine(conn.get(), request, error)) {
        std::fprintf(stderr, "l0store query: %s\n", error.c_str());
        return 2;
    }
    net::LineReader reader(conn.get());
    std::string reply;
    net::LineReader::Status status =
        reader.readLine(reply, error, kQueryReplyMs);
    if (status != net::LineReader::Status::Line) {
        std::fprintf(stderr, "l0store query: %s\n",
                     status == net::LineReader::Status::Timeout
                         ? "store did not answer in time"
                         : (status == net::LineReader::Status::Eof
                                ? "store hung up"
                                : error.c_str()));
        return 2;
    }

    std::optional<json::Value> doc = json::parse(reply, &error);
    bool ok = false;
    if (!doc || !json::getBool(*doc, "ok", ok, error)) {
        std::fprintf(stderr, "l0store query: malformed reply: %s\n",
                     error.c_str());
        return 2;
    }
    if (!ok) {
        std::string refusal = "store refused the query";
        json::getString(*doc, "error", refusal, error,
                        json::Presence::Optional);
        std::fprintf(stderr, "l0store query: %s\n", refusal.c_str());
        return 2;
    }
    std::string text;
    int exit = 0;
    if (!json::getString(*doc, "text", text, error)
        || !json::getInt(*doc, "exit", INT_MIN, INT_MAX, exit, error)) {
        std::fprintf(stderr, "l0store query: malformed reply: %s\n",
                     error.c_str());
        return 2;
    }
    // Verbatim: latest-grid must match the driver's own output byte
    // for byte, so no added newline, no reformatting.
    std::fputs(text.c_str(), stdout);
    std::fflush(stdout);
    return exit;
}

} // namespace

int
main(int argc, char **argv)
{
    // The chaos seam: a daemon or client launched under
    // L0VLIW_FAULT_INJECT is faulty before any transport I/O happens.
    net::installFaultPlanFromEnv();

    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty())
        usage(2);
    if (args[0] == "--help" || args[0] == "-h")
        usage(0);

    if (args[0] == "query") {
        if (args.size() < 3)
            usage(2);
        return queryMain(args[1],
                         {args.begin() + 2, args.end()});
    }

    if (args[0] == "compact") {
        // Sugar over the query verb: compaction runs in the daemon,
        // under its lock, while it keeps serving.
        if (args.size() != 3)
            usage(2);
        return queryMain(args[1], {"compact", args[2]});
    }

    int port = -1;
    int retainRuns = 0;
    int maxConns = 0;
    std::string logPath = "l0store.ndjson";
    for (std::size_t i = 0; i < args.size(); ++i) {
        std::string arg = args[i];
        std::string value;
        auto valueOf = [&](const char *name) {
            std::size_t eq = arg.find('=');
            if (eq != std::string::npos)
                return arg.substr(eq + 1);
            if (i + 1 >= args.size())
                fatal("%s wants a value (see --help)", name);
            return args[++i];
        };
        if (arg == "--serve" || arg.rfind("--serve=", 0) == 0) {
            std::string v = valueOf("--serve");
            // 0 is allowed: an ephemeral port, logged on startup —
            // how the CI smoke job and tests avoid port races.
            if (!parseDecimal(v, 0, 65535, port))
                fatal("--serve wants a port in [0, 65535], got '%s'",
                      v.c_str());
        } else if (arg == "--log" || arg.rfind("--log=", 0) == 0) {
            logPath = valueOf("--log");
        } else if (arg == "--retain-runs"
                   || arg.rfind("--retain-runs=", 0) == 0) {
            std::string v = valueOf("--retain-runs");
            if (!parseDecimal(v, 1, INT_MAX, retainRuns))
                fatal("--retain-runs wants an integer in [1, %d], got "
                      "'%s'",
                      INT_MAX, v.c_str());
        } else if (arg == "--max-conns"
                   || arg.rfind("--max-conns=", 0) == 0) {
            std::string v = valueOf("--max-conns");
            if (!parseDecimal(v, 1, INT_MAX, maxConns))
                fatal("--max-conns wants an integer in [1, %d], got "
                      "'%s'",
                      INT_MAX, v.c_str());
        } else {
            usage(2);
        }
    }
    if (port < 0)
        usage(2);
    return serveMain(static_cast<std::uint16_t>(port), logPath,
                     retainRuns, maxConns);
}
