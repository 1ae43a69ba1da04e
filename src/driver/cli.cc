#include "driver/cli.hh"

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <thread>

#include <unistd.h>

#include "common/decimal.hh"
#include "common/logging.hh"
#include "driver/registry.hh"
#include "net/fault.hh"
#include "workloads/registry.hh"

namespace l0vliw::driver
{

namespace
{

constexpr int kMaxCellTimeoutMs = 86400000;
constexpr int kMaxWindow = 256;

int
defaultJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

/** A numeric flag's value: a canonical decimal in [lo, hi], or fatal. */
int
flagNumber(const char *flag, const std::string &val, int lo, int hi)
{
    int n = 0;
    if (!parseDecimal(val, lo, hi, n))
        fatal("%s wants an integer in [%d, %d], got '%s'", flag, lo, hi,
              val.c_str());
    return n;
}

/** Split a comma-separated endpoint list (empty entries dropped). */
std::vector<std::string>
splitEndpoints(const std::string &list)
{
    std::vector<std::string> out;
    std::size_t begin = 0;
    while (begin <= list.size()) {
        std::size_t comma = list.find(',', begin);
        if (comma == std::string::npos)
            comma = list.size();
        if (comma > begin)
            out.push_back(list.substr(begin, comma - begin));
        begin = comma + 1;
    }
    return out;
}

/** The path-less program name: the default published suite name. */
std::string
baseName(const char *argv0)
{
    std::string name = argv0 == nullptr ? "" : argv0;
    std::size_t slash = name.find_last_of('/');
    if (slash != std::string::npos)
        name = name.substr(slash + 1);
    return name.empty() ? "suite" : name;
}

/** A unique-enough default run id: wall-clock seconds + pid. Runs
 *  dedup on it in the store, so colliding ids would silently merge —
 *  two publishes from one process in the same second share a run,
 *  which is exactly the resume/retry semantics we want. */
std::string
defaultRunId()
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "r%llx-%lx",
                  static_cast<unsigned long long>(std::time(nullptr)),
                  static_cast<long>(getpid()));
    return buf;
}

[[noreturn]] void
printLabelsAndExit()
{
    std::printf("architectures (registered):\n");
    for (const auto &name : archRegistry().names())
        std::printf("  %s\n", name.c_str());
    std::printf("architectures (parametric grammar):\n"
                "  l0-<N> | l0-unbounded"
                "  [-nl0 | -psr | -allcand | -pf<D>]\n");
    std::printf("workloads (registered):\n");
    for (const auto &name : workloads::workloadRegistry().names())
        std::printf("  %s\n", name.c_str());
    std::printf("workloads (parametric grammar):\n"
                "  stream-<ops> | stride-<s>x<ops> | stencil2d-<w> | "
                "reduce-<fan> | pchase-<s> | rand-s<seed>-<ops>\n");
    std::exit(0);
}

} // namespace

CliOptions
parseCli(int argc, char **argv)
{
    // Inherited fault injection first: a daemon launched under
    // L0VLIW_FAULT_INJECT must be faulty before any transport I/O
    // happens (the flag below re-installs for the explicit-flag case).
    net::installFaultPlanFromEnv();

    CliOptions opts;
    opts.jobs = defaultJobs();
    // The L0VLIW_EXECUTOR default is consulted (and validated) only
    // when no --executor flag overrides it — see after the loop.
    bool executorSet = false;
    // Likewise L0VLIW_CELL_TIMEOUT_MS, when no --cell-timeout-ms.
    bool cellTimeoutSet = false;
    // --serve preempts the driver body, but its port value needs the
    // normal flag machinery first.
    int servePort = -1;

    // Every value flag accepts --flag=value and --flag value. In the
    // space form the next argv must not itself be a flag, or a
    // forgotten value would silently swallow the following option.
    auto valueOf = [&](int &i, const std::string &arg,
                       const std::string &name) -> std::string {
        if (arg.size() > name.size() && arg[name.size()] == '=')
            return arg.substr(name.size() + 1);
        if (i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0)
            fatal("%s wants a value (see --help)", name.c_str());
        return argv[++i];
    };
    auto matches = [](const std::string &arg, const std::string &name) {
        return arg == name || arg.rfind(name + "=", 0) == 0;
    };

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (matches(arg, "--filter")) {
            opts.filter = valueOf(i, arg, "--filter");
        } else if (matches(arg, "--jobs")) {
            opts.jobs =
                flagNumber("--jobs", valueOf(i, arg, "--jobs"), 1, 4096);
            opts.jobsExplicit = true;
        } else if (matches(arg, "--executor")) {
            opts.executor =
                parseExecBackend(valueOf(i, arg, "--executor"));
            executorSet = true;
        } else if (matches(arg, "--connect")) {
            opts.connect = splitEndpoints(valueOf(i, arg, "--connect"));
        } else if (matches(arg, "--stream")) {
            opts.stream = valueOf(i, arg, "--stream");
        } else if (matches(arg, "--publish")) {
            opts.publish = valueOf(i, arg, "--publish");
        } else if (matches(arg, "--suite")) {
            opts.suiteName = valueOf(i, arg, "--suite");
        } else if (matches(arg, "--rev")) {
            opts.rev = valueOf(i, arg, "--rev");
        } else if (matches(arg, "--run-id")) {
            opts.runId = valueOf(i, arg, "--run-id");
        } else if (matches(arg, "--cell-timeout-ms")) {
            opts.cellTimeoutMs = flagNumber(
                "--cell-timeout-ms", valueOf(i, arg, "--cell-timeout-ms"),
                0, kMaxCellTimeoutMs);
            cellTimeoutSet = true;
        } else if (matches(arg, "--window")) {
            opts.window = flagNumber(
                "--window", valueOf(i, arg, "--window"), 1, kMaxWindow);
            opts.windowExplicit = true;
        } else if (matches(arg, "--degrade")) {
            opts.degrade =
                parseDegradeMode(valueOf(i, arg, "--degrade"));
            opts.degradeExplicit = true;
        } else if (matches(arg, "--trace")) {
            opts.trace = valueOf(i, arg, "--trace");
        } else if (matches(arg, "--fault-inject")) {
            std::string spec = valueOf(i, arg, "--fault-inject");
            std::string error;
            if (!net::installFaultPlanFromSpec(spec, error))
                fatal("--fault-inject: %s", error.c_str());
        } else if (matches(arg, "--serve")) {
            servePort =
                flagNumber("--serve", valueOf(i, arg, "--serve"), 1, 65535);
        } else if (matches(arg, "--format")) {
            opts.format = parseSinkFormat(valueOf(i, arg, "--format"));
        } else if (arg == "--list") {
            printLabelsAndExit();
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: %s [--filter=<substr>] [--jobs=N]\n"
                "          [--executor=inprocess|tcp]\n"
                "          [--connect=host:port[,host:port...]]\n"
                "          [--stream=<file|fd:N|->]\n"
                "          [--publish=host:port] [--suite=NAME]\n"
                "          [--rev=REV] [--run-id=ID]\n"
                "          [--cell-timeout-ms=N] [--window=N]\n"
                "          [--degrade=fail|local]\n"
                "          [--fault-inject=<spec>] [--trace=<file>]\n"
                "          [--format=table|csv|json] [--list]\n"
                "          [--serve=<port>]\n"
                "          [positional args]\n",
                argv[0]);
            std::exit(0);
        } else if (arg.rfind("--", 0) == 0) {
            fatal("unknown option '%s' (see --help)", arg.c_str());
        } else {
            opts.positional.push_back(std::move(arg));
        }
    }
    if (servePort > 0) {
        // An explicit --jobs sizes the daemon's per-connection worker
        // pool; the default lets it use every hardware thread.
        std::exit(cellDaemonMain(static_cast<std::uint16_t>(servePort),
                                 opts.jobsExplicit ? opts.jobs : 0));
    }
    if (!executorSet)
        opts.executor = execBackendFromEnv();
    if (!cellTimeoutSet) {
        const char *env = std::getenv("L0VLIW_CELL_TIMEOUT_MS");
        if (env != nullptr && *env != '\0')
            opts.cellTimeoutMs = flagNumber(
                "L0VLIW_CELL_TIMEOUT_MS", env, 0, kMaxCellTimeoutMs);
    }
    if (!opts.windowExplicit) {
        const char *env = std::getenv("L0VLIW_WINDOW");
        if (env != nullptr && *env != '\0')
            opts.window = flagNumber("L0VLIW_WINDOW", env, 1, kMaxWindow);
    }
    // Run-identity defaults: every published event needs a suite to
    // group under, a revision to diff by, and a run id to dedup on —
    // whether or not the flags were spelled out.
    if (opts.suiteName.empty())
        opts.suiteName = baseName(argc > 0 ? argv[0] : nullptr);
    if (opts.rev.empty()) {
        const char *env = std::getenv("L0VLIW_GIT_REV");
        opts.rev = env != nullptr && *env != '\0' ? env : "unknown";
    }
    if (opts.runId.empty())
        opts.runId = defaultRunId();
    return opts;
}

ExecOptions
CliOptions::exec() const
{
    ExecOptions e;
    e.backend = executor;
    e.jobs = jobs;
    e.endpoints = connect;
    e.cellTimeoutMs = cellTimeoutMs;
    e.window = window;
    e.degrade = degrade;
    if (!trace.empty()) {
        if (traceRecorder_ == nullptr)
            traceRecorder_ =
                std::make_shared<metrics::TraceRecorder>();
        e.trace = traceRecorder_.get();
    }
    // --connect without the tcp backend would run the suite locally
    // while *looking* distributed — a silently wrong measurement.
    // (The L0VLIW_CONNECT env default is exempt: it is ambient.)
    if (e.backend != ExecBackend::Tcp && !connect.empty())
        fatal("--connect only applies to --executor tcp");
    // Same shape of mistake: asking for a degradation policy or a
    // pipeline window where no channel carries the cells. (The
    // L0VLIW_WINDOW env default is exempt: it is ambient.)
    if (e.backend == ExecBackend::InProcess && degradeExplicit)
        fatal("--degrade only applies to --executor tcp");
    if (e.backend == ExecBackend::InProcess && windowExplicit)
        fatal("--window only applies to --executor tcp");
    if (e.backend == ExecBackend::Tcp) {
        if (e.endpoints.empty()) {
            const char *env = std::getenv("L0VLIW_CONNECT");
            if (env != nullptr && *env != '\0')
                e.endpoints = splitEndpoints(env);
            if (e.endpoints.empty())
                fatal("--executor tcp needs --connect host:port[,host:"
                      "port...] (or L0VLIW_CONNECT)");
        }
        // tcp parallelism is the connection count, and an explicit
        // --jobs sets it: beyond the --connect list it replicates the
        // endpoints round-robin, below it keeps only the first N (a
        // throttle). The hardware-thread default says nothing about
        // what the daemons can take and leaves the list as given.
        if (jobsExplicit) {
            std::size_t want = static_cast<std::size_t>(jobs);
            std::size_t listed = e.endpoints.size();
            if (want < listed)
                e.endpoints.resize(want);
            for (std::size_t i = listed; i < want; ++i)
                e.endpoints.push_back(e.endpoints[i % listed]);
        }
    }
    std::shared_ptr<OutcomeStream> streamSink;
    if (!stream.empty()) {
        std::string error;
        streamSink = OutcomeStream::open(stream, error);
        if (streamSink == nullptr)
            fatal("%s", error.c_str());
        // A tcp: stream target is a store; tag its events with the
        // run identity. Plain files keep the pre-store schema their
        // consumers expect.
        if (stream.rfind("tcp:", 0) == 0)
            streamSink->setMeta(suiteName, rev, runId);
    }
    if (!publish.empty() && publishSink_ == nullptr) {
        std::string error;
        publishSink_ = OutcomeStream::open("tcp:" + publish, error);
        if (publishSink_ == nullptr)
            fatal("--publish %s", error.c_str());
        // Published events carry the run identity; a plain --stream
        // file keeps the pre-store schema its consumers expect.
        publishSink_->setMeta(suiteName, rev, runId);
    }
    if (streamSink != nullptr || publishSink_ != nullptr) {
        // The sinks ride inside the callback, so their lifetime
        // follows the ExecOptions copies into Suite::run/makeExecutor.
        std::shared_ptr<OutcomeStream> store = publishSink_;
        e.onOutcome = [streamSink, store](const CellJob &job,
                                          const CellOutcome &outcome,
                                          double wallMs) {
            if (streamSink != nullptr)
                streamSink->write(job, outcome, wallMs);
            if (store != nullptr)
                store->write(job, outcome, wallMs);
        };
    }
    return e;
}

int
runSuiteMain(ExperimentSpec spec, const CliOptions &cli)
{
    spec.filter(cli.filter);
    Suite suite(std::move(spec));
    ResultGrid grid = suite.run(cli.exec());
    // Render once: the table published to the store is the very table
    // emitted below, so `l0store query latest-grid` can answer
    // byte-identically to what this driver printed.
    ResultTable table = grid.render();
    if (std::shared_ptr<OutcomeStream> store = cli.publishSink())
        store->writeGrid(table);
    makeSink(cli.format)->write(table);
    if (std::shared_ptr<metrics::TraceRecorder> rec =
            cli.traceRecorder()) {
        std::string error;
        if (!rec->writeFile(cli.trace, error))
            fatal("--trace: %s", error.c_str());
        inform("trace: %zu span(s) written to %s (load in Perfetto "
               "or chrome://tracing)",
               rec->spans().size(), cli.trace.c_str());
    }
    return 0;
}

} // namespace l0vliw::driver
