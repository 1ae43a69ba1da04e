/**
 * @file
 * The repository benchmark harness (perfbench/README.md).
 *
 *   perfbench_harness run --workload W --seed N --seconds S --trace 0|1
 *                         --reference FILE --workdir DIR
 *   perfbench_harness self-test --workdir DIR
 *
 * `run` sets the workload up several times (setup_s is the median),
 * runs one untimed warm-up grid, then a closed loop of warm grids for
 * S seconds: the next grid starts only after the previous one is
 * folded and rendered. Every grid's output is checked. With --trace 0
 * the last stdout line carries the end-to-end metrics; with --trace 1
 * every loop iteration also re-executes its grid through the layers'
 * public calls (layers.cc) and the line carries the per-layer metrics.
 *
 * The wire workload, and a traced run of any workload, spawns this
 * binary twice more: `serve-cells` is
 * the product's --serve cell daemon (cellDaemonMain) and `serve-store`
 * is the product's result store (StoreService on a net::Server), the
 * same pair `l0store --serve` and a driver's `--serve` run.
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/json.hh"
#include "common/logging.hh"
#include "driver/executor.hh"
#include "driver/suite.hh"
#include "harness.hh"
#include "net/fault.hh"
#include "net/framing.hh"
#include "net/server.hh"
#include "net/socket.hh"
#include "store/service.hh"
#include "workloads/registry.hh"

extern char **environ;

using namespace l0vliw;
using namespace perfbench;

namespace
{

// ---- spawned daemons ----

/** Live children, for the exit and signal paths (lock-free: the
 *  signal handler reads it). */
constexpr int kMaxChildren = 16;
std::atomic<pid_t> g_children[kMaxChildren];

void
trackChild(pid_t pid, bool add)
{
    for (auto &slot : g_children) {
        pid_t expect = add ? 0 : pid;
        if (slot.compare_exchange_strong(expect, add ? pid : 0))
            return;
    }
}

void
killChildren()
{
    for (auto &slot : g_children) {
        pid_t pid = slot.exchange(0);
        if (pid > 0) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, nullptr, 0);
        }
    }
}

void
onSignal(int sig)
{
    for (auto &slot : g_children) {
        pid_t pid = slot.load();
        if (pid > 0) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, nullptr, 0);
        }
    }
    ::_exit(128 + sig);
}

std::string
selfExe()
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        fatal("cannot resolve /proc/self/exe");
    return std::string(buf, static_cast<std::size_t>(n));
}

/** One spawned copy of this binary in a daemon mode. */
class Daemon
{
  public:
    Daemon() = default;
    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /**
     * Start `<self> <mode> --port P <args...>` on a free loopback port
     * and wait until it accepts connections. @p faultSpec, when set,
     * is exported as L0VLIW_FAULT_INJECT; otherwise the variable is
     * removed from the child's environment.
     */
    void
    start(const std::string &mode, std::vector<std::string> args,
          const std::string &logPath, const std::string &faultSpec = "")
    {
        for (int attempt = 0; attempt < 5; ++attempt) {
            std::string error;
            std::uint16_t port = 0;
            {
                net::Fd probe = net::listenTcp(0, error, &port);
                if (!probe.valid())
                    fatal("no free port: %s", error.c_str());
            }
            std::vector<std::string> argv = {selfExe(), mode, "--port",
                                             std::to_string(port)};
            argv.insert(argv.end(), args.begin(), args.end());
            spawn(argv, logPath, faultSpec);
            if (waitListening(port)) {
                port_ = port;
                return;
            }
            stop();
        }
        fatal("%s did not start listening (see %s)", mode.c_str(),
              logPath.c_str());
    }

    /** SIGTERM, then SIGKILL after 5 s; waits for the exit. */
    void
    stop()
    {
        if (pid_ <= 0)
            return;
        ::kill(pid_, SIGTERM);
        Clock::time_point t0 = Clock::now();
        int status = 0;
        while (::waitpid(pid_, &status, WNOHANG) == 0) {
            if (secondsSince(t0) > 5.0) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, &status, 0);
                break;
            }
            ::usleep(1000);
        }
        trackChild(pid_, false);
        pid_ = -1;
    }

    std::string endpoint() const
    {
        return "127.0.0.1:" + std::to_string(port_);
    }
    pid_t pid() const { return pid_; }

  private:
    void
    spawn(const std::vector<std::string> &args, const std::string &logPath,
          const std::string &faultSpec)
    {
        std::vector<std::string> env;
        for (char **e = environ; *e != nullptr; ++e)
            if (std::strncmp(*e, "L0VLIW_", 7) != 0)
                env.push_back(*e);
        if (!faultSpec.empty())
            env.push_back("L0VLIW_FAULT_INJECT=" + faultSpec);
        std::vector<char *> argv, envp;
        for (const auto &a : args)
            argv.push_back(const_cast<char *>(a.c_str()));
        argv.push_back(nullptr);
        for (const auto &e : env)
            envp.push_back(const_cast<char *>(e.c_str()));
        envp.push_back(nullptr);

        int log = ::open(logPath.c_str(),
                         O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
        if (log < 0)
            fatal("cannot open %s: %s", logPath.c_str(),
                  std::strerror(errno));
        pid_t pid = ::fork();
        if (pid < 0)
            fatal("fork: %s", std::strerror(errno));
        if (pid == 0) {
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            ::dup2(log, 1);
            ::dup2(log, 2);
            ::execve(argv[0], argv.data(), envp.data());
            ::_exit(127);
        }
        ::close(log);
        pid_ = pid;
        trackChild(pid, true);
    }

    bool
    waitListening(std::uint16_t port)
    {
        Clock::time_point t0 = Clock::now();
        while (secondsSince(t0) < 10.0) {
            if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
                trackChild(pid_, false);
                pid_ = -1;
                return false;
            }
            std::string error;
            net::Fd conn = net::connectTcp("127.0.0.1", port, error);
            if (conn.valid())
                return true;
            ::usleep(500);
        }
        return false;
    }

    pid_t pid_ = -1;
    std::uint16_t port_ = 0;
};

/** VmHWM of @p pid in MB (0 for no process, or when unreadable). */
double
peakRssMb(pid_t pid)
{
    if (pid <= 0)
        return 0;
    std::string path = "/proc/" + std::to_string(pid) + "/status";
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (f == nullptr)
        return 0;
    char line[256];
    double mb = 0;
    while (std::fgets(line, sizeof(line), f) != nullptr)
        if (std::strncmp(line, "VmHWM:", 6) == 0)
            mb = std::strtod(line + 6, nullptr) / 1024.0;
    std::fclose(f);
    return mb;
}

// ---- daemon modes ----

int
serveStore(std::uint16_t port, const std::string &logPath)
{
    sigset_t mask, old;
    sigemptyset(&mask);
    sigaddset(&mask, SIGINT);
    sigaddset(&mask, SIGTERM);
    sigprocmask(SIG_BLOCK, &mask, &old);
    static volatile std::sig_atomic_t stopSignal = 0;
    struct sigaction sa{};
    sa.sa_handler = [](int sig) { stopSignal = sig; };
    sigemptyset(&sa.sa_mask);
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
    net::ignoreSigpipe();

    store::StoreService service;
    std::string error;
    if (!service.open(logPath, error))
        fatal("store log %s: %s", logPath.c_str(), error.c_str());
    net::Server server;
    if (!server.start(port, service.sessionHandler(),
                      service.closedHandler(), error))
        fatal("store port %u: %s", static_cast<unsigned>(port),
              error.c_str());
    while (stopSignal == 0)
        sigsuspend(&old);
    server.stop();
    return 0;
}

// ---- line-protocol clients ----

/** A persistent request/reply connection (store queries, pings). */
class LineClient
{
  public:
    bool
    connect(const std::string &endpoint, std::string &error)
    {
        net::HostPort hp;
        if (!net::parseHostPort(endpoint, hp, error))
            return false;
        fd_ = net::connectTcp(hp.host, hp.port, error);
        reader_.reset(fd_.get());
        return fd_.valid();
    }

    /** One request line, one reply line (30 s deadline). */
    bool
    call(const std::string &request, std::string &reply,
         std::string &error)
    {
        if (!net::writeLine(fd_.get(), request, error))
            return false;
        net::LineReader::Status st = reader_.readLine(reply, error, 30000);
        if (st != net::LineReader::Status::Line) {
            if (error.empty())
                error = "no reply";
            return false;
        }
        return true;
    }

  private:
    net::Fd fd_;
    net::LineReader reader_;
};

/** `latest-grid <suite>`: the reply's text, verbatim. */
bool
latestGrid(LineClient &client, const std::string &suite, std::string &text,
           std::string &error)
{
    std::string reply;
    if (!client.call("latest-grid " + suite, reply, error))
        return false;
    std::optional<json::Value> doc = json::parse(reply, &error);
    const json::Value *ok = doc ? doc->find("ok") : nullptr;
    const json::Value *body = doc ? doc->find("text") : nullptr;
    if (ok == nullptr || !ok->isBool() || !ok->boolean() || body == nullptr
        || !body->isString()) {
        error = "latest-grid refused: " + reply;
        return false;
    }
    text = body->str();
    return true;
}

// ---- one workload run ----

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10;
    bool trace = false;
    std::string reference;
    std::string workdir = ".";
};

constexpr const char *kStoreSuite = "perfbench-wire-publish";

/** What one grid of the closed loop produced. */
struct GridRun
{
    std::optional<driver::ResultGrid> grid;
    std::string table;
    double wallS = 0;
    std::vector<double> cellMs;
    std::size_t dispatched = 0;
    std::size_t failedOutcomes = 0;
    /** Captured on traced grids only. */
    std::vector<driver::CellJob> jobs;
    std::vector<driver::CellOutcome> outcomes;
    std::vector<double> publishMs;
    double gridPublishMs = 0;
    /** The concurrent latest-grid query (wire only). */
    bool queried = false;
    double queryMs = 0;
    std::string queryText;
    std::string queryError;
};

/**
 * Moves the calling thread round the CPUs the process may use, one
 * step at a time. On a shared host each virtual CPU can run at its
 * own speed for minutes (on a 4-vCPU Xeon VM, the same paper grid took
 * 1.4 s on one and 2.1 s on another at once), and a single-threaded
 * loop otherwise stays on whichever one it started on, so a run would
 * measure that CPU. Threads the caller starts inherit its CPU.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&all_);
        if (::sched_getaffinity(0, sizeof(all_), &all_) != 0)
            return;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &all_))
                cpus_.push_back(cpu);
    }

    /** Pin the calling thread to the next CPU in turn. */
    void
    pinNext()
    {
        if (cpus_.size() < 2)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next_++ % cpus_.size()], &one);
        ::sched_setaffinity(0, sizeof(one), &one);
        pinned_ = Clock::now();
    }

    /** pinNext() once the current CPU has had @p slice seconds. */
    void
    pinNextAfter(double slice)
    {
        if (secondsSince(pinned_) >= slice)
            pinNext();
    }

    /** Let the calling thread run anywhere again. */
    void
    unpin()
    {
        if (cpus_.size() >= 2)
            ::sched_setaffinity(0, sizeof(all_), &all_);
    }

  private:
    cpu_set_t all_;
    std::vector<int> cpus_;
    std::size_t next_ = 0;
    Clock::time_point pinned_ = Clock::now();
};

/** How long a serial workload's cells stay on one CPU: a paper grid
 *  visits each CPU about four times. */
constexpr double kCpuSliceS = 0.1;

/** Accumulates metric lines: printed for humans, then as JSON. */
class Report
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        std::printf("metric %-28s %14.6f %s\n", name.c_str(), value,
                    unit.c_str());
        if (!json_.empty())
            json_ += ",";
        json_ += json::quote(name) + ":{\"value\":" + json::fromDouble(value)
                 + ",\"unit\":" + json::quote(unit) + "}";
    }

    const std::string &json() const { return json_; }

  private:
    std::string json_;
};

/** Per-layer samples gathered over a run's traced iterations. */
struct LayerSamples
{
    std::vector<LayerTimes> layers;
    std::vector<double> tracedGridS;
    std::vector<double> encodeUs, decodeUs, frameBytes;
    std::vector<double> cellMs, busyMs, waitMs, publishMs, gridPublishMs;
    std::vector<double> pingUs;
    double retries = 0;
    double storeBytes = 0, storeCells = 0;
};

class Runner
{
  public:
    explicit Runner(Args args) : args_(std::move(args)) {}

    int run();

  private:
    void setUp();
    GridRun runGrid(bool traced);
    void checkGrid(const GridRun &g);
    void traceIteration(LayerSamples &s);
    /** Serial workloads: publish a traced grid's cells and table to
     *  the store after the grid, so the store layer is timed on the
     *  workload's own frames but outside its grid. */
    void publishAfter(const GridRun &g, LayerSamples &s);
    void reportLayers(const LayerSamples &s, Report &report) const;
    void fail(std::size_t cells, const std::string &why);

    Args args_;
    Workload w_;
    /** Serial workloads only: their one worker moves to the next CPU
     *  before every grid and set-up, and between cells every slice. */
    CpuRotation cpus_;
    std::unique_ptr<driver::Suite> suite_;
    std::vector<double> setupS_;

    // Wire workload only.
    Daemon cells_, store_;
    std::unique_ptr<driver::OutcomeStream> publish_;
    LineClient query_, ping_;
    std::string storeLog_;
    bool storeHasGrid_ = false;
    int gridSeq_ = 0;
    int dropped_ = 0; ///< publisher drops of earlier set-ups

    std::string firstTable_;
    std::vector<double> gridS_, cellMs_, queryMs_;
    std::map<std::string, double> fid_;
    std::size_t attempted_ = 0;
    std::size_t failed_ = 0;
    std::vector<std::string> problems_;
};

void
Runner::fail(std::size_t cells, const std::string &why)
{
    failed_ += cells;
    if (problems_.size() < 20)
        problems_.push_back(why);
}

void
Runner::setUp()
{
    // One set-up repetition: registry resolution for every workload;
    // on the wire workload also spawning the daemon and the store,
    // listening and connecting. A repetition replaces the previous
    // one's processes, and the new store holds no grid yet.
    if (publish_ != nullptr)
        dropped_ += publish_->dropped();
    publish_.reset();
    query_ = LineClient{};
    ping_ = LineClient{};
    cells_.stop();
    store_.stop();
    suite_.reset();
    storeLog_ = args_.workdir + "/store-" + std::to_string(setupS_.size())
                + ".ndjson";
    ::unlink(storeLog_.c_str());
    storeHasGrid_ = false;
    // Per connection; the executor opens two, so nproc in all.
    int workers =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency())
                        / 2);

    auto startServices = [&] {
        store_.start("serve-store", {"--log", storeLog_},
                     args_.workdir + "/store.log");
        cells_.start("serve-cells", {"--workers", std::to_string(workers)},
                     args_.workdir + "/cells.log");
        std::string error;
        publish_ =
            driver::OutcomeStream::open("tcp:" + store_.endpoint(), error);
        if (publish_ == nullptr)
            fatal("publish: %s", error.c_str());
        if (!query_.connect(store_.endpoint(), error))
            fatal("query connection: %s", error.c_str());
    };

    if (!w_.wire)
        cpus_.pinNext();
    Clock::time_point t0 = Clock::now();
    if (w_.wire)
        startServices();
    suite_ = std::make_unique<driver::Suite>(w_.spec);
    setupS_.push_back(secondsSince(t0));
    cpus_.unpin();

    // A traced run measures the net and store layers on every
    // workload: the serial ones get the same daemon and store, outside
    // set-up and outside their grids (see publishAfter).
    if (args_.trace) {
        if (!w_.wire)
            startServices();
        std::string error;
        if (!ping_.connect(cells_.endpoint(), error))
            fatal("ping connection: %s", error.c_str());
    }
}

GridRun
Runner::runGrid(bool traced)
{
    GridRun g;
    std::mutex mutex;
    driver::ExecOptions exec;
    if (w_.wire) {
        exec.backend = driver::ExecBackend::Tcp;
        exec.endpoints = {cells_.endpoint(), cells_.endpoint()};
        publish_->setMeta(kStoreSuite, "perfbench",
                          "grid-" + std::to_string(++gridSeq_));
    } else {
        exec.jobs = 1;
    }
    exec.onOutcome = [&](const driver::CellJob &job,
                         const driver::CellOutcome &outcome,
                         double wallMs) {
        // In-process cells run on this thread, between callbacks. A
        // move costs the next cell its warm caches (about 1 ms), so
        // moves come at most once per slice, not per cell.
        if (!w_.wire)
            cpus_.pinNextAfter(kCpuSliceS);
        double publishMs = 0;
        if (w_.wire) {
            Clock::time_point t0 = Clock::now();
            publish_->write(job, outcome, wallMs);
            publishMs = secondsSince(t0) * 1e3;
        }
        std::lock_guard<std::mutex> lock(mutex);
        g.cellMs.push_back(wallMs);
        ++g.dispatched;
        if (!outcome.ok)
            ++g.failedOutcomes;
        if (traced) {
            g.jobs.push_back(job);
            g.outcomes.push_back(outcome);
            if (w_.wire)
                g.publishMs.push_back(publishMs);
        }
    };

    // One latest-grid query beside the writes: it answers with the
    // last complete grid the store holds (none yet on a fresh store).
    std::thread querier;
    if (storeHasGrid_)
        querier = std::thread([&] {
            g.queried = true;
            Clock::time_point t0 = Clock::now();
            if (!latestGrid(query_, kStoreSuite, g.queryText,
                            g.queryError))
                g.queryText.clear();
            g.queryMs = secondsSince(t0) * 1e3;
        });

    Clock::time_point t0 = Clock::now();
    g.grid = suite_->run(exec);
    ResultTable table = g.grid->render();
    g.table = tableText(table);
    if (w_.wire) {
        Clock::time_point p0 = Clock::now();
        publish_->writeGrid(table);
        g.gridPublishMs = secondsSince(p0) * 1e3;
        storeHasGrid_ = true;
    }
    g.wallS = secondsSince(t0);
    if (querier.joinable()) {
        querier.join();
        queryMs_.push_back(g.queryMs);
    }
    return g;
}

void
Runner::checkGrid(const GridRun &g)
{
    attempted_ += g.dispatched;
    if (g.failedOutcomes > 0)
        fail(g.failedOutcomes, "cell outcomes not ok");
    if (g.table != firstTable_)
        fail(g.dispatched, "grid rendered differently from the first");
    if (g.queried && g.queryText != firstTable_)
        fail(g.dispatched,
             "latest-grid differs from the local table: " + g.queryError);
    const driver::ResultGrid &grid = *g.grid;
    for (std::size_t b = 0; b < grid.numBenches(); ++b)
        for (std::size_t a = 0; a < grid.numArchs(); ++a)
            if (grid.arch(a).label != "l0-4-allcand"
                && grid.cell(b, a).run.coherenceViolations != 0)
                fail(1, "coherence violations in " + grid.bench(b).name
                            + "/" + grid.arch(a).label);
}

/** Total simulated accesses of a grid: baselines plus dispatched
 *  cells (unified cells reuse their baseline). */
std::uint64_t
gridAccesses(const driver::ResultGrid &grid)
{
    std::uint64_t n = 0;
    for (std::size_t b = 0; b < grid.numBenches(); ++b) {
        n += grid.baseline(b).memAccesses;
        for (std::size_t a = 0; a < grid.numArchs(); ++a)
            if (grid.arch(a).label != "unified")
                n += grid.cell(b, a).run.memAccesses;
    }
    return n;
}

int
Runner::run()
{
    if (!makeWorkload(args_.workload, args_.seed, w_))
        fatal("unknown workload '%s'", args_.workload.c_str());
    std::printf("workload %s seed %llu%s: %zu benchmarks x %zu archs\n",
                w_.name.c_str(),
                static_cast<unsigned long long>(args_.seed),
                w_.name == "paper-serial" ? " (ignored)" : "",
                w_.spec.benchmarks.size(), w_.spec.archs.size());
    std::printf("points:");
    for (const auto &b : w_.spec.benchmarks)
        std::printf(" %s", b.c_str());
    std::printf("\n");

    // A set-up takes from 0.2 ms (serial) to 5 ms (wire), so each point
    // of the run sets up several times over.
    constexpr int kSetUpReps = 3;
    for (int i = 0; i < kSetUpReps; ++i)
        setUp();

    // Untimed warm-up grid: the reference every later grid must match.
    GridRun warm = runGrid(false);
    firstTable_ = warm.table;
    checkGrid(warm);
    std::uint64_t accessesPerGrid = gridAccesses(*warm.grid);
    std::printf("digest %s %016llx\n", w_.name.c_str(),
                static_cast<unsigned long long>(gridDigest(*warm.grid)));

    if (w_.paper) {
        std::string error;
        if (!paperFidelity(*warm.grid, args_.reference, fid_, error))
            fail(warm.dispatched, "paper reference: " + error);
        for (const auto &[name, value] : fid_)
            std::printf("fidelity %-22s %.6f\n", name.c_str(), value);
    } else {
        std::printf("fidelity: no paper reference points for %s; the "
                    "model is unvalidated here\n",
                    w_.name.c_str());
    }

    // The closed loop.
    constexpr int kRssGrids = 4;
    double peakRss = 0;
    auto samplePeakRss = [&] {
        peakRss = peakRssMb(::getpid()) + peakRssMb(cells_.pid())
                  + peakRssMb(store_.pid());
    };
    LayerSamples samples;
    // Set-up repeats at every eighth of the run, so its median samples
    // the whole run rather than one instant of it.
    Clock::time_point start = Clock::now();
    double nextSetUp = args_.seconds / 8;
    int grids = 0;
    do {
        if (secondsSince(start) >= nextSetUp) {
            for (int i = 0; i < kSetUpReps; ++i)
                setUp();
            nextSetUp += args_.seconds / 8;
        }
        if (!w_.wire)
            cpus_.pinNext();
        // Untraced: the product path as a user runs it. On the serial
        // workloads the traced iteration's own grid plays this role.
        if (!args_.trace || w_.wire) {
            GridRun g = runGrid(false);
            checkGrid(g);
            gridS_.push_back(g.wallS);
            cellMs_.insert(cellMs_.end(), g.cellMs.begin(), g.cellMs.end());
        }
        if (args_.trace)
            traceIteration(samples);
        if (++grids == kRssGrids)
            samplePeakRss();
    } while (secondsSince(start) < args_.seconds);
    cpus_.unpin();
    if (grids < kRssGrids)
        samplePeakRss();

    if (w_.wire) {
        // The same spec in-process must render the same table.
        driver::ExecOptions local;
        local.jobs = 1;
        std::string inproc = tableText(suite_->run(local).render());
        if (inproc != firstTable_)
            fail(warm.dispatched, "in-process grid differs from the "
                                  "tcp grid");
    }
    if (publish_ != nullptr)
        dropped_ += publish_->dropped();
    if (dropped_ > 0)
        fail(0, "store publisher dropped frames");

    Report report;
    std::printf("grids %d, cells attempted %zu; grid_s quartiles %.4f "
                "%.4f %.4f\n",
                grids, attempted_, percentile(gridS_, 0.25),
                percentile(gridS_, 0.5), percentile(gridS_, 0.75));
    if (!args_.trace) {
        report.add("setup_s", percentile(setupS_, 0.5), "s");
        report.add("grid_s", percentile(gridS_, 0.5), "s");
        report.add("cell_ms_p50", percentile(cellMs_, 0.5), "ms");
        // Every grid simulates the same accesses (checkGrid holds each
        // to the warm-up's table), so the run's throughput is this.
        double gridSum = 0;
        for (double s : gridS_)
            gridSum += s;
        report.add("sim_maccesses_per_s",
                   static_cast<double>(accessesPerGrid) * gridS_.size()
                       / gridSum / 1e6,
                   "Macc/s");
        report.add("peak_rss_mb", peakRss, "MB");
    } else {
        reportLayers(samples, report);
    }

    bool correct = failed_ == 0 && problems_.empty();
    for (const auto &p : problems_)
        std::printf("FAILED CHECK: %s\n", p.c_str());
    std::printf("{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,"
                "\"metrics\":{%s}}\n",
                correct ? "true" : "false", attempted_, failed_,
                report.json().c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

void
Runner::traceIteration(LayerSamples &s)
{
    struct stat before{};
    ::stat(storeLog_.c_str(), &before);
    GridRun g = runGrid(true);
    checkGrid(g);
    if (w_.wire) {
        s.tracedGridS.push_back(g.wallS);
        s.gridPublishMs.push_back(g.gridPublishMs);
        s.publishMs.insert(s.publishMs.end(), g.publishMs.begin(),
                           g.publishMs.end());
    } else {
        gridS_.push_back(g.wallS);
        publishAfter(g, s);
    }
    struct stat after{};
    ::stat(storeLog_.c_str(), &after);
    s.storeBytes += static_cast<double>(after.st_size - before.st_size);
    s.storeCells += static_cast<double>(g.dispatched);
    for (int i = 0; i < 20; ++i) {
        Clock::time_point t0 = Clock::now();
        std::string reply, error;
        if (!ping_.call(driver::kCellPingLine, reply, error)
            || reply != driver::kCellPongLine)
            fail(0, "ping: " + error);
        s.pingUs.push_back(secondsSince(t0) * 1e6);
    }

    // The executor's view of every cell, and the codec on the grid's
    // real frames (capped: the sample is large long before the cap).
    s.cellMs.insert(s.cellMs.end(), g.cellMs.begin(), g.cellMs.end());
    for (std::size_t i = 0; i < g.outcomes.size(); ++i) {
        const driver::CellOutcome &outcome = g.outcomes[i];
        s.busyMs.push_back(outcome.execUs / 1e3);
        s.waitMs.push_back(g.cellMs[i] - outcome.execUs / 1e3);
        s.retries += outcome.attempts - 1;
        if (s.encodeUs.size() >= 20000)
            continue;
        Clock::time_point t0 = Clock::now();
        std::string job = g.jobs[i].toJson();
        std::string out = outcome.toJson();
        Clock::time_point t1 = Clock::now();
        driver::CellJob j;
        driver::CellOutcome o;
        std::string error;
        bool ok = driver::CellJob::fromJson(job, j, error)
                  && driver::CellOutcome::fromJson(out, o, error);
        Clock::time_point t2 = Clock::now();
        if (!ok)
            fail(1, "codec round trip: " + error);
        s.encodeUs.push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
        s.decodeUs.push_back(
            std::chrono::duration<double, std::micro>(t2 - t1).count());
        s.frameBytes.push_back(
            static_cast<double>(job.size() + out.size() + 2));
    }

    LayerTimes t = traceGrid(*g.grid, w_.spec.benchmarks);
    if (t.mismatches > 0)
        fail(t.mismatches, "traced re-execution differs from "
                           "executeCellJob");
    if (!w_.wire)
        s.tracedGridS.push_back(t.wallS);
    s.layers.push_back(t);
}

void
Runner::publishAfter(const GridRun &g, LayerSamples &s)
{
    // The captured cells, then the table, as a --publish run sends
    // them; then the table is read back.
    publish_->setMeta(kStoreSuite, "perfbench",
                      "grid-" + std::to_string(++gridSeq_));
    for (std::size_t i = 0; i < g.jobs.size(); ++i) {
        Clock::time_point t0 = Clock::now();
        publish_->write(g.jobs[i], g.outcomes[i], g.cellMs[i]);
        s.publishMs.push_back(secondsSince(t0) * 1e3);
    }
    Clock::time_point t0 = Clock::now();
    publish_->writeGrid(g.grid->render());
    s.gridPublishMs.push_back(secondsSince(t0) * 1e3);

    std::string text, error;
    t0 = Clock::now();
    bool ok = latestGrid(query_, kStoreSuite, text, error);
    queryMs_.push_back(secondsSince(t0) * 1e3);
    if (!ok || text != firstTable_)
        fail(g.dispatched,
             "latest-grid differs from the local table: " + error);
}

void
Runner::reportLayers(const LayerSamples &s, Report &report) const
{
    auto med = [&](double (*field)(const LayerTimes &)) {
        std::vector<double> v;
        for (const LayerTimes &t : s.layers)
            v.push_back(field(t));
        return percentile(v, 0.5);
    };
    const LayerTimes &first = s.layers.front();
    std::uint64_t lookups = first.l0Hits + first.l0Misses;

    report.add("workloads.resolve_ms",
               med([](const LayerTimes &t) { return t.resolveS * 1e3; }),
               "ms");
    report.add("driver.phase0_unroll_s",
               med([](const LayerTimes &t) { return t.phase0UnrollS; }),
               "s");
    report.add("driver.phase0_baseline_s",
               med([](const LayerTimes &t) { return t.phase0BaselineS; }),
               "s");
    report.add("driver.fold_ms",
               med([](const LayerTimes &t) { return t.foldS * 1e3; }), "ms");
    report.add("ir.transform_ms",
               med([](const LayerTimes &t) { return t.irS * 1e3; }), "ms");
    report.add("sched.schedule_s",
               med([](const LayerTimes &t) { return t.scheduleS; }), "s");
    report.add("sched.validate_s",
               med([](const LayerTimes &t) { return t.validateS; }), "s");
    report.add("sim.compile_s",
               med([](const LayerTimes &t) { return t.compileS; }), "s");
    report.add("sim.run_s", med([](const LayerTimes &t) { return t.runS; }),
               "s");
    report.add("sim.oracle_s",
               med([](const LayerTimes &t) {
                   return t.runS - t.runNoOracleS;
               }),
               "s");
    report.add("sim.ns_per_access",
               med([](const LayerTimes &t) {
                   return t.runS * 1e9
                          / static_cast<double>(
                              std::max<std::uint64_t>(1, t.accesses));
               }),
               "ns");
    report.add("sim.accesses", static_cast<double>(first.accesses), "count");
    report.add("mem.create_ms",
               med([](const LayerTimes &t) { return t.memCreateS * 1e3; }),
               "ms");
    report.add("mem.l0_hit_rate",
               lookups == 0 ? 0.0
                            : static_cast<double>(first.l0Hits)
                                  / static_cast<double>(lookups),
               "ratio");
    report.add("render.emit_ms",
               med([](const LayerTimes &t) { return t.renderS * 1e3; }),
               "ms");
    report.add("codec.encode_us_per_cell", percentile(s.encodeUs, 0.5),
               "us");
    report.add("codec.decode_us_per_cell", percentile(s.decodeUs, 0.5),
               "us");
    report.add("codec.bytes_per_cell", percentile(s.frameBytes, 0.5),
               "bytes");
    report.add("exec.busy_ms_p50", percentile(s.busyMs, 0.5), "ms");
    report.add("exec.wait_ms_p50", percentile(s.waitMs, 0.5), "ms");
    report.add("exec.wait_ms_p90", percentile(s.waitMs, 0.9), "ms");
    report.add("exec.cell_ms_p90", percentile(s.cellMs, 0.9), "ms");
    report.add("exec.retries", s.retries, "count");
    report.add("net.ping_us_p50", percentile(s.pingUs, 0.5), "us");
    report.add("store.publish_ms_p50", percentile(s.publishMs, 0.5), "ms");
    report.add("store.publish_ms_p90", percentile(s.publishMs, 0.9), "ms");
    report.add("store.grid_publish_ms", percentile(s.gridPublishMs, 0.5),
               "ms");
    report.add("store.log_bytes_per_cell",
               s.storeCells == 0 ? 0.0 : s.storeBytes / s.storeCells,
               "bytes");
    report.add("store.dropped", dropped_, "count");
    report.add("store.query_ms_p50", percentile(queryMs_, 0.5), "ms");
    report.add("trace.overhead_ratio",
               percentile(s.tracedGridS, 0.5) / percentile(gridS_, 0.5),
               "ratio");
    report.add("trace.coverage",
               med([](const LayerTimes &t) {
                   return t.layerSum() / t.wallS;
               }),
               "ratio");
    for (const char *name :
         {"fid.fig5_8e_err", "fid.fig5_2e_err", "fid.allcand_err",
          "fid.unroll_mae", "fid.hitrate_gap", "fid.prefetch_err"}) {
        auto it = fid_.find(name);
        // -1: this workload has no paper reference points.
        report.add(name, it == fid_.end() ? -1.0 : it->second,
                   std::strcmp(name, "fid.unroll_mae") == 0 ? "factor"
                                                            : "ratio");
    }
}

// ---- self-test: failure accounting under injected faults ----

/**
 * Build the wire workload's jobs the way Suite::run does (phase 0 in
 * this process), run them through the tcp executor against a daemon
 * under @p faultSpec, and compare every outcome with executeCellJob in
 * process. Returns the failed-cell count; @p retries gets the attempts
 * charged beyond the first.
 */
std::size_t
faultedRun(const std::string &workdir, const std::string &faultSpec,
           int maxRetries, std::size_t &attempted, int &retries)
{
    Workload w;
    makeWorkload("wire-publish", kDefaultSeed, w);
    driver::Suite suite(w.spec);
    std::vector<driver::CellJob> jobs;
    const driver::ArchSpec unified = driver::ArchSpec::unified();
    for (const auto &label : w.spec.benchmarks) {
        workloads::Benchmark bench =
            *workloads::workloadRegistry().tryResolve(label);
        std::vector<int> unrolls = driver::chooseUnrollFactors(bench);
        auto plans = driver::buildLoopPlans(bench, unified, unrolls);
        driver::BenchmarkRun base =
            driver::runCell(bench, unified, unrolls, plans, nullptr);
        for (const auto &arch : w.spec.archs) {
            if (arch == "unified")
                continue;
            driver::CellJob job;
            job.id = jobs.size() + 1;
            job.bench = label;
            job.arch = arch;
            job.unrolls = unrolls;
            job.baseline = base;
            jobs.push_back(std::move(job));
        }
    }

    Daemon daemon;
    daemon.start("serve-cells", {"--workers", "2"},
                 workdir + "/selftest-cells.log", faultSpec);
    driver::ExecOptions exec;
    exec.backend = driver::ExecBackend::Tcp;
    exec.endpoints = {daemon.endpoint(), daemon.endpoint()};
    exec.maxRetries = maxRetries;
    exec.retryBackoffMs = 5;
    exec.cellTimeoutMs = 5000;
    driver::RemoteExecutor executor(exec);
    std::vector<driver::CellOutcome> outcomes = executor.execute(jobs);
    daemon.stop();

    std::size_t failed = 0;
    attempted = jobs.size();
    retries = executor.stats().retries;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        driver::CellOutcome local = driver::executeCellJob(jobs[i]);
        if (!outcomes[i].ok
            || driver::benchmarkRunToJson(outcomes[i].run)
                   != driver::benchmarkRunToJson(local.run))
            ++failed;
    }
    return failed;
}

int
selfTest(const std::string &workdir)
{
    bool pass = true;
    std::size_t attempted = 0;
    int retries = 0;
    const char *recoverable = "seed=7,drop@0.05,reset@0.02";
    std::size_t failed = faultedRun(workdir, recoverable, 2, attempted,
                                    retries);
    std::printf("self-test %s: attempted %zu failed %zu exec.retries %d\n",
                recoverable, attempted, failed, retries);
    if (retries == 0 || failed != 0) {
        std::printf("FAILED CHECK: recoverable faults must cost retries "
                    "and no cell\n");
        pass = false;
    }

    const char *exhausting = "seed=7,reset@1";
    failed = faultedRun(workdir, exhausting, 1, attempted, retries);
    std::printf("self-test %s: attempted %zu failed %zu exec.retries %d\n",
                exhausting, attempted, failed, retries);
    if (failed != attempted) {
        std::printf("FAILED CHECK: exhausted retries must fail every "
                    "cell\n");
        pass = false;
    }
    std::printf("self-test %s\n", pass ? "passed" : "FAILED");
    return pass ? 0 : 1;
}

// ---- argument parsing ----

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_harness run --workload W --seed N "
                 "--seconds S --trace 0|1 --reference FILE --workdir DIR\n"
                 "       perfbench_harness self-test --workdir DIR\n");
    std::exit(2);
}

std::map<std::string, std::string>
flags(int argc, char **argv, int from)
{
    std::map<std::string, std::string> out;
    for (int i = from; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0 || i + 1 >= argc)
            usage();
        out[arg.substr(2)] = argv[++i];
    }
    return out;
}

std::uint64_t
number(const std::map<std::string, std::string> &f, const char *key,
       std::uint64_t fallback)
{
    auto it = f.find(key);
    if (it == f.end())
        return fallback;
    char *end = nullptr;
    unsigned long long v = std::strtoull(it->second.c_str(), &end, 10);
    if (it->second.empty() || *end != '\0')
        fatal("--%s wants a number, got '%s'", key, it->second.c_str());
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    std::string mode = argv[1];
    std::map<std::string, std::string> f = flags(argc, argv, 2);

    if (mode == "serve-cells") {
        // A daemon launched under L0VLIW_FAULT_INJECT is faulty from
        // its first byte, as a driver's --serve is.
        net::installFaultPlanFromEnv();
        return driver::cellDaemonMain(
            static_cast<std::uint16_t>(number(f, "port", 0)),
            static_cast<int>(number(f, "workers", 1)));
    }
    if (mode == "serve-store")
        return serveStore(static_cast<std::uint16_t>(number(f, "port", 0)),
                          f["log"]);

    std::atexit(killChildren);
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    net::ignoreSigpipe();
    std::string workdir = f.count("workdir") ? f["workdir"] : ".";

    if (mode == "self-test")
        return selfTest(workdir);
    if (mode != "run")
        usage();

    Args args;
    args.workload = f["workload"];
    args.seed = number(f, "seed", kDefaultSeed);
    args.seconds = static_cast<double>(number(f, "seconds", 10));
    args.trace = number(f, "trace", 0) != 0;
    args.reference = f["reference"];
    args.workdir = workdir;
    return Runner(std::move(args)).run();
}
