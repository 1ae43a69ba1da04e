/**
 * @file
 * Transport-agnostic cell execution: the Suite describes *what* to
 * run, an Executor decides *where and how*.
 *
 * The unit of work is one (benchmark, architecture) grid cell,
 * described by a serializable CellJob — benchmark and architecture
 * *labels* (resolved through workloadRegistry()/archRegistry() on the
 * executing side, which is what makes cells addressable across a
 * process boundary), the unroll factors, and the scalar-region cycles
 * of the benchmark's unified baseline. A job with no unroll factors
 * is a *baseline job*: the worker makes the unroll decision itself,
 * runs the unified cell with its self-referential scalar region, and
 * returns the factors in the outcome. Every simulated run, baselines
 * included, is one job through one worker body (executeCellJob). The
 * result is a CellOutcome carrying the full BenchmarkRun. Both value
 * types have a lossless JSON encoding (common/json.hh): 64-bit
 * counters decode from their raw tokens and doubles travel as %.17g,
 * so a run that crossed the wire is bit-identical to one computed in
 * place.
 *
 * Two engines ship:
 *
 *  - InProcessExecutor: a work-stealing thread pool in this process.
 *  - RemoteExecutor: the one dispatch engine for cells that leave the
 *    process. It runs one thread per ExecOptions.endpoints entry, and
 *    each owns a *channel*: a TCP connection to a `--serve` worker
 *    daemon (src/net) carrying newline-delimited JSON jobs and
 *    outcomes. Every channel is *pipelined*: it windows up to
 *    ExecOptions.window jobs in flight (the frames carry per-job ids,
 *    so replies complete out of order against an in-flight map).
 *    Work assignment is credit-based: a completion frees a window
 *    slot and the endpoint immediately claims the next job off the
 *    shared queue, so a fast peer drains more of the grid than a slow
 *    one with no static partitioning. A teardown re-queues *every*
 *    windowed in-flight job (only the head of the line is charged an
 *    attempt) and reconnects with backoff (which also rides out a
 *    daemon restart). An endpoint that exhausts a job's retry budget
 *    hands the job back to the shared queue and retires — the
 *    surviving endpoints absorb its load, and only when every
 *    endpoint is gone do jobs fail in their outcomes.
 *
 * Every cell is a deterministic pure function of its job, so all
 * backends produce bit-identical grids for every jobs/endpoint count
 * (tests/test_executor.cc proves it across every registered ArchSpec).
 *
 * Completion streaming: ExecOptions.onOutcome, when set, fires once
 * per job as its final outcome lands (from whichever worker thread
 * finished it). OutcomeStream adapts that hook into an NDJSON event
 * stream — the drivers' --stream flag, one line per completed cell.
 */

#ifndef L0VLIW_DRIVER_EXECUTOR_HH
#define L0VLIW_DRIVER_EXECUTOR_HH

#include <cstddef>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result_sink.hh"
#include "common/rng.hh"
#include "driver/retry.hh"
#include "driver/runner.hh"
#include "net/framing.hh"
#include "net/socket.hh"

namespace l0vliw::metrics
{
class TraceRecorder;
}

namespace l0vliw::driver
{

/** Where cells execute. */
enum class ExecBackend
{
    InProcess, ///< worker threads in this process
    Tcp,       ///< --serve daemons reached over TCP (src/net)
};

/** Parse "inprocess" | "tcp" (fatal otherwise). */
ExecBackend parseExecBackend(const std::string &name);

/** The L0VLIW_EXECUTOR environment default (InProcess when unset). */
ExecBackend execBackendFromEnv();

struct CellJob;
struct CellOutcome;

/**
 * Per-completed-cell notification: the job, its final outcome (after
 * any retries), and the wall time from first dispatch to outcome.
 * Invoked concurrently from worker threads — sinks must lock.
 */
using CellEventFn = std::function<void(
    const CellJob &job, const CellOutcome &outcome, double wallMs)>;

/** How a Suite executes its cells (the drivers' --executor/--jobs). */
struct ExecOptions
{
    ExecBackend backend = ExecBackend::InProcess;
    /** InProcess: worker threads in this process (<= 1: one). */
    int jobs = 1;
    /** Tcp: retry budget per job on a channel teardown
     *  (attempts = maxRetries + 1). */
    int maxRetries = 2;
    /**
     * Tcp: the "host:port" worker daemons (the drivers' --connect).
     * One connection — and one pool thread — per entry; list a daemon
     * twice for two concurrent streams into it.
     */
    std::vector<std::string> endpoints;
    /**
     * Tcp: base retry backoff. Attempt k waits base * 2^(k-1) capped
     * at maxBackoffMs, jittered +/- 50% (RetryPolicy) — the jitter
     * keeps N connections to a restarted daemon from re-stampeding it
     * in lockstep.
     */
    int retryBackoffMs = 50;
    /** Tcp: backoff cap before jitter. */
    int maxBackoffMs = 2000;
    /**
     * Tcp: per-job wall-clock deadline (the drivers'
     * --cell-timeout-ms); a remote cell must resolve in bounded time.
     * 0 disables. A blown deadline tears the channel down like any
     * other break. InProcess: not applicable (a compute thread cannot
     * be safely preempted; cells are pure deterministic functions, so
     * locally a slow cell is just slow).
     */
    int cellTimeoutMs = 60000;
    /**
     * Tcp: heartbeat interval — an *idle-channel* timer. A
     * {"event":"ping"} probe goes out on fresh channels and on
     * channels that have sat idle (no job in flight, no exchange) for
     * this long while the endpoint waits for work, and the peer must
     * pong within the same bound — a silent (accepted but wedged)
     * peer is detected in bounded time instead of swallowing a job
     * for its full deadline. A channel with jobs in flight is never
     * pinged: the replies themselves prove liveness, and the per-job
     * deadline bounds their silence. 0 disables.
     */
    int heartbeatMs = 5000;
    /**
     * Tcp: jobs windowed per channel (the drivers' --window, >= 1).
     * The client keeps up to this many jobs in flight on each
     * channel, matching replies by id; 1 is strict lockstep (one
     * request, one reply — bit-identical outcomes either way, cells
     * are pure). Higher windows hide link round trips; see
     * src/net/PROTOCOL.md and the README note on picking a value.
     */
    int window = 4;
    /** Fires once per job with its final outcome; see CellEventFn. */
    CellEventFn onOutcome;
    /**
     * When set (the drivers' --trace), every backend records the
     * per-cell span chain here — enqueue, cell, wire-write, plan-build,
     * execute, fold — keyed by wire job id (metrics/trace.hh). The
     * recorder must outlive the executor run. Not owned.
     */
    metrics::TraceRecorder *trace = nullptr;
};

/** One serializable unit of grid work. */
struct CellJob
{
    std::uint64_t id = 0;        ///< echoed back in the outcome
    std::string bench;           ///< workloadRegistry() label
    std::string arch;            ///< archRegistry() label
    /** The unroll decision, one factor per loop; empty marks a
     *  baseline job (arch "unified"), which decides them itself. */
    std::vector<int> unrolls;
    /** The benchmark's unified baseline. Only its scalarCycles is
     *  read (runCell()) and only it travels on the wire, so workers
     *  stay stateless; ignored by a baseline job. */
    BenchmarkRun baseline;

    /** One-line JSON encoding (no raw newlines). */
    std::string toJson() const;
    /** Decode; false leaves @p out unspecified and sets @p error. */
    static bool fromJson(const std::string &text, CellJob &out,
                         std::string &error);
};

/** The result of one CellJob. */
struct CellOutcome
{
    std::uint64_t id = 0;
    bool ok = false;
    std::string error; ///< set when !ok (prose for humans)
    /** Structured diagnosis when !ok (machine-readable counterpart of
     *  error; see FailReason). None on ok outcomes. */
    FailReason reason = FailReason::None;
    /** Transport attempts the final outcome cost (1 = first try). */
    int attempts = 1;
    /**
     * Daemon-side span timings, measured by executeCellJob on the
     * executing side and ridden back inside the outcome frame so a
     * client trace covers both sides of the wire without a shared
     * clock: total execute wall time and the plan-build slice of it,
     * both in microseconds; 0 when nothing executed (the id-0
     * malformed-frame reply).
     */
    double execUs = 0;
    double planUs = 0;
    /** A baseline job's unroll decision, one factor per loop (empty
     *  for every other job). */
    std::vector<int> unrolls;
    BenchmarkRun run; ///< the full aggregated cell run

    std::string toJson() const;
    static bool fromJson(const std::string &text, CellOutcome &out,
                         std::string &error);
};

/** Lossless BenchmarkRun JSON (every field, memStats included). */
std::string benchmarkRunToJson(const BenchmarkRun &run);
bool benchmarkRunFromJson(const std::string &text, BenchmarkRun &out,
                          std::string &error);

/**
 * The worker body shared by every backend: resolve the job's labels
 * through the registries, make the unroll decision (baseline jobs
 * only), compile plans, run the cell. Label, shape and factor errors
 * (a factor below 1 or above its loop's trip count) come back as a
 * failed job-error outcome, not a crash.
 */
CellOutcome executeCellJob(const CellJob &job);

/** Executes a batch of cell jobs; outcomes are positional. */
class Executor
{
  public:
    virtual ~Executor() = default;

    /**
     * Execute every job; the returned vector is parallel to @p jobs
     * (outcome i belongs to jobs[i]). Jobs may run in any order and
     * concurrency, but every outcome is deterministic.
     */
    virtual std::vector<CellOutcome>
    execute(const std::vector<CellJob> &jobs) = 0;
};

/** Today's thread pool behind the Executor interface. */
class InProcessExecutor : public Executor
{
  public:
    explicit InProcessExecutor(const ExecOptions &opts) : opts_(opts) {}
    std::vector<CellOutcome>
    execute(const std::vector<CellJob> &jobs) override;

  private:
    ExecOptions opts_;
};

/** Ships cell jobs over TCP to --serve daemons (ExecBackend::Tcp). */
class RemoteExecutor : public Executor
{
  public:
    /** Channel-health counters: the executor's one record of them
     *  (tests and benchmarks read it; no metrics series mirrors it). */
    struct Stats
    {
        int connects = 0;   ///< channels opened (initial + reopened)
        int reconnects = 0; ///< channels reopened after a teardown
        int retries = 0;    ///< job attempts charged beyond the first
        int timeouts = 0;   ///< deadline/heartbeat expiries observed
        int maxInFlight = 0; ///< peak windowed jobs on one connection
        /** Final outcomes each endpoint produced, by endpoint index —
         *  how credit-based assignment shows: a fast peer's entry
         *  dwarfs a slow one's. */
        std::vector<int> jobsPerEndpoint;
    };

    /** Fatal on an empty or malformed ExecOptions.endpoints list. */
    explicit RemoteExecutor(const ExecOptions &opts);
    std::vector<CellOutcome>
    execute(const std::vector<CellJob> &jobs) override;

    const Stats &stats() const { return stats_; }

  private:
    ExecOptions opts_;
    Stats stats_;
};

std::unique_ptr<Executor> makeExecutor(const ExecOptions &opts);

/**
 * The heartbeat probe frames. A client sends kCellPingLine on a fresh
 * channel or one that has sat idle with nothing in flight; every
 * executing side (handleCellLine, so the daemon and in-process test
 * daemons alike) answers kCellPongLine —
 * proof the peer is not merely accepting bytes but actually serving
 * its protocol loop. Channels with jobs in flight are never
 * pinged (see ExecOptions.heartbeatMs).
 */
extern const char *const kCellPingLine;
extern const char *const kCellPongLine;

/**
 * One protocol round trip, transport-free: decode a CellJob line,
 * execute it, encode the CellOutcome line. Malformed frames come back
 * as a failed outcome (id 0, reason frame-corrupt), never a crash —
 * the --serve daemon is this function behind a transport.
 * kCellPingLine answers kCellPongLine. @p ranJob, when given, is set
 * to whether the line decoded as a CellJob and went to
 * executeCellJob (pings, scrapes and malformed frames do not).
 */
std::string handleCellLine(const std::string &line,
                           bool *ranJob = nullptr);

/**
 * The --serve CLI mode: a worker daemon answering CellJob lines with
 * CellOutcome lines over TCP (any number of drivers). Each connection
 * is served by @p workers handler threads fed from a bounded frame
 * queue, replying as cells complete — out of request order, which the
 * pipelined client resolves by id (workers <= 0 defaults to the
 * hardware thread count; 1 is the historical strict request/reply
 * loop). Blocks until SIGINT/SIGTERM, then stops accepting, drops
 * every connection, joins all threads, logs a final line, and returns
 * 0 — the graceful-shutdown contract the CI loopback job asserts.
 * @p port 0 picks an ephemeral port (logged on startup).
 */
int cellDaemonMain(std::uint16_t port, int workers = 0);

/**
 * The --stream sink: one NDJSON event per completed cell, written as
 * outcomes land (any backend, any thread — writes are serialized and
 * flushed per event). Event schema (src/driver/README.md):
 *
 *   {"event":"cell","id":7,"bench":"gsmdec","arch":"l0-8",
 *    "ok":true,"attempts":1,"wallMs":12.5,
 *    "outcome":{...full CellOutcome...}}
 *
 * A failed cell additionally carries "reason":"<failReasonName>" so a
 * consumer can diagnose without parsing prose. When run identity is
 * set (setMeta — the drivers' --publish path), every event also
 * carries "suite"/"rev"/"run" fields right after "arch".
 *
 * A "tcp:host:port" spec turns the sink into a store publisher: each
 * event travels as a writeLine frame to an l0store daemon, which
 * answers every line with one ack, in order. Up to kPublishWindow
 * frames ride unacked: the n-th reply settles the n-th unsettled
 * frame (a nack settles it too, with a warning). On any break the
 * publisher reconnects with backoff and resends every unsettled frame
 * in order, one frame at first and twice as many per ack, so a link
 * that keeps breaking is retried as in lockstep. Frames are idempotent
 * on the store side (keyed by run and cell id), so at-least-once
 * delivery is safe; a frame that exhausts its retry budget is dropped
 * with a warning — publishing must never hang or sink the suite that
 * is being measured.
 */
class OutcomeStream
{
  public:
    /**
     * Open @p spec: "-" appends to stdout, "tcp:host:port" connects
     * to a store daemon (the drivers' --publish), anything else is a
     * file path (truncated). Null + @p error on failure — a tcp: spec fails
     * here, eagerly, when the daemon is unreachable.
     */
    static std::unique_ptr<OutcomeStream> open(const std::string &spec,
                                               std::string &error);
    ~OutcomeStream();

    OutcomeStream(const OutcomeStream &) = delete;
    OutcomeStream &operator=(const OutcomeStream &) = delete;

    /**
     * Stamp run identity into every subsequent event and grid frame:
     * which suite this grid belongs to, at which source revision, in
     * which run. All-empty (the default) omits the fields — the
     * pre-store event schema, byte for byte.
     */
    void setMeta(std::string suite, std::string rev, std::string run);

    /**
     * Emit one event line (locked). A file is flushed per event; a tcp
     * publisher sends the frame, takes the acks that have already
     * arrived, and waits (bounded) only while the window is full.
     */
    void write(const CellJob &job, const CellOutcome &outcome,
               double wallMs);

    /**
     * Emit the rendered grid as a frame carrying the full ResultTable
     * in its lossless wire form (tableToWireJson) — what lets the
     * store answer latest-grid byte-identically to the driver's own
     * output:
     *
     *   {"event":"grid","suite":...,"rev":...,"run":...,"table":{...}}
     *
     * Only the --publish path calls this; plain --stream files keep
     * the cells-only schema their consumers expect. Returns once every
     * frame sent so far is settled (acked, nacked or dropped).
     */
    void writeGrid(const ResultTable &table);

    /** Events/grids that permanently failed to reach a tcp: store. */
    int dropped() const { return dropped_; }

    /** An ExecOptions.onOutcome bound to this stream. */
    CellEventFn
    callback()
    {
        return [this](const CellJob &job, const CellOutcome &outcome,
                      double wallMs) { write(job, outcome, wallMs); };
    }

  private:
    explicit OutcomeStream(std::FILE *out) : out_(out) {}
    explicit OutcomeStream(net::HostPort store);

    /** Published frames in flight before a write waits for an ack. */
    static constexpr std::size_t kPublishWindow = 64;

    /** A published frame the store has not answered yet. */
    struct Unsettled
    {
        std::string line;
        int failures = 0; ///< breaks while it was the oldest unsettled
    };

    /** Append the run-identity fields when set (mutex held). */
    void appendMeta(std::string &event) const;
    /** Ship one frame: file write or tcp window send (mutex held). */
    void emitLine(const std::string &line);
    /**
     * Send the frames the window allows and take the store's replies
     * until at most @p keep frames are unsettled and all are sent,
     * waiting (bounded per reply) only while that does not hold, then
     * take the replies that have already arrived; reconnects and
     * resends on a break (mutex held).
     */
    void settle(std::size_t keep);
    /** Open a fresh connection after a backoff paced by the oldest
     *  frame's failures; false sets @p error. */
    bool reconnect(std::string &error);
    /** Close the connection after @p error, shrink the window to one
     *  frame and charge the oldest frame; one whose attempts are spent
     *  is dropped with a warning. */
    void disconnect(const std::string &error);

    std::FILE *out_ = nullptr;

    net::HostPort store_;   ///< tcp: daemon endpoint (tcp mode only)
    bool tcp_ = false;
    net::Fd sock_;
    net::LineReader reader_;
    std::deque<Unsettled> window_; ///< oldest first
    std::size_t sent_ = 0; ///< window_ prefix sent on sock_
    /** Frames sock_ may carry unacked: one after a break, doubling
     *  per ack up to kPublishWindow. */
    std::size_t limit_ = kPublishWindow;
    Rng rng_{0x9b115edau};
    int dropped_ = 0;

    std::string suite_, rev_, run_;
    std::mutex mutex_;
};

} // namespace l0vliw::driver

#endif // L0VLIW_DRIVER_EXECUTOR_HH
