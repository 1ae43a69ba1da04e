#include "driver/executor.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "common/decimal.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "driver/registry.hh"
#include "metrics/registry.hh"
#include "metrics/trace.hh"
#include "net/framing.hh"
#include "net/server.hh"
#include "net/socket.hh"
#include "workloads/registry.hh"

namespace l0vliw::driver
{

// ---- backend selection ----

ExecBackend
parseExecBackend(const std::string &name)
{
    if (name == "inprocess")
        return ExecBackend::InProcess;
    if (name == "tcp")
        return ExecBackend::Tcp;
    fatal("unknown executor '%s' (expected inprocess|tcp)",
          name.c_str());
}

ExecBackend
execBackendFromEnv()
{
    const char *env = std::getenv("L0VLIW_EXECUTOR");
    if (env == nullptr || *env == '\0')
        return ExecBackend::InProcess;
    return parseExecBackend(env);
}

DegradeMode
parseDegradeMode(const std::string &name)
{
    if (name == "fail")
        return DegradeMode::Fail;
    if (name == "local")
        return DegradeMode::Local;
    fatal("unknown degrade mode '%s' (expected fail|local)",
          name.c_str());
}

// ---- wire encoding ----

namespace
{

void
appendField(std::string &out, const char *key, std::uint64_t v)
{
    out += json::quote(key);
    out += ':';
    out += std::to_string(v);
}

/**
 * The "unrolls" array: each factor an integer in int range — a
 * fraction or an out-of-range value is an error, never truncated or
 * wrapped. Range checks against the loops are executeCellJob's.
 */
bool
getUnrolls(const json::Value &obj, std::vector<int> &out,
           std::string &error)
{
    const json::Value *v = obj.find("unrolls");
    if (v == nullptr || !v->isArray()) {
        error = "missing or non-array field 'unrolls'";
        return false;
    }
    for (const auto &u : v->items()) {
        int n = 0;
        if (!json::toInt(u, INT_MIN, INT_MAX, n)) {
            error = "non-integer or out-of-range entry in 'unrolls'";
            return false;
        }
        out.push_back(n);
    }
    return true;
}

void
appendUnrolls(std::string &out, const std::vector<int> &unrolls)
{
    out += "\"unrolls\":[";
    for (std::size_t i = 0; i < unrolls.size(); ++i) {
        if (i)
            out += ',';
        out += std::to_string(unrolls[i]);
    }
    out += ']';
}

void
appendBenchmarkRun(std::string &out, const BenchmarkRun &run)
{
    out += '{';
    out += "\"bench\":" + json::quote(run.bench);
    out += ",\"arch\":" + json::quote(run.arch);
    out += ',';
    appendField(out, "loopCompute", run.loopCompute);
    out += ',';
    appendField(out, "loopStall", run.loopStall);
    out += ',';
    appendField(out, "scalarCycles", run.scalarCycles);
    out += ',';
    appendField(out, "memAccesses", run.memAccesses);
    out += ',';
    appendField(out, "coherenceViolations", run.coherenceViolations);
    out += ",\"avgUnroll\":" + json::fromDouble(run.avgUnroll);
    out += ',';
    appendField(out, "l0Hits", run.l0Hits);
    out += ',';
    appendField(out, "l0Misses", run.l0Misses);
    out += ',';
    appendField(out, "fillsLinear", run.fillsLinear);
    out += ',';
    appendField(out, "fillsInterleaved", run.fillsInterleaved);
    out += ",\"memStats\":{";
    bool first = true;
    for (const auto &kv : run.memStats.all()) {
        if (!first)
            out += ',';
        first = false;
        appendField(out, kv.first.c_str(), kv.second);
    }
    out += "}}";
}

bool
decodeBenchmarkRun(const json::Value &obj, BenchmarkRun &out,
                   std::string &error)
{
    out = BenchmarkRun{};
    if (!json::getString(obj, "bench", out.bench, error)
        || !json::getString(obj, "arch", out.arch, error)
        || !json::getU64(obj, "loopCompute", out.loopCompute, error)
        || !json::getU64(obj, "loopStall", out.loopStall, error)
        || !json::getU64(obj, "scalarCycles", out.scalarCycles, error)
        || !json::getU64(obj, "memAccesses", out.memAccesses, error)
        || !json::getU64(obj, "coherenceViolations",
                         out.coherenceViolations, error)
        || !json::getDouble(obj, "avgUnroll", out.avgUnroll, error)
        || !json::getU64(obj, "l0Hits", out.l0Hits, error)
        || !json::getU64(obj, "l0Misses", out.l0Misses, error)
        || !json::getU64(obj, "fillsLinear", out.fillsLinear, error)
        || !json::getU64(obj, "fillsInterleaved", out.fillsInterleaved,
                         error))
        return false;
    const json::Value *stats = obj.find("memStats");
    if (stats == nullptr || !stats->isObject()) {
        error = "missing or non-object field 'memStats'";
        return false;
    }
    for (const auto &kv : stats->members()) {
        std::uint64_t counter = 0;
        if (!json::toU64(kv.second, counter)) {
            error = "memStats counter '" + kv.first + "' is not a u64";
            return false;
        }
        out.memStats.set(kv.first, counter);
    }
    return true;
}

} // namespace

std::string
benchmarkRunToJson(const BenchmarkRun &run)
{
    std::string out;
    appendBenchmarkRun(out, run);
    return out;
}

bool
benchmarkRunFromJson(const std::string &text, BenchmarkRun &out,
                     std::string &error)
{
    std::optional<json::Value> doc = json::parse(text, &error);
    if (!doc)
        return false;
    return decodeBenchmarkRun(*doc, out, error);
}

std::string
CellJob::toJson() const
{
    std::string out = "{";
    appendField(out, "id", id);
    out += ",\"bench\":" + json::quote(bench);
    out += ",\"arch\":" + json::quote(arch);
    out += ',';
    appendUnrolls(out, unrolls);
    out += ',';
    appendField(out, "scalarCycles", baseline.scalarCycles);
    out += '}';
    return out;
}

bool
CellJob::fromJson(const std::string &text, CellJob &out,
                  std::string &error)
{
    std::optional<json::Value> doc = json::parse(text, &error);
    if (!doc)
        return false;
    out = CellJob{};
    return json::getU64(*doc, "id", out.id, error)
           && json::getString(*doc, "bench", out.bench, error)
           && json::getString(*doc, "arch", out.arch, error)
           && getUnrolls(*doc, out.unrolls, error)
           && json::getU64(*doc, "scalarCycles",
                           out.baseline.scalarCycles, error);
}

std::string
CellOutcome::toJson() const
{
    std::string out = "{";
    appendField(out, "id", id);
    out += ",\"ok\":";
    out += ok ? "true" : "false";
    if (!error.empty())
        out += ",\"error\":" + json::quote(error);
    if (reason != FailReason::None)
        out += ",\"reason\":" + json::quote(failReasonName(reason));
    out += ",\"attempts\":" + std::to_string(attempts);
    out += ",\"execUs\":" + json::fromDouble(execUs);
    out += ",\"planUs\":" + json::fromDouble(planUs);
    if (!unrolls.empty()) {
        out += ',';
        appendUnrolls(out, unrolls);
    }
    out += ",\"run\":";
    appendBenchmarkRun(out, run);
    out += '}';
    return out;
}

bool
CellOutcome::fromJson(const std::string &text, CellOutcome &out,
                      std::string &error)
{
    std::optional<json::Value> doc = json::parse(text, &error);
    if (!doc)
        return false;
    out = CellOutcome{};
    // Only failures carry a reason; an unknown name decodes to None.
    std::string reason;
    if (!json::getU64(*doc, "id", out.id, error)
        || !json::getBool(*doc, "ok", out.ok, error)
        || !json::getString(*doc, "error", out.error, error,
                            json::Presence::Optional)
        || !json::getString(*doc, "reason", reason, error,
                            json::Presence::Optional)
        || !json::getInt(*doc, "attempts", 0, INT_MAX, out.attempts,
                         error)
        || !json::getDouble(*doc, "execUs", out.execUs, error)
        || !json::getDouble(*doc, "planUs", out.planUs, error)
        || (doc->find("unrolls") != nullptr
            && !getUnrolls(*doc, out.unrolls, error)))
        return false;
    out.reason = failReasonFromName(reason);
    const json::Value *run = doc->find("run");
    if (run == nullptr) {
        error = "missing field 'run'";
        return false;
    }
    return decodeBenchmarkRun(*run, out.run, error);
}

// ---- the worker body ----

CellOutcome
executeCellJob(const CellJob &job)
{
    auto t0 = std::chrono::steady_clock::now();
    CellOutcome out;
    out.id = job.id;

    out.reason = FailReason::JobError; // until proven runnable

    std::optional<workloads::Benchmark> bench =
        workloads::workloadRegistry().tryResolve(job.bench);
    if (!bench) {
        out.error = "unknown benchmark label '" + job.bench + "'";
        return out;
    }
    std::optional<ArchSpec> arch = archRegistry().tryResolve(job.arch);
    if (!arch) {
        out.error = "unknown architecture label '" + job.arch + "'";
        return out;
    }
    // A baseline job (no factors) makes the unroll decision itself and
    // normalises against its own run; every other job brings both.
    const bool baseline = job.unrolls.empty();
    if (baseline ? arch->label != "unified"
                 : job.unrolls.size() != bench->loops.size()) {
        out.error = job.bench + "/" + job.arch + ": "
                    + std::to_string(job.unrolls.size())
                    + " unroll factors for "
                    + std::to_string(bench->loops.size())
                    + " loops (only a unified job may carry none)";
        return out;
    }
    for (std::size_t i = 0; i < job.unrolls.size(); ++i) {
        const std::uint64_t trips = bench->loops[i].trips;
        if (job.unrolls[i] < 1
            || static_cast<std::uint64_t>(job.unrolls[i]) > trips) {
            out.error = "unroll factor " + std::to_string(job.unrolls[i])
                        + " outside 1.." + std::to_string(trips)
                        + ", its loop's trip count";
            return out;
        }
    }
    out.reason = FailReason::None;

    auto planStart = std::chrono::steady_clock::now();
    std::vector<int> unrolls =
        baseline ? chooseUnrollFactors(*bench) : job.unrolls;
    auto plans = buildLoopPlans(*bench, *arch, unrolls);
    auto planEnd = std::chrono::steady_clock::now();
    out.run = runCell(*bench, *arch, unrolls, plans,
                      baseline ? nullptr : &job.baseline);
    if (baseline)
        out.unrolls = std::move(unrolls);
    out.ok = true;
    // The executing side's own span timings ride back in the outcome
    // frame (no shared clock with the client; see CellOutcome).
    auto end = std::chrono::steady_clock::now();
    out.execUs =
        std::chrono::duration<double, std::micro>(end - t0).count();
    out.planUs =
        std::chrono::duration<double, std::micro>(planEnd - planStart)
            .count();
    {
        static metrics::Counter &cells = metrics::counter(
            "l0vliw_driver_cells_executed_total",
            "Cell jobs executed by this process (any backend; a "
            "daemon counts the cells it serves)");
        cells.inc();
    }
    return out;
}

// ---- in-process backend ----

namespace
{

using ExecClock = std::chrono::steady_clock;

/** Mixes pool-thread ordinals into distinct backoff-jitter seeds. */
constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

/**
 * Per-finished-job bookkeeping shared by every backend: the
 * cell/execute/plan-build trace spans and the ExecOptions.onOutcome
 * callback. @p start is the job's first dispatch — a retried or
 * handed-off job's wall time covers every burned attempt.
 */
void
emitOutcomeEvent(const ExecOptions &opts, const CellJob &job,
                 const CellOutcome &outcome, ExecClock::time_point start)
{
    ExecClock::time_point end = ExecClock::now();
    double wallMs =
        std::chrono::duration<double, std::milli>(end - start).count();
    if (opts.trace != nullptr) {
        double startUs = opts.trace->sinceUs(start);
        double endUs = opts.trace->sinceUs(end);
        metrics::TraceSpan cell{
            job.id, "cell", "driver", startUs, endUs - startUs,
            {{"bench", job.bench},
             {"arch", job.arch},
             {"ok", outcome.ok ? "true" : "false"},
             {"attempts", std::to_string(outcome.attempts)}}};
        if (!outcome.ok && outcome.reason != FailReason::None)
            cell.args.emplace_back("reason",
                                   failReasonName(outcome.reason));
        opts.trace->record(std::move(cell));
        // The executing side has no shared clock: anchor its
        // self-measured spans to end when the reply landed here.
        double execStart = endUs - outcome.execUs;
        if (outcome.execUs > 0)
            opts.trace->record({job.id, "execute", "worker", execStart,
                                outcome.execUs, {}});
        if (outcome.execUs > 0 && outcome.planUs > 0)
            opts.trace->record({job.id, "plan-build", "worker", execStart,
                                outcome.planUs, {}});
    }
    if (opts.onOutcome)
        opts.onOutcome(job, outcome, wallMs);
}

/** A successful wire write of job @p id becomes one trace span. */
void
recordWireWrite(const ExecOptions &opts, std::uint64_t id,
                ExecClock::time_point start)
{
    if (opts.trace == nullptr)
        return;
    double startUs = opts.trace->sinceUs(start);
    opts.trace->record({id, "wire-write", "tcp", startUs,
                        opts.trace->nowUs() - startUs, {}});
}

/** Pool threads for @p tasks jobs: min(jobs, tasks), at least one. */
std::size_t
poolSize(const ExecOptions &opts, std::size_t tasks)
{
    return opts.jobs <= 1 ? 1 : std::min<std::size_t>(opts.jobs, tasks);
}

/** Fill the permanent-failure fields of a job that exhausted its
 *  budget: the prose context plus the structured diagnosis. */
void
fillFailedOutcome(CellOutcome &out, const CellJob &job,
                  const std::string &via, int attempts,
                  const std::string &lastError, FailReason reason)
{
    out.id = job.id;
    out.ok = false;
    out.error = "cell " + job.bench + "/" + job.arch + via
                + " failed after " + std::to_string(attempts)
                + " attempts: " + lastError;
    out.reason = reason;
    out.attempts = attempts;
}

} // namespace

std::vector<CellOutcome>
InProcessExecutor::execute(const std::vector<CellJob> &jobs)
{
    std::vector<CellOutcome> outcomes(jobs.size());
    if (jobs.empty())
        return outcomes;

    // Every worker, this thread included, loops over a shared
    // work-stealing index.
    std::atomic<std::size_t> next{0};
    auto work = [&]() {
        for (;;) {
            std::size_t i = next.fetch_add(1);
            if (i >= jobs.size())
                break;
            ExecClock::time_point start = ExecClock::now();
            outcomes[i] = executeCellJob(jobs[i]);
            emitOutcomeEvent(opts_, jobs[i], outcomes[i], start);
        }
    };
    std::vector<std::thread> pool;
    for (std::size_t w = 1; w < poolSize(opts_, jobs.size()); ++w)
        pool.emplace_back(work);
    work();
    for (auto &t : pool)
        t.join();
    return outcomes;
}

// ---- endpoints: where the jobs travel ----

namespace
{

/** One --connect entry: a daemon, and the name diagnostics give it. */
struct Endpoint
{
    std::string name;
    net::HostPort daemon;
};

/** The endpoints @p opts names, one per --connect entry (fatal on a
 *  malformed one). */
std::vector<Endpoint>
endpointsOf(const ExecOptions &opts)
{
    std::vector<Endpoint> out;
    for (const auto &spec : opts.endpoints) {
        Endpoint ep;
        ep.name = spec;
        std::string error;
        if (!net::parseHostPort(spec, ep.daemon, error))
            fatal("--connect: %s", error.c_str());
        out.push_back(std::move(ep));
    }
    return out;
}

} // namespace

// ---- the windowed executor ----

RemoteExecutor::RemoteExecutor(const ExecOptions &opts) : opts_(opts)
{
    if (opts_.endpoints.empty())
        fatal("--executor tcp needs at least one --connect host:port "
              "worker daemon");
    endpointsOf(opts_); // fatal on a malformed entry
    // A peer hanging up mid-send must be an EPIPE error on the retry
    // path, not process death (MSG_NOSIGNAL covers writeLine, but
    // belt and braces for any other write to the channel).
    net::ignoreSigpipe();
}

namespace
{

/**
 * The shared job queue of a RemoteExecutor run. Claims come from the
 * fresh index first, then from jobs re-queued by endpoints that gave
 * up on them (retired endpoints). A claimer with nothing to take but
 * with peers still mid-job *waits* — their jobs may yet come back —
 * and only returns Done once every job is finally resolved, so a
 * healthy endpoint can pick up the entire load of a dead one.
 *
 * Assignment is credit-based, not round-robin: there is no static
 * partition of jobs to endpoints. An endpoint claims (tryClaim) only
 * while it has free window slots, and a completed reply frees a slot
 * that is refilled immediately — so the number of jobs an endpoint
 * drains is proportional to its observed throughput, and a fast
 * daemon ends up serving most of the grid while a slow one chews on
 * whatever it already holds.
 */
struct RemoteQueue
{
    explicit RemoteQueue(std::size_t total, int threads)
        : reroutes_(total, 0),
          firstDispatch_(total),
          total_(total),
          active_(threads)
    {}

    enum class Wait
    {
        Job,     ///< @p i claimed
        Timeout, ///< idle wait expired (the heartbeat tick)
        Done,    ///< every job resolved; the endpoint is finished
    };

    /**
     * Block until a job is claimable or everything is resolved; a
     * non-negative @p timeoutMs bounds the wait so an idle endpoint
     * can probe its channel (the idle-channel heartbeat timer).
     */
    Wait
    claimFor(std::size_t &i, int timeoutMs)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        for (;;) {
            if (claimLocked(i))
                return Wait::Job;
            if (working_ == 0)
                return Wait::Done;
            if (timeoutMs < 0) {
                cv_.wait(lock);
            } else if (cv_.wait_for(lock,
                                    std::chrono::milliseconds(timeoutMs))
                       == std::cv_status::timeout) {
                return Wait::Timeout;
            }
        }
    }

    /** Claim without waiting: how an endpoint tops its window up. */
    bool
    tryClaim(std::size_t &i)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return claimLocked(i);
    }

    /** When job @p i first went out — a handed-off job keeps its
     *  original dispatch time, so the streamed wallMs covers the dead
     *  endpoint's burned budget too. Stable once claimed. */
    ExecClock::time_point
    firstDispatch(std::size_t i) const
    {
        return firstDispatch_[i];
    }

    /** The claimed job reached a final outcome (either way). */
    void
    finish()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        --working_;
        cv_.notify_all();
    }

    /** Give claimed-but-unresolved job @p i back to the queue with no
     *  penalty — how a retiring endpoint returns the rest of its
     *  window for the surviving endpoints to drain. */
    void
    release(std::size_t i)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        requeued_.push_back(i);
        --working_;
        cv_.notify_all();
    }

    /**
     * This endpoint exhausted its budget on job @p i. When other
     * endpoints are still in the game and the job has not been
     * handed off before, give it to them and retire (true) — a dead
     * endpoint must not sink jobs a healthy one could run. False
     * means the failure is final: either nobody is left, or the job
     * already burned a full budget elsewhere — two exhausted budgets
     * point at the job, not the endpoints, and re-routing a
     * daemon-killing cell any further would take the whole fleet
     * down with it (the caller then keeps claiming: its endpoint is
     * not presumed dead).
     */
    bool
    handOff(std::size_t i)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (active_ <= 1 || reroutes_[i] >= 1)
            return false;
        --active_;
        ++reroutes_[i];
        requeued_.push_back(i);
        --working_;
        cv_.notify_all();
        return true;
    }

  private:
    bool
    claimLocked(std::size_t &i)
    {
        if (!requeued_.empty()) {
            i = requeued_.back();
            requeued_.pop_back();
            ++working_;
            return true;
        }
        if (nextIdx_ < total_) {
            i = nextIdx_++;
            ++working_;
            firstDispatch_[i] = ExecClock::now();
            return true;
        }
        return false;
    }

    std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<std::size_t> requeued_;
    std::vector<std::uint8_t> reroutes_; ///< hand-offs per job
    std::vector<ExecClock::time_point> firstDispatch_;
    std::size_t nextIdx_ = 0;
    const std::size_t total_;
    int working_ = 0; ///< jobs claimed but not yet resolved
    int active_ = 0;  ///< endpoints that have not retired
};

} // namespace

std::vector<CellOutcome>
RemoteExecutor::execute(const std::vector<CellJob> &jobs)
{
    std::vector<CellOutcome> outcomes(jobs.size());
    if (jobs.empty())
        return outcomes;

    const std::vector<Endpoint> endpoints = endpointsOf(opts_);
    RemoteQueue queue(jobs.size(), static_cast<int>(endpoints.size()));
    std::atomic<int> connects{0}, reconnects{0}, retries{0},
        timeouts{0}, maxInFlight{0};
    RetryPolicy policy;
    policy.maxAttempts = opts_.maxRetries + 1;
    policy.baseBackoffMs = opts_.retryBackoffMs;
    policy.maxBackoffMs = opts_.maxBackoffMs;
    // -1: no deadline (cellTimeoutMs 0 turns it off).
    const int deadlineMs =
        opts_.cellTimeoutMs > 0 ? opts_.cellTimeoutMs : -1;
    const int heartbeatMs = opts_.heartbeatMs; // <= 0: off
    const int window = std::max(1, opts_.window);
    std::vector<int> perEndpoint(endpoints.size(), 0);

    // Jobs only the in-process fallback can still resolve (--degrade
    // local): every endpoint permanently failed them.
    std::mutex degradeMutex;
    std::vector<std::size_t> degraded;

    // One pool thread per endpoint: each owns one channel (a daemon
    // connection) and windows up to `window` jobs
    // onto it, claimed off the shared queue whenever a slot is free
    // (credit-based assignment: a reply frees a slot, so throughput
    // sets the claim rate). Replies complete out of order against the
    // in-flight map — the wire frames carry per-job ids. Any teardown
    // (open failure, broken stream, blown deadline) re-queues *every*
    // windowed job on this thread, charging the head of the line one
    // attempt, and reopens the channel under the shared jittered
    // RetryPolicy — the jitter keeps N endpoints from re-stampeding a
    // restarted daemon in lockstep. A job that exhausts its budget is
    // handed back to the queue for the remaining endpoints (this one
    // retires, releasing the rest of its window: one dead peer must
    // not sink jobs a healthy one could run); only the last endpoint
    // standing writes permanent failures into outcomes (or, under
    // --degrade local, parks them for the in-process drain).
    auto work = [&](const Endpoint &ep, std::size_t index) {
        net::Fd chan;
        net::LineReader reader;
        bool everOpened = false;
        Rng rng(0x7eefca11u ^ (index + 1) * kGolden);

        struct Flight
        {
            std::size_t job;
            ExecClock::time_point sent;
            std::uint64_t seq; ///< dispatch order on this thread
        };
        std::map<std::uint64_t, Flight> inflight; ///< by wire job id
        std::uint64_t nextSeq = 0;
        std::vector<std::size_t> pending; ///< claimed, not on the wire
        std::vector<int> attempts(jobs.size(), 0); ///< mine, per job
        std::string lastError = "channel never opened";
        FailReason lastReason = FailReason::ConnReset;
        int cycleFails = 0; ///< teardowns since the last good reply

        // One failed cycle that never reached the wire (connect or
        // probe failure): every job this endpoint holds pays one
        // attempt, exactly as if it had been dispatched and lost.
        auto chargeAll = [&]() {
            for (std::size_t i : pending)
                if (++attempts[i] > 1)
                    retries.fetch_add(1);
        };
        // The wire broke with jobs in flight: re-queue every one of
        // them locally. Exactly one job pays the attempt — the head
        // of the line (oldest dispatch), the one the daemon was
        // serving when the stream died. The jobs windowed behind it
        // were never looked at, so their dispatch charge is refunded;
        // otherwise a single broken connection would burn `window`
        // retry budgets at once, and window=1 would no longer match
        // lockstep accounting. @p refundHead refunds even the head —
        // the write-failure path, where the charged victim never left
        // `pending`.
        auto teardown = [&](bool refundHead) {
            chan.reset();
            ++cycleFails;
            std::uint64_t headSeq = ~std::uint64_t{0};
            if (!refundHead)
                for (const auto &kv : inflight)
                    headSeq = std::min(headSeq, kv.second.seq);
            for (const auto &kv : inflight) {
                if (kv.second.seq != headSeq
                    && --attempts[kv.second.job] >= 1)
                    retries.fetch_sub(1);
                pending.push_back(kv.second.job);
            }
            inflight.clear();
        };
        // Ping/pong on an otherwise quiet channel; false means the
        // caller closes the channel.
        auto probe = [&]() -> bool {
            std::string err;
            if (!net::writeLine(chan.get(), kCellPingLine, err)) {
                lastError = "ping write failed: " + err;
                lastReason = FailReason::ConnReset;
                return false;
            }
            std::string pong;
            net::LineReader::Status st =
                reader.readLine(pong, err, heartbeatMs);
            if (st == net::LineReader::Status::Timeout) {
                timeouts.fetch_add(1);
                lastError = "peer silent: no pong within "
                            + std::to_string(heartbeatMs) + "ms";
                lastReason = FailReason::Timeout;
                return false;
            }
            if (st != net::LineReader::Status::Line
                || pong != kCellPongLine) {
                lastError = st == net::LineReader::Status::Line
                                ? "peer answered ping off-protocol"
                                : "ping probe broke: " + err;
                lastReason = FailReason::FrameCorrupt;
                return false;
            }
            return true;
        };

        bool retired = false;
        for (;;) {
            // Resolve the jobs whose budget this endpoint burned:
            // hand off (and retire), park for --degrade local, or
            // fail in the outcome.
            std::size_t k = 0;
            while (k < pending.size()) {
                std::size_t i = pending[k];
                if (attempts[i] < policy.maxAttempts) {
                    ++k;
                    continue;
                }
                pending.erase(pending.begin()
                              + static_cast<std::ptrdiff_t>(k));
                if (queue.handOff(i)) {
                    retired = true;
                    break;
                }
                if (opts_.degrade == DegradeMode::Local) {
                    // Transport-dead everywhere, but the cell itself
                    // may be fine: park it for the in-process drain.
                    // No event yet — the drain emits the real outcome.
                    std::lock_guard<std::mutex> lock(degradeMutex);
                    degraded.push_back(i);
                } else {
                    fillFailedOutcome(outcomes[i], jobs[i],
                                      " via " + ep.name, attempts[i],
                                      lastError, lastReason);
                    emitOutcomeEvent(opts_, jobs[i], outcomes[i],
                                     queue.firstDispatch(i));
                }
                queue.finish();
            }
            if (retired) {
                // The rest of the window goes back unpenalized: these
                // jobs did not exhaust anything, this endpoint did.
                for (std::size_t i : pending)
                    queue.release(i);
                for (const auto &kv : inflight)
                    queue.release(kv.second.job);
                break;
            }

            // Top the window up — the credit refill. An endpoint with
            // nothing at all blocks for work, probing its idle
            // channel every heartbeatMs while it waits.
            while (pending.size() + inflight.size()
                   < static_cast<std::size_t>(window)) {
                std::size_t i;
                if (!queue.tryClaim(i))
                    break;
                pending.push_back(i);
            }
            if (pending.empty() && inflight.empty()) {
                std::size_t i;
                int waitMs =
                    heartbeatMs > 0 && chan.valid() ? heartbeatMs : -1;
                RemoteQueue::Wait got = queue.claimFor(i, waitMs);
                if (got == RemoteQueue::Wait::Done)
                    break;
                if (got == RemoteQueue::Wait::Timeout) {
                    // The idle-channel timer: nothing in flight and
                    // no exchange for a full interval. A dead channel
                    // found now costs nobody a job — just close it and
                    // reopen when work arrives.
                    if (!probe())
                        chan.reset();
                    continue;
                }
                pending.push_back(i);
            }

            // (Re)open the channel, with backoff once something has
            // failed.
            if (!chan.valid()) {
                if (cycleFails > 0)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(policy.backoffMs(
                            std::min(cycleFails, policy.maxAttempts),
                            rng)));
                std::string err;
                chan =
                    net::connectTcp(ep.daemon.host, ep.daemon.port, err);
                if (!chan.valid()) {
                    lastError = err;
                    lastReason = FailReason::ConnReset;
                    ++cycleFails;
                    chargeAll();
                    continue;
                }
                reader.reset(chan.get());
                connects.fetch_add(1);
                if (everOpened)
                    reconnects.fetch_add(1);
                everOpened = true;
                if (heartbeatMs > 0 && !probe()) {
                    // A fresh channel proves it serves the protocol
                    // loop before any job rides it.
                    chan.reset();
                    ++cycleFails;
                    chargeAll();
                    continue;
                }
            }

            // Fill the wire: dispatch everything claimed, lowest job
            // first (deterministic resend order after a teardown).
            if (!pending.empty()) {
                std::sort(pending.begin(), pending.end(),
                          std::greater<std::size_t>());
                bool wireOk = true;
                while (!pending.empty() && wireOk) {
                    std::size_t i = pending.back();
                    if (++attempts[i] > 1)
                        retries.fetch_add(1);
                    std::string err;
                    ExecClock::time_point writeStart = ExecClock::now();
                    if (!net::writeLine(chan.get(), jobs[i].toJson(),
                                        err)) {
                        lastError =
                            "peer dropped before accepting the job: "
                            + err;
                        lastReason = FailReason::ConnReset;
                        // The write-failing job itself paid above.
                        teardown(/*refundHead=*/true);
                        wireOk = false;
                        break;
                    }
                    recordWireWrite(opts_, jobs[i].id, writeStart);
                    pending.pop_back();
                    inflight[jobs[i].id] = {i, ExecClock::now(),
                                            nextSeq++};
                    int depth = static_cast<int>(inflight.size());
                    int seen = maxInFlight.load();
                    while (depth > seen
                           && !maxInFlight.compare_exchange_weak(seen,
                                                                 depth))
                        ;
                }
                if (!wireOk)
                    continue;
            }
            if (inflight.empty())
                continue;

            // Await one reply — bounded by the oldest in-flight job's
            // deadline (each windowed job keeps its own dispatch
            // stamp; the minimum is the first deadline to fire). A
            // deadline already past is a timeout without a read.
            int remainingMs = -1;
            if (deadlineMs >= 0) {
                ExecClock::time_point oldest =
                    ExecClock::time_point::max();
                for (const auto &kv : inflight)
                    oldest = std::min(oldest, kv.second.sent);
                auto age =
                    std::chrono::duration_cast<std::chrono::milliseconds>(
                        ExecClock::now() - oldest)
                        .count();
                remainingMs =
                    std::max(0, deadlineMs - static_cast<int>(age));
            }
            std::string reply, err;
            net::LineReader::Status status =
                remainingMs == 0 ? net::LineReader::Status::Timeout
                                 : reader.readLine(reply, err, remainingMs);
            if (status == net::LineReader::Status::Timeout) {
                // The oldest windowed job blew its deadline. A late
                // reply would be unattributable after teardown, so the
                // channel goes too — every in-flight job re-queues
                // and pays its next attempt on redispatch.
                timeouts.fetch_add(1);
                lastError = "cell exceeded the "
                            + std::to_string(deadlineMs)
                            + "ms deadline";
                lastReason = FailReason::Timeout;
                teardown(/*refundHead=*/false);
                continue;
            }
            if (status != net::LineReader::Status::Line) {
                bool offProtocol =
                    status == net::LineReader::Status::Error
                    && reader.errorKind()
                           == net::LineReader::ErrorKind::Oversized;
                lastError =
                    status == net::LineReader::Status::Eof
                        ? std::string("peer dropped mid-job")
                        : "framing error: " + err;
                lastReason = offProtocol ? FailReason::FrameCorrupt
                                         : FailReason::ConnReset;
                teardown(/*refundHead=*/false);
                continue;
            }
            CellOutcome result;
            if (!CellOutcome::fromJson(reply, result, err)) {
                lastError = "malformed reply: " + err;
                lastReason = FailReason::FrameCorrupt;
                teardown(/*refundHead=*/false);
                continue;
            }
            auto it = inflight.find(result.id);
            if (it == inflight.end()) {
                // id 0 is the peer's corrupted-frame sentinel: one of
                // our frames arrived mangled and we cannot know which.
                // Any other unknown id is a peer bug. Either
                // way the stream is off-protocol — tear down and
                // redispatch the whole window.
                lastError =
                    result.id == 0
                        ? std::string("peer flagged a corrupted job "
                                      "frame")
                        : "peer replied to unknown job "
                              + std::to_string(result.id);
                lastReason = FailReason::FrameCorrupt;
                teardown(/*refundHead=*/false);
                continue;
            }
            std::size_t i = it->second.job;
            inflight.erase(it);
            cycleFails = 0;
            result.attempts = attempts[i];
            outcomes[i] = std::move(result);
            emitOutcomeEvent(opts_, jobs[i], outcomes[i],
                             queue.firstDispatch(i));
            perEndpoint[index] += 1;
            queue.finish();
        }
        // Closing the channel tells the daemon this stream is done.
    };

    std::vector<std::thread> pool;
    pool.reserve(endpoints.size());
    for (std::size_t e = 0; e < endpoints.size(); ++e)
        pool.emplace_back(work, std::cref(endpoints[e]), e);
    for (auto &t : pool)
        t.join();

    stats_.connects += connects.load();
    stats_.reconnects += reconnects.load();
    stats_.retries += retries.load();
    stats_.timeouts += timeouts.load();
    stats_.maxInFlight = std::max(stats_.maxInFlight, maxInFlight.load());
    if (stats_.jobsPerEndpoint.size() < perEndpoint.size())
        stats_.jobsPerEndpoint.resize(perEndpoint.size(), 0);
    for (std::size_t e = 0; e < perEndpoint.size(); ++e)
        stats_.jobsPerEndpoint[e] += perEndpoint[e];

    if (!degraded.empty()) {
        // Graceful degradation: every endpoint is gone, the grid is
        // not. Same jobs, same deterministic outcomes — just slower
        // and local, and loudly so.
        warn("all %zu endpoint(s) failed; running %zu remaining "
             "cell(s) in-process (--degrade local)",
             endpoints.size(), degraded.size());
        ExecOptions localOpts;
        localOpts.backend = ExecBackend::InProcess;
        localOpts.jobs = opts_.jobs;
        localOpts.onOutcome = opts_.onOutcome;
        localOpts.trace = opts_.trace;
        std::vector<CellJob> localJobs;
        localJobs.reserve(degraded.size());
        for (std::size_t i : degraded)
            localJobs.push_back(jobs[i]);
        InProcessExecutor local(localOpts);
        std::vector<CellOutcome> localOutcomes =
            local.execute(localJobs);
        for (std::size_t k = 0; k < degraded.size(); ++k)
            outcomes[degraded[k]] = std::move(localOutcomes[k]);
        stats_.degradedLocal += static_cast<int>(degraded.size());
    }
    return outcomes;
}

std::unique_ptr<Executor>
makeExecutor(const ExecOptions &opts)
{
    if (opts.backend == ExecBackend::InProcess)
        return std::make_unique<InProcessExecutor>(opts);
    return std::make_unique<RemoteExecutor>(opts);
}

// ---- the worker loop ----

const char *const kCellPingLine = "{\"event\":\"ping\"}";
const char *const kCellPongLine = "{\"event\":\"pong\"}";

std::string
handleCellLine(const std::string &line, bool *ranJob)
{
    if (ranJob != nullptr)
        *ranJob = false;
    if (line == kCellPingLine) {
        static metrics::Counter &pongs = metrics::counter(
            "l0vliw_driver_heartbeats_total{type=\"pong\"}",
            "Heartbeat probes: pings sent by clients, pongs answered "
            "by executing sides");
        pongs.inc();
        return kCellPongLine;
    }
    // The metrics query verb: a plain-word line (the store protocol's
    // request shape) whose first word is "metrics" — what lets
    // `l0store query host:port metrics prom` scrape a cell daemon with
    // the same client that scrapes the store. Only a first word of
    // exactly "metrics" diverts: injected corruption flips a frame
    // byte to a control character (net/fault.cc), which leaves a
    // mangled job's first word its own, so chaos runs keep their id-0
    // corrupted-frame sentinel.
    if (!line.empty() && line[0] != '{') {
        std::istringstream in(line);
        std::vector<std::string> words{
            std::istream_iterator<std::string>(in), {}};
        if (!words.empty() && words[0] == "metrics")
            return metrics::metricsQueryReply(words);
    }
    CellJob job;
    std::string err;
    CellOutcome outcome;
    if (CellJob::fromJson(line, job, err)) {
        outcome = executeCellJob(job);
        if (ranJob != nullptr)
            *ranJob = true;
    } else {
        outcome.ok = false;
        outcome.error = "malformed job: " + err;
        outcome.reason = FailReason::FrameCorrupt;
    }
    return outcome.toJson();
}

// ---- the --serve worker daemon ----

namespace
{

volatile std::sig_atomic_t g_daemonSignal = 0;

void
daemonSignalHandler(int sig)
{
    g_daemonSignal = sig;
}

} // namespace

int
cellDaemonMain(std::uint16_t port, int workers)
{
    if (workers <= 0) {
        unsigned hw = std::thread::hardware_concurrency();
        workers = hw == 0 ? 1 : static_cast<int>(hw);
    }
    // Block the shutdown signals first and install the flag-setting
    // handlers, so the sigsuspend wait below is race-free and every
    // server thread (which inherits the blocked mask) routes delivery
    // to this thread. Teardown happens on the normal path: the
    // handler only sets a flag.
    sigset_t mask, old;
    sigemptyset(&mask);
    sigaddset(&mask, SIGINT);
    sigaddset(&mask, SIGTERM);
    sigprocmask(SIG_BLOCK, &mask, &old);
    struct sigaction sa{};
    sa.sa_handler = daemonSignalHandler;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
    // A client vanishing mid-reply is that connection's problem, not
    // the daemon's: EPIPE on the write, connection closed, daemon on.
    net::ignoreSigpipe();

    std::atomic<std::uint64_t> served{0};
    net::Server server;
    // Pipelined serving: each connection gets a bounded frame queue
    // and `workers` handler threads, so a windowing client's cells
    // compute concurrently and reply as they complete (out of request
    // order — the protocol's ids make that safe). workers == 1 is the
    // historical strict request/reply loop.
    server.setWorkersPerConnection(workers);
    std::string error;
    bool ok = server.start(
        port,
        [&served](const std::string &line) {
            bool ranJob = false;
            std::string reply = handleCellLine(line, &ranJob);
            if (ranJob)
                served.fetch_add(1);
            return std::optional<std::string>(std::move(reply));
        },
        error);
    if (!ok)
        fatal("--serve %u: %s", static_cast<unsigned>(port),
              error.c_str());

    inform("cell daemon listening on port %u (pid %ld, %d worker%s "
           "per connection)",
           static_cast<unsigned>(server.port()),
           static_cast<long>(getpid()), workers,
           workers == 1 ? "" : "s");
    while (g_daemonSignal == 0)
        sigsuspend(&old);
    int sig = g_daemonSignal;

    server.stop(); // closes the listener and every connection, joins
    sigprocmask(SIG_SETMASK, &old, nullptr);
    inform("cell daemon on port %u shut down on signal %d after "
           "%llu jobs across %d connections",
           static_cast<unsigned>(server.port()), sig,
           static_cast<unsigned long long>(served.load()),
           server.connectionsAccepted());
    return 0;
}

// ---- the --stream event sink ----

namespace
{

/** How long a publisher waits for the store's next ack, once its
 *  window is full or it is settling the rest, before it resends the
 *  window over a fresh connection. */
constexpr int kPublishAckMs = 5000;
/** Delivery attempts per published frame (connect + send + ack). */
constexpr int kPublishAttempts = 3;

} // namespace

OutcomeStream::OutcomeStream(net::HostPort store)
    : store_(std::move(store)), tcp_(true)
{
}

std::unique_ptr<OutcomeStream>
OutcomeStream::open(const std::string &spec, std::string &error)
{
    if (spec.rfind("tcp:", 0) == 0) {
        net::HostPort hp;
        if (!net::parseHostPort(spec.substr(4), hp, error))
            return nullptr;
        // The store restarting mid-run must be an EPIPE on the retry
        // path, not publisher death.
        net::ignoreSigpipe();
        std::unique_ptr<OutcomeStream> s(
            new OutcomeStream(std::move(hp)));
        // Connect eagerly: a misconfigured endpoint should fail the
        // driver at startup, not silently drop every event later.
        s->sock_ = net::connectTcp(s->store_.host, s->store_.port,
                                   error);
        if (!s->sock_.valid()) {
            error = spec + ": " + error;
            return nullptr;
        }
        s->reader_.reset(s->sock_.get());
        return s;
    }

    std::FILE *out = nullptr;
    bool owned = true;
    if (spec == "-") {
        out = stdout;
        owned = false;
    } else if (spec.rfind("fd:", 0) == 0) {
        int fd = -1;
        int dup = -1;
        if (parseDecimal(spec.substr(3), 0, INT_MAX, fd))
            dup = ::dup(fd);
        out = dup >= 0 ? fdopen(dup, "w") : nullptr;
        if (out == nullptr) {
            if (dup >= 0)
                ::close(dup);
            error = "--stream " + spec + ": not an open descriptor";
            return nullptr;
        }
    } else {
        out = std::fopen(spec.c_str(), "w");
        if (out == nullptr) {
            error = "--stream " + spec + ": " + std::strerror(errno);
            return nullptr;
        }
    }
    return std::unique_ptr<OutcomeStream>(new OutcomeStream(out, owned));
}

OutcomeStream::~OutcomeStream()
{
    if (out_ != nullptr) {
        if (owned_)
            std::fclose(out_);
        else
            std::fflush(out_);
    }
    // tcp mode: settle the window; closing sock_ is then the
    // publisher's EOF to the store.
    if (tcp_)
        settle(0);
}

void
OutcomeStream::setMeta(std::string suite, std::string rev,
                       std::string run)
{
    std::lock_guard<std::mutex> lock(mutex_);
    suite_ = std::move(suite);
    rev_ = std::move(rev);
    run_ = std::move(run);
}

void
OutcomeStream::appendMeta(std::string &event) const
{
    if (!suite_.empty())
        event += ",\"suite\":" + json::quote(suite_);
    if (!rev_.empty())
        event += ",\"rev\":" + json::quote(rev_);
    if (!run_.empty())
        event += ",\"run\":" + json::quote(run_);
}

void
OutcomeStream::write(const CellJob &job, const CellOutcome &outcome,
                     double wallMs)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::string event = "{\"event\":\"cell\",";
    appendField(event, "id", job.id);
    event += ",\"bench\":" + json::quote(job.bench);
    event += ",\"arch\":" + json::quote(job.arch);
    appendMeta(event);
    event += ",\"ok\":";
    event += outcome.ok ? "true" : "false";
    if (!outcome.ok && outcome.reason != FailReason::None)
        event += ",\"reason\":"
                 + json::quote(failReasonName(outcome.reason));
    event += ",\"attempts\":" + std::to_string(outcome.attempts);
    event += ",\"wallMs\":" + json::fromDouble(wallMs);
    event += ",\"outcome\":" + outcome.toJson();
    event += '}';
    emitLine(event);
}

void
OutcomeStream::writeGrid(const ResultTable &table)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::string event = "{\"event\":\"grid\"";
    // The grid frame leads with its identity, not a cell id — the
    // table is per-run, and the store keys it that way.
    appendMeta(event);
    event += ",\"table\":" + tableToWireJson(table);
    event += '}';
    emitLine(event);
    if (tcp_)
        settle(0);
}

void
OutcomeStream::emitLine(const std::string &line)
{
    if (!tcp_) {
        std::fputs(line.c_str(), out_);
        std::fputc('\n', out_);
        std::fflush(out_); // live: a dashboard tail sees the cell now
        return;
    }
    // Windowed at-least-once delivery: send, take the acks already
    // in, and wait (bounded) for one only when the window is full. The
    // store dedups on (suite, run, id), so resending the window after
    // a break is harmless.
    window_.push_back({line, 0});
    settle(kPublishWindow - 1);
}

void
OutcomeStream::settle(std::size_t keep)
{
    while (!window_.empty()) {
        std::string error;
        if (!sock_.valid() && !reconnect(error)) {
            disconnect(error);
            continue;
        }
        std::size_t allowed = std::min(window_.size(), limit_);
        while (sent_ < allowed
               && net::writeLine(sock_.get(), window_[sent_].line, error))
            ++sent_;
        if (sent_ < allowed) {
            disconnect(error);
            continue;
        }
        bool wait = window_.size() > keep || sent_ < window_.size();
        std::string reply;
        net::LineReader::Status status =
            reader_.readLine(reply, error, wait ? kPublishAckMs : 0);
        if (status == net::LineReader::Status::Line) {
            // The store answers one line per line, in order: this
            // reply is the oldest unsettled frame's. A nack settles
            // it too — the store diagnosed and rejected it, and
            // resending the same bytes cannot help.
            if (reply.find("\"event\":\"nack\"") != std::string::npos)
                warn("store %s:%u rejected a frame: %s",
                     store_.host.c_str(),
                     static_cast<unsigned>(store_.port), reply.c_str());
            window_.pop_front();
            --sent_;
            limit_ = std::min(2 * limit_, kPublishWindow);
            continue;
        }
        if (status == net::LineReader::Status::Timeout && !wait)
            return;
        if (status == net::LineReader::Status::Timeout)
            error = "no ack within " + std::to_string(kPublishAckMs)
                    + "ms";
        else if (status == net::LineReader::Status::Eof)
            error = "store hung up before acking";
        disconnect(error);
    }
}

bool
OutcomeStream::reconnect(std::string &error)
{
    RetryPolicy policy;
    int failures = window_.front().failures;
    if (failures > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(
            policy.backoffMs(failures, rng_)));
    sock_ = net::connectTcp(store_.host, store_.port, error);
    if (!sock_.valid())
        return false;
    reader_.reset(sock_.get());
    return true;
}

void
OutcomeStream::disconnect(const std::string &error)
{
    // Only the oldest frame pays for a break: the store answers in
    // order, so the frames behind it were still waiting on it. The
    // window reopens from one frame, doubling per ack, so a link that
    // keeps breaking is retried frame by frame, as in lockstep.
    sock_.reset();
    sent_ = 0;
    limit_ = 1;
    if (++window_.front().failures < kPublishAttempts)
        return;
    ++dropped_;
    warn("publish to %s:%u dropped a frame after %d attempts: %s",
         store_.host.c_str(), static_cast<unsigned>(store_.port),
         kPublishAttempts, error.c_str());
    window_.pop_front();
}

} // namespace l0vliw::driver
