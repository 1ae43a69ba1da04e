/**
 * @file
 * Per-job tracing: each cell's lifecycle (enqueue -> dispatch -> wire
 * write -> daemon execute -> reply -> fold) recorded as spans keyed by
 * the wire job id, dumped as Chrome trace-event JSON that Perfetto and
 * chrome://tracing load directly (the drivers' --trace flag).
 *
 * A TraceRecorder is a per-run collector, not a hot-path instrument:
 * spans land once per cell (milliseconds apart), so a mutex-guarded
 * vector push is fine here — the per-frame/per-access invariant
 * (ARCHITECTURE.md invariant 10) binds the metrics registry, not this.
 *
 * Timestamps are microseconds on the recorder's own steady-clock
 * epoch (construction time). The daemon side of the wire has no shared
 * clock: executeCellJob measures its own execute/plan-build durations
 * and rides them back inside the CellOutcome frame (execUs/planUs),
 * and the client anchors those spans to end at
 * the moment the reply landed — one trace covers both sides of the
 * wire without clock synchronization.
 *
 * In the rendered trace the Perfetto "tid" lane is the wire job id,
 * so every cell gets its own row with its chain of spans in order.
 */

#ifndef L0VLIW_METRICS_TRACE_HH
#define L0VLIW_METRICS_TRACE_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace l0vliw::metrics
{

/** One complete span ("ph":"X" in the trace-event format). */
struct TraceSpan
{
    std::uint64_t job = 0; ///< wire job id — the Perfetto lane (tid)
    std::string name;      ///< enqueue|cell|wire-write|execute|...
    std::string cat;       ///< layer or backend ("driver", "tcp", ...)
    double tsUs = 0;       ///< start, us since the recorder's epoch
    double durUs = 0;
    /** String-valued args rendered into the event's "args" object
     *  (bench/arch identity, ok, attempts, FailReason tags). */
    std::vector<std::pair<std::string, std::string>> args;
};

/** Thread-safe span collector for one driver run. */
class TraceRecorder
{
  public:
    TraceRecorder() : epoch_(std::chrono::steady_clock::now()) {}

    /** Microseconds elapsed since construction. */
    double
    nowUs() const
    {
        return sinceUs(std::chrono::steady_clock::now());
    }

    /** A steady-clock stamp on the recorder's timeline. */
    double
    sinceUs(std::chrono::steady_clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - epoch_)
            .count();
    }

    void
    record(TraceSpan span)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(std::move(span));
    }

    /** Snapshot (copies — recording may continue concurrently). */
    std::vector<TraceSpan> spans() const;

    /** The whole trace as one Chrome trace-event JSON document. */
    std::string toChromeJson() const;

    /** Write toChromeJson() to @p path; false sets @p error. */
    bool writeFile(const std::string &path, std::string &error) const;

  private:
    const std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<TraceSpan> spans_;
};

} // namespace l0vliw::metrics

#endif // L0VLIW_METRICS_TRACE_HH
