/**
 * @file
 * The process-wide metrics registry: the counters and gauges a
 * process can report through the `metrics` query verb.
 *
 * The design extends the simulator's "stats are sync-on-read" hot-path
 * invariant to the whole system (ARCHITECTURE.md invariant 10): the
 * record path — Counter::inc, Gauge::set — never takes a lock and
 * never allocates. Counters are sharded across cache-line-padded
 * relaxed atomics (one shard per worker thread, round-robin), gauges
 * are single relaxed atomics; the string-keyed view of the registry is
 * materialized only when someone reads it (renderProm / renderTable),
 * so reads are eventually consistent with respect to in-flight
 * increments — exactly the StatSet contract, process-wide. Only code a
 * daemon runs records here: the registry has no reader but the
 * `metrics` verb.
 *
 * Registration is the one cold path that locks: counter()/gauge()
 * look the name up (or create it) under the registry mutex and hand
 * back a reference that is stable for the life of the process.
 * Instrumentation sites therefore resolve their handle once (a
 * function-local static) and record through plain pointer access ever
 * after.
 *
 * Naming follows Prometheus conventions: lowercase, `_total` suffix
 * on counters, an optional fixed label set baked into the registered
 * name — `l0vliw_net_frames_total{dir="in"}` registers one series
 * whose base name (`l0vliw_net_frames_total`) groups the HELP/TYPE
 * exposition lines with its siblings. Two series sharing a base name
 * must share a type and help string.
 *
 * Exposure: renderProm() is the Prometheus text exposition format;
 * renderTable() is a ResultTable for the shared table/csv/json sinks;
 * metricsQueryReply() is the `metrics [prom|table|csv|json]` query
 * verb both daemons (`--serve` cell daemons and `l0store`) serve over
 * the NDJSON protocol (src/net/PROTOCOL.md).
 */

#ifndef L0VLIW_METRICS_REGISTRY_HH
#define L0VLIW_METRICS_REGISTRY_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/result_sink.hh"

namespace l0vliw::metrics
{

namespace detail
{
/** Round-robin shard slot of the calling thread (stable per thread). */
unsigned threadShard();
} // namespace detail

/** A monotone counter, sharded so concurrent workers do not bounce one
 *  cache line. inc() is wait-free: one relaxed fetch_add. */
class Counter
{
  public:
    static constexpr unsigned kShards = 8;

    void
    inc(std::uint64_t n = 1) noexcept
    {
        shards_[detail::threadShard() & (kShards - 1)].v.fetch_add(
            n, std::memory_order_relaxed);
    }

    /** Sum of all shards — the publish-on-read half of the contract. */
    std::uint64_t
    value() const noexcept
    {
        std::uint64_t sum = 0;
        for (const Shard &s : shards_)
            sum += s.v.load(std::memory_order_relaxed);
        return sum;
    }

    void
    reset() noexcept
    {
        for (Shard &s : shards_)
            s.v.store(0, std::memory_order_relaxed);
    }

  private:
    struct alignas(64) Shard
    {
        std::atomic<std::uint64_t> v{0};
    };
    Shard shards_[kShards];
};

/** A point-in-time signed value (sizes, depths). */
class Gauge
{
  public:
    void
    set(std::int64_t v) noexcept
    {
        v_.store(v, std::memory_order_relaxed);
    }

    std::int64_t
    value() const noexcept
    {
        return v_.load(std::memory_order_relaxed);
    }

    void
    reset() noexcept
    {
        v_.store(0, std::memory_order_relaxed);
    }

  private:
    std::atomic<std::int64_t> v_{0};
};

/** The process-wide name -> instrument table. */
class Registry
{
  public:
    /** The one process-wide instance every layer records into. */
    static Registry &global();

    /**
     * Find or create the named series. The full @p name may carry a
     * baked-in label set (`...{dir="in"}`); its base name groups the
     * exposition. @p help is kept from the first registration of a
     * base name. Re-registering an existing name returns the same
     * object; registering it as a different instrument type is fatal.
     */
    Counter &counter(const std::string &name, const std::string &help);
    Gauge &gauge(const std::string &name, const std::string &help);

    /** Prometheus text exposition (HELP/TYPE per base name, series in
     *  registration order). */
    std::string renderProm() const;

    /** The same snapshot as a ResultTable for the shared sinks. */
    ResultTable renderTable() const;

    /** Zero every value, keep every registration — test isolation
     *  (handles stay valid; a process restart is the real reset). */
    void resetAllForTest();

  private:
    enum class Type
    {
        Counter,
        Gauge
    };

    struct Entry
    {
        Type type = Type::Counter;
        std::string name; ///< full series name, labels included
        std::string base; ///< name up to any '{'
        std::string help;
        // Exactly one is live, matching `type`. Deque storage keeps
        // the address stable across later registrations.
        Counter counter;
        Gauge gauge;
    };

    Entry &findOrCreate(const std::string &name,
                        const std::string &help, Type type);

    mutable std::mutex mutex_;
    std::deque<Entry> entries_; ///< registration order
    std::map<std::string, Entry *> byName_;
};

/** Convenience: Registry::global() lookups for instrumentation sites
 *  (resolve once into a function-local static, record ever after). */
Counter &counter(const char *name, const char *help);
Gauge &gauge(const char *name, const char *help);

/**
 * The `metrics [prom|table|csv|json]` query verb, shared by every
 * daemon: @p words is the whitespace-split query line (words[0] ==
 * "metrics"). Returns the one-line JSON reply of the store query
 * protocol — {"ok":true,"exit":0,"text":...} with the rendered
 * snapshot, or {"ok":false,"error":...} on a malformed verb. The
 * default format is prom.
 */
std::string metricsQueryReply(const std::vector<std::string> &words);

} // namespace l0vliw::metrics

#endif // L0VLIW_METRICS_REGISTRY_HH
