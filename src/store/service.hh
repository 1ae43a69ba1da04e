/**
 * @file
 * The result store's protocol layer: one net::Server handler that
 * accepts raw --stream event frames and answers line-oriented queries
 * on the same port.
 *
 * Wire protocol (one line in, one line out, per src/store/README.md):
 *
 *  - `{"event":"ping"}` answers the shared pong probe, so executors'
 *    heartbeat discipline works against a store too.
 *  - Any other line starting with '{' is an event frame (a "cell" or
 *    "grid" event). The reply is `{"event":"ack","stored":true}` for
 *    a newly stored frame, `{"event":"ack","stored":false}` for a
 *    dedup-dropped resend, or `{"event":"nack","error":...}` for an
 *    undecodable frame — acks are what give the publisher bounded,
 *    at-least-once delivery.
 *  - Anything else is a query: `latest-grid <suite> [fmt]`,
 *    `diff <suite> <rev-a> <rev-b> [threshold%] [fmt]`,
 *    `runs <suite> [fmt]`, `stats [fmt]`, `compact <keep-runs>` with
 *    fmt one of table|csv|json (default table). Queries answer one
 *    JSON line: `{"ok":true,"exit":N,"text":"..."}` — the client
 *    prints text verbatim and exits N — or `{"ok":false,"error":...}`.
 *
 * Strictly request/reply, in order: the store never writes a line the
 * peer did not ask for (which lets a publisher match acks to frames by
 * position), so it needs nothing from net::Server but the handler and
 * keeps no per-connection state. The handler runs concurrently
 * across connections (net::Server is thread-per-connection); one mutex
 * serializes every touch of the EventLog underneath.
 */

#ifndef L0VLIW_STORE_SERVICE_HH
#define L0VLIW_STORE_SERVICE_HH

#include <cstddef>
#include <mutex>
#include <optional>
#include <string>

#include "net/server.hh"
#include "store/event_log.hh"

namespace l0vliw::store
{

/** The store daemon's request handler over an EventLog. */
class StoreService
{
  public:
    /** Open (and replay) the backing log; see EventLog::open. */
    bool open(const std::string &logPath, std::string &error);

    /**
     * One protocol round trip: event frames ingest and ack, query
     * lines answer. Never returns nullopt — a store connection only
     * closes from the peer's side (or daemon shutdown).
     */
    std::optional<std::string> handleLine(const std::string &line);

    /** handleLine bound as a net::Server handler. */
    net::Server::Handler
    handler()
    {
        return [this](const std::string &line) {
            return handleLine(line);
        };
    }

    /** The pair the four-argument net::Server::start takes: the same
     *  handler, and no close callback (the store keeps no
     *  per-connection state). */
    net::Server::Handler sessionHandler() { return handler(); }
    std::nullptr_t closedHandler() { return nullptr; }

    /**
     * The line a connection past the daemon's --max-conns cap gets
     * (net::Server::setMaxConnections) before it is closed: a nack,
     * like an undecodable frame's, naming the cap.
     */
    static std::string connectionLimitNack(int cap);

    /**
     * Auto-compaction: keep at most @p runs runs per suite (0 = keep
     * everything). Checked after each stored event; when a suite
     * exceeds the cap the whole log is compacted down to it — the
     * `--retain-runs N` daemon flag.
     */
    void setRetainRuns(int runs) { retainRuns_ = runs < 0 ? 0 : runs; }

    /** The index underneath — test access; callers must not race a
     *  running server (take no references across handleLine calls). */
    EventLog &log() { return log_; }

  private:
    std::string handleIngest(const std::string &line);
    std::string handleQuery(const std::string &line);
    /** Compact down to retainRuns_ if any suite exceeds it (store
     *  mutex held). */
    void maybeCompactLocked();

    EventLog log_;
    std::mutex mutex_;
    int retainRuns_ = 0;
};

} // namespace l0vliw::store

#endif // L0VLIW_STORE_SERVICE_HH
