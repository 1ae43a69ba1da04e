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
 * The handler runs concurrently across connections (net::Server is
 * thread-per-connection); one mutex serializes every touch of the
 * EventLog underneath.
 */

#ifndef L0VLIW_STORE_SERVICE_HH
#define L0VLIW_STORE_SERVICE_HH

#include <cstdint>
#include <mutex>
#include <optional>
#include <set>
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

    /** handleLine bound as a net::Server handler (no connection
     *  cap). */
    net::Server::Handler
    handler()
    {
        return [this](const std::string &line) {
            return handleLine(line);
        };
    }

    /**
     * The daemon's handler pair: everything handleLine serves, plus
     * the max-connections guard, which needs the connection's id and
     * its end. Bind both on one net::Server:
     *   server.start(port, svc.sessionHandler(), svc.closedHandler(),
     *                error)
     */
    net::Server::SessionHandler
    sessionHandler()
    {
        return [this](const std::string &line, net::Server::Peer &peer) {
            return handleSessionLine(line, peer);
        };
    }

    /** Companion to sessionHandler(): frees the connection's slot
     *  when it ends. */
    net::Server::ClosedHandler
    closedHandler()
    {
        return [this](net::Server::Peer &peer) {
            connectionClosed(peer);
        };
    }

    /**
     * Cap concurrent connections (session mode only; 0 = unlimited).
     * A connection past the cap gets one nack line and is closed —
     * reject-don't-queue, so clients that leak used-then-idle
     * connections cannot exhaust the daemon's threads and starve
     * publishers. A connection counts from its first line. Call
     * before serving.
     */
    void setMaxConnections(int cap) { maxConnections_ = cap; }

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
    std::optional<std::string>
    handleSessionLine(const std::string &line, net::Server::Peer &peer);
    void connectionClosed(net::Server::Peer &peer);
    std::string handleIngest(const std::string &line);
    std::string handleQuery(const std::string &line);
    /** Compact down to retainRuns_ if any suite exceeds it (store
     *  mutex held). */
    void maybeCompactLocked();

    EventLog log_;
    std::mutex mutex_;
    std::set<std::uint64_t> liveConns_; ///< session-mode peer ids
    int maxConnections_ = 0;
    int retainRuns_ = 0;
};

} // namespace l0vliw::store

#endif // L0VLIW_STORE_SERVICE_HH
