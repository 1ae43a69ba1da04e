/**
 * @file
 * A small line-framed request/reply TCP server: the accept loop under
 * the driver's `--serve` worker daemon and the result store (anything
 * that answers NDJSON lines on a port).
 *
 * One background thread accepts; each connection gets its own thread
 * running one read loop — read-line → handler → write-line — until
 * the peer hangs up, the handler declines (nullopt closes the
 * connection), a reply write fails, or the server stops. Handlers
 * run concurrently across connections and must be thread-safe.
 * stop() is idempotent, wakes the accept loop by shutting the
 * listening socket down, shuts every live connection, and joins all
 * threads — after it returns no server thread is running, which is
 * what makes SIGINT-driven daemon shutdown clean (the signal handler
 * only sets a flag; teardown happens on the normal path).
 *
 * A serving mode is a worker count, never a second loop
 * (setWorkersPerConnection). With 1, the default, the connection
 * thread handles each frame inline: strict request order, no extra
 * thread or queue hop. With more, the connection thread only reads,
 * feeding a bounded queue of 2x workers frames to a per-connection
 * pool whose workers write replies *as they complete*, not in request
 * order (ordering is the client's problem; the cell protocol solves it
 * with ids). The queue bound is the backpressure: a client that
 * outruns the workers blocks in the kernel's socket buffer, never in
 * daemon memory. See src/net/PROTOCOL.md for the windowing rules.
 *
 * A connection cap (setMaxConnections) is enforced at accept: past
 * it, the accept loop writes one nack line and closes the connection
 * without starting a thread for it, so connections that never send a
 * line count like any other.
 */

#ifndef L0VLIW_NET_SERVER_HH
#define L0VLIW_NET_SERVER_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/socket.hh"

namespace l0vliw::net
{

/** Serves one request line → one reply line per round trip. */
class Server
{
  public:
    /**
     * Maps a received frame to the reply frame. Returning nullopt
     * closes that connection instead of replying (also how tests
     * simulate a worker dropping mid-job). Must be thread-safe.
     */
    using Handler =
        std::function<std::optional<std::string>(const std::string &)>;

    Server() = default;
    ~Server() { stop(); }

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind @p port (0 picks an ephemeral port — see port()), start
     * the accept thread. False + @p error when the port is taken.
     */
    bool start(std::uint16_t port, Handler handler, std::string &error);

    /**
     * start() with an ignored third argument, so the four-argument
     * spelling over a store::StoreService still compiles:
     * `start(port, svc.sessionHandler(), svc.closedHandler(), error)`.
     */
    bool
    start(std::uint16_t port, Handler handler, std::nullptr_t,
          std::string &error)
    {
        return start(port, std::move(handler), error);
    }

    /**
     * Serve each connection with @p workers handler threads, replying
     * as handlers complete — out of request order. The default (1)
     * handles each frame inline on the connection thread; protocols
     * whose replies carry no correlation id (the store's ack stream)
     * must stay there. Call before start().
     */
    void setWorkersPerConnection(int workers)
    {
        workersPerConn_ = workers < 1 ? 1 : workers;
    }

    /**
     * Serve at most @p cap connections at once (0, the default, is
     * unlimited). A connection accepted past the cap is sent @p nack
     * as one line and closed, with no thread started for it: reject,
     * don't queue, so idle or silent connections cannot exhaust the
     * daemon's threads. Call before start().
     */
    void
    setMaxConnections(int cap, std::string nack)
    {
        maxConns_ = cap < 0 ? 0 : cap;
        capNack_ = std::move(nack);
    }

    /** The bound port (valid after a successful start). */
    std::uint16_t port() const { return port_; }

    /** Lifetime connection count, refused ones included (inspectable
     *  by tests). */
    int connectionsAccepted() const { return accepted_.load(); }

    bool running() const { return listen_.valid(); }

    /** Stop accepting, drop every connection, join all threads. */
    void stop();

  private:
    struct Conn
    {
        Fd fd;
        std::thread thread;
        std::atomic<bool> done{false};
        /** Serializes the pool workers' completion-order replies on
         *  this connection. */
        std::mutex writeMutex;
    };

    void acceptLoop();
    void serveConn(Conn *conn);
    /** Join and drop connections whose threads already finished. */
    void reapFinished();

    Handler handler_;
    Fd listen_;
    int workersPerConn_ = 1;
    int maxConns_ = 0;     ///< 0: unlimited
    std::string capNack_;  ///< the line a connection past the cap gets
    std::uint16_t port_ = 0;
    std::thread acceptThread_;
    std::mutex mutex_; ///< guards conns_
    std::vector<std::unique_ptr<Conn>> conns_;
    std::atomic<bool> stopping_{false};
    std::atomic<int> accepted_{0};
};

} // namespace l0vliw::net

#endif // L0VLIW_NET_SERVER_HH
