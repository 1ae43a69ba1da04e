#include "net/server.hh"

#include <condition_variable>
#include <deque>

#include <sys/socket.h>

#include "common/logging.hh"
#include "net/framing.hh"

namespace l0vliw::net
{

namespace
{

/** Each per-connection read waits at most this long before re-arming.
 *  An idle connection stays open, but no single silent stretch costs
 *  more: an injected stall burns this deadline instead of the 30 s
 *  unbounded-read cap, so daemon teardown never waits behind one. */
constexpr int kIdleReadDeadlineMs = 1000;

} // namespace

bool
Server::start(std::uint16_t port, Handler handler, std::string &error)
{
    if (running()) {
        error = "server already running";
        return false;
    }
    stopping_.store(false);
    handler_ = std::move(handler);
    listen_ = listenTcp(port, error, &port_);
    if (!listen_.valid())
        return false;
    acceptThread_ = std::thread([this]() { acceptLoop(); });
    return true;
}

void
Server::acceptLoop()
{
    for (;;) {
        std::string error;
        Fd conn = acceptConn(listen_.get(), error);
        if (!conn.valid()) {
            // acceptConn already rode out transient errors; reaching
            // here means the listener itself is gone. Expected during
            // stop() — anything else deserves a trace before the
            // daemon goes accept-deaf.
            if (!stopping_.load())
                warn("server on port %u stopped accepting: %s",
                     static_cast<unsigned>(port_), error.c_str());
            break;
        }
        accepted_.fetch_add(1);

        std::unique_lock<std::mutex> lock(mutex_);
        if (stopping_.load())
            break; // raced with stop(): drop the connection unserved
        reapFinished();
        if (maxConns_ > 0
            && conns_.size() >= static_cast<std::size_t>(maxConns_)) {
            lock.unlock();
            // Past the cap: the nack and a FIN, and the fd closes at
            // the end of this iteration. No thread was started, so a
            // flood of connections costs the daemon nothing but this.
            writeLine(conn.get(), capNack_, error);
            ::shutdown(conn.get(), SHUT_WR);
            continue;
        }
        auto c = std::make_unique<Conn>();
        c->fd = std::move(conn);
        Conn *raw = c.get();
        raw->thread = std::thread([this, raw]() { serveConn(raw); });
        conns_.push_back(std::move(c));
    }
}

void
Server::serveConn(Conn *conn)
{
    // One frame through the handler and its reply onto the wire.
    // False — a declining handler or a failed write — poisons the
    // connection: the peer sees EOF and its retry discipline takes
    // over.
    auto serve = [&](const std::string &frame) {
        std::optional<std::string> reply = handler_(frame);
        if (!reply.has_value())
            return false;
        std::string error;
        std::lock_guard<std::mutex> lock(conn->writeMutex);
        return writeLine(conn->fd.get(), *reply, error);
    };

    // With one worker the connection thread serves each frame inline.
    // With more it stays the reader and a worker pool drains a
    // bounded frame queue, replying as handlers complete — completion
    // order, not request order (the cell protocol correlates by id).
    // The queue bound is the backpressure that keeps a fast client in
    // the kernel's socket buffer instead of daemon memory. A poisoned
    // frame shuts the socket down (the reader wakes with EOF) and the
    // remaining queued frames drain unanswered.
    const std::size_t depth = static_cast<std::size_t>(2 * workersPerConn_);
    std::mutex qMutex;
    std::condition_variable notEmpty, notFull;
    std::deque<std::string> queue;
    bool readerDone = false;
    bool broken = false;
    std::vector<std::thread> workers;
    for (int w = 0; workersPerConn_ > 1 && w < workersPerConn_; ++w)
        workers.emplace_back([&]() {
            std::string frame;
            for (;;) {
                {
                    std::unique_lock<std::mutex> lock(qMutex);
                    notEmpty.wait(lock, [&]() {
                        return !queue.empty() || readerDone;
                    });
                    if (queue.empty())
                        return;
                    frame = std::move(queue.front());
                    queue.pop_front();
                    notFull.notify_one();
                    if (broken)
                        continue; // drain without serving
                }
                if (!serve(frame)) {
                    std::lock_guard<std::mutex> lock(qMutex);
                    if (!broken) {
                        broken = true;
                        ::shutdown(conn->fd.get(), SHUT_RDWR);
                        notFull.notify_all(); // reader may be blocked
                    }
                }
            }
        });

    LineReader reader(conn->fd.get());
    std::string line, error;
    for (;;) {
        LineReader::Status status =
            reader.readLine(line, error, kIdleReadDeadlineMs);
        if (status == LineReader::Status::Timeout) {
            // Idle (or stalled) connection: re-arm the read. Partial
            // bytes stay buffered, so a slow frame still completes;
            // stop() still wins promptly because its shutdown turns
            // the next read into an immediate EOF.
            if (stopping_.load())
                break;
            continue;
        }
        if (status != LineReader::Status::Line)
            break;
        if (workers.empty()) {
            if (!serve(line))
                break;
            continue;
        }
        std::unique_lock<std::mutex> lock(qMutex);
        notFull.wait(lock, [&]() {
            return queue.size() < depth || broken;
        });
        if (broken)
            break;
        queue.push_back(std::move(line));
        notEmpty.notify_one();
    }
    {
        std::lock_guard<std::mutex> lock(qMutex);
        readerDone = true;
        notEmpty.notify_all();
    }
    for (auto &w : workers)
        w.join();

    // The connection is over, whatever ended it. Close the fd now —
    // under the mutex, so stop()'s shutdown sweep can never touch a
    // recycled descriptor — rather than holding it until the next
    // accept reaps us; an idle daemon must not sit on a finished
    // suite's worth of sockets.
    std::lock_guard<std::mutex> lock(mutex_);
    ::shutdown(conn->fd.get(), SHUT_RDWR);
    conn->fd.reset();
    conn->done.store(true);
}

void
Server::reapFinished()
{
    for (std::size_t i = 0; i < conns_.size();) {
        if (conns_[i]->done.load()) {
            conns_[i]->thread.join();
            conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(i));
        } else {
            ++i;
        }
    }
}

void
Server::stop()
{
    if (!running())
        return;
    stopping_.store(true);
    // Wake accept() — on Linux shutting a listening socket down makes
    // the blocked accept return, where plain close() would not.
    ::shutdown(listen_.get(), SHUT_RDWR);
    acceptThread_.join();
    listen_.reset();

    // Wake every reader still blocked on its socket (under the mutex:
    // a finishing serveConn closes its own fd there, and we must not
    // shut down a recycled descriptor)...
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto &conn : conns_)
            if (conn->fd.valid())
                ::shutdown(conn->fd.get(), SHUT_RDWR);
    }
    // ...then join outside it — serveConn needs the mutex on its way
    // out. conns_ itself is stable: only the accept loop (joined
    // above) ever grows or reaps it.
    for (auto &conn : conns_)
        conn->thread.join();
    conns_.clear();
}

} // namespace l0vliw::net
