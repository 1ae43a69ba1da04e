/**
 * @file
 * The OS edge of the transport subsystem: an RAII file descriptor and
 * the three TCP operations the NDJSON cell protocol needs — listen,
 * accept, connect — plus host:port endpoint parsing.
 *
 * Everything here is error-code based (no exceptions): operations
 * return an invalid Fd and fill a message, so callers on the
 * retry/reconnect path can keep going. Connected sockets get
 * TCP_NODELAY — the protocol is one small request line against one
 * small reply line in lockstep, exactly the shape Nagle + delayed ACK
 * would serialize into 40ms round trips.
 */

#ifndef L0VLIW_NET_SOCKET_HH
#define L0VLIW_NET_SOCKET_HH

#include <cstdint>
#include <string>

namespace l0vliw::net
{

/** An owned file descriptor; closes on destruction. Move-only. */
class Fd
{
  public:
    Fd() = default;
    explicit Fd(int fd) : fd_(fd) {}
    ~Fd() { reset(); }

    Fd(const Fd &) = delete;
    Fd &operator=(const Fd &) = delete;

    Fd(Fd &&other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
    Fd &
    operator=(Fd &&other) noexcept
    {
        if (this != &other) {
            reset(other.fd_);
            other.fd_ = -1;
        }
        return *this;
    }

    int get() const { return fd_; }
    bool valid() const { return fd_ >= 0; }

    /** Give up ownership without closing. */
    int
    release()
    {
        int fd = fd_;
        fd_ = -1;
        return fd;
    }

    /** Close the current fd (if any) and adopt @p fd. */
    void reset(int fd = -1);

  private:
    int fd_ = -1;
};

/** One parsed "host:port" endpoint. */
struct HostPort
{
    std::string host;
    std::uint16_t port = 0;
};

/**
 * Parse "host:port" (the port is a decimal in [1, 65535]; the host
 * must be non-empty). False sets @p error and leaves @p out
 * unspecified.
 */
bool parseHostPort(const std::string &text, HostPort &out,
                   std::string &error);

/**
 * Bind and listen on @p port (0 picks an ephemeral port) on all
 * interfaces, SO_REUSEADDR set. @p boundPort, when non-null, receives
 * the actual port. Invalid Fd + @p error on failure.
 */
Fd listenTcp(std::uint16_t port, std::string &error,
             std::uint16_t *boundPort = nullptr);

/** Accept one connection (TCP_NODELAY applied). Blocks; an invalid
 *  Fd means the listening socket was shut down or accept failed. */
Fd acceptConn(int listenFd, std::string &error);

/** Connect to host:port (TCP_NODELAY applied). Blocks; invalid Fd +
 *  @p error on resolution or connection failure. */
Fd connectTcp(const std::string &host, std::uint16_t port,
              std::string &error);

/**
 * Ignore SIGPIPE process-wide so a peer-closed socket is an EPIPE
 * write error (handled on the retry path) instead of process death.
 * MSG_NOSIGNAL already covers socket sends, but the plain-write
 * fallback for a non-socket fd has no per-call opt-out.
 * Installs SIG_IGN only over SIG_DFL — an embedding application's own
 * handler is left alone. Idempotent; called by every component that
 * writes to a peer (daemons, executors).
 */
void ignoreSigpipe();

} // namespace l0vliw::net

#endif // L0VLIW_NET_SOCKET_HH
