#include "net/socket.hh"

#include <cerrno>
#include <cstring>

#include <csignal>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include "common/decimal.hh"

namespace l0vliw::net
{

void
Fd::reset(int fd)
{
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = fd;
}

bool
parseHostPort(const std::string &text, HostPort &out, std::string &error)
{
    std::size_t colon = text.rfind(':');
    if (colon == std::string::npos || colon == 0) {
        error = "endpoint '" + text + "' is not host:port";
        return false;
    }
    int port = 0;
    if (!parseDecimal(text.substr(colon + 1), 1, 65535, port)) {
        error = "endpoint '" + text + "' wants a port in [1, 65535]";
        return false;
    }
    out.host = text.substr(0, colon);
    out.port = static_cast<std::uint16_t>(port);
    return true;
}

namespace
{

void
setNoDelay(int fd)
{
    // Best-effort: the protocol still works without it, just slower.
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/**
 * Aggressive keepalive (probe after 30s idle, 3 probes 10s apart): a
 * peer host that vanishes without FIN/RST — power loss, partition —
 * turns into a read error within ~a minute instead of a read blocked
 * forever. Cells may legitimately compute for a long time, so this is
 * the only liveness bound: it fires on a dead *host*, never on a slow
 * job (the TCP stack acks the probes as long as the peer kernel is
 * up). Best-effort.
 */
void
setKeepAlive(int fd)
{
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_KEEPALIVE, &one, sizeof(one));
#ifdef TCP_KEEPIDLE
    int idle = 30, interval = 10, count = 3;
    ::setsockopt(fd, IPPROTO_TCP, TCP_KEEPIDLE, &idle, sizeof(idle));
    ::setsockopt(fd, IPPROTO_TCP, TCP_KEEPINTVL, &interval,
                 sizeof(interval));
    ::setsockopt(fd, IPPROTO_TCP, TCP_KEEPCNT, &count, sizeof(count));
#endif
}

/**
 * connect() bounded to 5 seconds via non-blocking connect + poll: a
 * blackholed peer (partition, powered-off host — no RST ever comes)
 * must cost one bounded attempt, not the kernel's ~2 minutes of SYN
 * retries per try, or the executor's sub-second failover story falls
 * apart. The socket is restored to blocking mode on success.
 */
bool
connectWithTimeout(int fd, const sockaddr *addr, socklen_t addrlen,
                   const std::string &host, const std::string &port,
                   std::string &error)
{
    constexpr int kConnectTimeoutMs = 5000;
    int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
        error = std::string("fcntl: ") + std::strerror(errno);
        return false;
    }

    bool connected = false;
    if (::connect(fd, addr, addrlen) == 0) {
        connected = true;
    } else if (errno == EINPROGRESS) {
        pollfd pfd{};
        pfd.fd = fd;
        pfd.events = POLLOUT;
        int ready;
        do {
            ready = ::poll(&pfd, 1, kConnectTimeoutMs);
        } while (ready < 0 && errno == EINTR);
        if (ready == 0) {
            error = "connect " + host + ":" + port + ": timed out after "
                    + std::to_string(kConnectTimeoutMs) + "ms";
        } else if (ready < 0) {
            error = std::string("poll: ") + std::strerror(errno);
        } else {
            int soError = 0;
            socklen_t len = sizeof(soError);
            if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soError, &len)
                    == 0
                && soError == 0)
                connected = true;
            else
                error = "connect " + host + ":" + port + ": "
                        + std::strerror(soError);
        }
    } else {
        error = "connect " + host + ":" + port + ": "
                + std::strerror(errno);
    }

    if (connected && ::fcntl(fd, F_SETFL, flags) < 0) {
        error = std::string("fcntl: ") + std::strerror(errno);
        return false;
    }
    return connected;
}

} // namespace

Fd
listenTcp(std::uint16_t port, std::string &error,
          std::uint16_t *boundPort)
{
    Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid()) {
        error = std::string("socket: ") + std::strerror(errno);
        return Fd();
    }
    int one = 1;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(port);
    if (::bind(fd.get(), reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        error = "bind port " + std::to_string(port) + ": "
                + std::strerror(errno);
        return Fd();
    }
    if (::listen(fd.get(), SOMAXCONN) != 0) {
        error = std::string("listen: ") + std::strerror(errno);
        return Fd();
    }
    if (boundPort != nullptr) {
        sockaddr_in bound{};
        socklen_t len = sizeof(bound);
        if (::getsockname(fd.get(), reinterpret_cast<sockaddr *>(&bound),
                          &len) != 0) {
            error = std::string("getsockname: ") + std::strerror(errno);
            return Fd();
        }
        *boundPort = ntohs(bound.sin_port);
    }
    return fd;
}

Fd
acceptConn(int listenFd, std::string &error)
{
    for (;;) {
        int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd >= 0) {
            setNoDelay(fd);
            setKeepAlive(fd);
            return Fd(fd);
        }
        // Per-connection hiccups must not kill a long-lived daemon's
        // accept loop: a peer that RSTs while queued (a port scanner,
        // a health probe) or transient resource exhaustion just means
        // "try the next connection". Only real listener errors —
        // EBADF/EINVAL from shutdown() included — propagate.
        if (errno == EINTR || errno == ECONNABORTED || errno == EPROTO)
            continue;
        if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS
            || errno == ENOMEM) {
            ::usleep(10000);
            continue;
        }
        error = std::string("accept: ") + std::strerror(errno);
        return Fd();
    }
}

Fd
connectTcp(const std::string &host, std::uint16_t port,
           std::string &error)
{
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo *res = nullptr;
    std::string portText = std::to_string(port);
    int rc = ::getaddrinfo(host.c_str(), portText.c_str(), &hints, &res);
    if (rc != 0) {
        error = "resolve " + host + ": " + gai_strerror(rc);
        return Fd();
    }

    Fd fd;
    error = "no addresses for " + host;
    for (addrinfo *ai = res; ai != nullptr; ai = ai->ai_next) {
        fd.reset(::socket(ai->ai_family, ai->ai_socktype,
                          ai->ai_protocol));
        if (!fd.valid()) {
            error = std::string("socket: ") + std::strerror(errno);
            continue;
        }
        if (connectWithTimeout(fd.get(), ai->ai_addr, ai->ai_addrlen,
                               host, portText, error)) {
            setNoDelay(fd.get());
            setKeepAlive(fd.get());
            error.clear();
            break;
        }
        fd.reset();
    }
    ::freeaddrinfo(res);
    return fd;
}

void
ignoreSigpipe()
{
    struct sigaction current{};
    if (::sigaction(SIGPIPE, nullptr, &current) == 0
        && current.sa_handler == SIG_DFL) {
        struct sigaction ignore{};
        ignore.sa_handler = SIG_IGN;
        ::sigaction(SIGPIPE, &ignore, nullptr);
    }
}

} // namespace l0vliw::net
