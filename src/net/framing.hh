/**
 * @file
 * Line framing over a byte-stream fd: the transport form of the
 * executor's NDJSON protocol (one JSON document per '\n'-terminated
 * line; see src/driver/README.md).
 *
 * A TCP read returns whatever bytes are in flight — half a line, three
 * lines and a fragment — so LineReader keeps a rolling buffer and
 * hands back exactly one frame at a time. Truncation is first-class:
 * EOF in the middle of a frame (peer died mid-write) reports Error,
 * not a silently short line, and a frame longer than the configured
 * bound is rejected before it can grow without limit. writeLine is the
 * mirror image: it survives partial writes and EINTR, and appends the
 * terminator itself so a frame can never go out split.
 *
 * Reads are deadline-aware: readLine takes an optional wall-clock
 * budget (poll-based) and reports Timeout when the peer stays silent
 * past it — the primitive the executors' per-job deadlines, heartbeat
 * probes, and worker watchdogs are built on. All raw I/O is routed
 * through net::FaultyStream, so an installed FaultPlan (--fault-inject)
 * exercises every transport through this one seam.
 */

#ifndef L0VLIW_NET_FRAMING_HH
#define L0VLIW_NET_FRAMING_HH

#include <cstddef>
#include <string>

namespace l0vliw::net
{

/** Incremental '\n'-framed reader over a raw fd (socket or pipe). */
class LineReader
{
  public:
    enum class Status
    {
        Line,    ///< one complete frame delivered
        Eof,     ///< clean end of stream at a frame boundary
        Timeout, ///< deadline expired before a complete frame
        Error,   ///< read error, truncated frame, or oversized frame
    };

    /** Why the last Error happened, machine-readably — the transport
     *  evidence the executors map to structured failure reasons. */
    enum class ErrorKind
    {
        None,
        Io,        ///< read(2)/poll(2) failed (reset, EPIPE, ...)
        Truncated, ///< EOF mid-frame: peer died while writing
        Oversized, ///< frame exceeded the byte bound: off-protocol peer
    };

    /**
     * Read from @p fd; frames beyond @p maxLine bytes are errors.
     * The default bound (16 MiB) is a garbage-peer backstop, sized
     * far above any real CellJob/CellOutcome line so the TCP
     * transport never rejects a frame the unbounded pipe transport
     * would carry.
     */
    explicit LineReader(int fd = -1, std::size_t maxLine = 16u << 20)
        : fd_(fd), maxLine_(maxLine)
    {
    }

    /** Point at a new stream, dropping any buffered bytes (used after
     *  a reconnect — stale bytes belong to the dead connection). */
    void
    reset(int fd)
    {
        fd_ = fd;
        buf_.clear();
        scanned_ = 0;
        errorKind_ = ErrorKind::None;
    }

    /**
     * Deliver the next frame into @p out (terminator stripped).
     * With @p deadlineMs < 0, blocks until a full frame, EOF, or an
     * error; otherwise returns Timeout once @p deadlineMs of wall
     * clock passes without one (buffered partial bytes are kept — a
     * retried read with a fresh budget resumes the same frame); 0
     * polls, taking only what has already arrived. On Error @p error
     * says why and errorKind() says which kind.
     */
    Status readLine(std::string &out, std::string &error,
                    int deadlineMs = -1);

    /** The classification of the most recent Error (None otherwise). */
    ErrorKind errorKind() const { return errorKind_; }

  private:
    int fd_ = -1;
    std::size_t maxLine_;
    std::string buf_; ///< bytes received past the last delivered frame
    std::size_t scanned_ = 0; ///< buf_ prefix known terminator-free
    ErrorKind errorKind_ = ErrorKind::None;
};

/**
 * Write @p line plus the '\n' terminator, looping over partial writes
 * and EINTR until every byte is out. False sets @p error (the peer
 * hung up, typically — callers treat it like EOF and reconnect).
 */
bool writeLine(int fd, const std::string &line, std::string &error);

} // namespace l0vliw::net

#endif // L0VLIW_NET_FRAMING_HH
