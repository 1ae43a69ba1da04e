#include "net/framing.hh"

#include <chrono>

#include "metrics/registry.hh"
#include "net/fault.hh"

namespace l0vliw::net
{

namespace
{

// Every transport (pipes, TCP, the publisher channel) frames through
// these two functions, so this is the one seam that sees all wire
// traffic. Handles resolve once (cold registry lock), then each frame
// costs two relaxed atomic adds — invariant 10: no lock, no
// allocation on the per-frame path.
metrics::Counter &
framesIn()
{
    static metrics::Counter &c = metrics::counter(
        "l0vliw_net_frames_total{dir=\"in\"}",
        "Newline-delimited frames read or written by this process");
    return c;
}

metrics::Counter &
framesOut()
{
    static metrics::Counter &c = metrics::counter(
        "l0vliw_net_frames_total{dir=\"out\"}",
        "Newline-delimited frames read or written by this process");
    return c;
}

metrics::Counter &
bytesIn()
{
    static metrics::Counter &c = metrics::counter(
        "l0vliw_net_bytes_total{dir=\"in\"}",
        "Frame bytes read or written by this process (terminators "
        "included)");
    return c;
}

metrics::Counter &
bytesOut()
{
    static metrics::Counter &c = metrics::counter(
        "l0vliw_net_bytes_total{dir=\"out\"}",
        "Frame bytes read or written by this process (terminators "
        "included)");
    return c;
}

metrics::Counter &
readTimeouts()
{
    static metrics::Counter &c = metrics::counter(
        "l0vliw_net_read_timeouts_total",
        "Framed reads that expired their deadline");
    return c;
}

} // namespace

LineReader::Status
LineReader::readLine(std::string &out, std::string &error,
                     int deadlineMs)
{
    out.clear();
    errorKind_ = ErrorKind::None;
    auto start = std::chrono::steady_clock::now();
    std::shared_ptr<FaultPlan> plan = activeFaultPlan();
    FaultyStream stream(fd_, plan.get());

    for (;;) {
        // Resume the terminator scan where the last read left off —
        // rescanning from 0 per 4KB chunk would be quadratic in frame
        // size, a cheap CPU burn for a terminator-less peer.
        std::size_t nl = buf_.find('\n', scanned_);
        scanned_ = nl == std::string::npos ? buf_.size() : nl;
        if (nl != std::string::npos && nl <= maxLine_) {
            out.assign(buf_, 0, nl);
            buf_.erase(0, nl + 1);
            scanned_ = 0;
            framesIn().inc();
            bytesIn().inc(static_cast<std::uint64_t>(nl) + 1);
            return Status::Line;
        }
        // No terminator yet (or one past the bound): an over-long
        // frame is rejected whether it arrived whole or is still
        // growing — either way the peer is off-protocol.
        if (nl != std::string::npos || buf_.size() > maxLine_) {
            error = "frame exceeds the " + std::to_string(maxLine_)
                    + "-byte bound";
            errorKind_ = ErrorKind::Oversized;
            buf_.clear();
            scanned_ = 0;
            return Status::Error;
        }

        int remainingMs = -1;
        if (deadlineMs >= 0) {
            auto elapsed =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            remainingMs = deadlineMs - static_cast<int>(elapsed);
            if (remainingMs < 0)
                remainingMs = 0;
        }

        char chunk[4096];
        bool timedOut = false;
        ssize_t n = stream.read(chunk, sizeof(chunk), remainingMs,
                                timedOut, error);
        if (n > 0) {
            buf_.append(chunk, static_cast<std::size_t>(n));
            continue;
        }
        if (timedOut) {
            // Partial bytes stay buffered: the frame is merely late,
            // and a retried read with a fresh budget may complete it.
            // A zero budget is a poll, not a deadline that expired.
            if (deadlineMs != 0)
                readTimeouts().inc();
            return Status::Timeout;
        }
        if (n == 0) {
            if (buf_.empty())
                return Status::Eof;
            error = "stream ended mid-frame (" + std::to_string(buf_.size())
                    + " bytes of truncated frame)";
            errorKind_ = ErrorKind::Truncated;
            buf_.clear();
            scanned_ = 0;
            return Status::Error;
        }
        errorKind_ = ErrorKind::Io;
        return Status::Error;
    }
}

bool
writeLine(int fd, const std::string &line, std::string &error)
{
    std::string frame = line;
    frame += '\n';
    std::shared_ptr<FaultPlan> plan = activeFaultPlan();
    FaultyStream stream(fd, plan.get());
    if (!stream.writeAll(frame.data(), frame.size(), error))
        return false;
    framesOut().inc();
    bytesOut().inc(frame.size());
    return true;
}

} // namespace l0vliw::net
