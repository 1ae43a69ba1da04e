#include "net/fault.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/decimal.hh"
#include "common/logging.hh"
#include "metrics/registry.hh"

namespace l0vliw::net
{

namespace
{

/** Count a drawn (non-None) fault by kind. Each kind's handle
 *  resolves on its first draw, so a scrape lists only the kinds a plan
 *  has drawn; after that a draw costs one atomic load and one relaxed
 *  add under FaultPlan's existing lock. */
void
countFault(FaultAction::Kind kind)
{
    // Indexed by FaultAction::Kind; None is never counted.
    static const char *const kSeries[] = {
        nullptr,
        "l0vliw_net_faults_injected_total{kind=\"delay\"}",
        "l0vliw_net_faults_injected_total{kind=\"drop\"}",
        "l0vliw_net_faults_injected_total{kind=\"corrupt\"}",
        "l0vliw_net_faults_injected_total{kind=\"stall\"}",
        "l0vliw_net_faults_injected_total{kind=\"reset\"}",
    };
    static_assert(std::size(kSeries)
                      == static_cast<std::size_t>(FaultAction::Kind::Reset)
                             + 1,
                  "one series slot per FaultAction::Kind");
    static std::atomic<metrics::Counter *> counters[std::size(kSeries)];
    const auto k = static_cast<std::size_t>(kind);
    if (kSeries[k] == nullptr)
        return;
    metrics::Counter *c = counters[k].load();
    if (c == nullptr) {
        // Racing first draws resolve the same handle: the registry
        // lookup is idempotent.
        c = &metrics::counter(
            kSeries[k],
            "Injected fault actions drawn by the active fault plan");
        counters[k].store(c);
    }
    c->inc();
}

} // namespace

namespace
{

/** An injected stall on a read with no deadline still ends eventually:
 *  the caller opted out of bounded reads, but a fault-injection run
 *  must terminate, so the stall resolves after this cap and the read
 *  proceeds normally. */
constexpr int kUnboundedStallCapMs = 30000;

bool
parseProb(const std::string &text, double &out, std::string &error,
          const std::string &clause)
{
    errno = 0;
    char *end = nullptr;
    double p = std::strtod(text.c_str(), &end);
    if (text.empty() || errno != 0 || *end != '\0' || !std::isfinite(p)
        || p < 0 || p > 1) {
        error = "fault clause '" + clause
                + "': probability must be in [0, 1]";
        return false;
    }
    out = p;
    return true;
}

void
sleepMs(int ms)
{
    if (ms > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

} // namespace

bool
FaultSpec::parse(const std::string &text, FaultSpec &out,
                 std::string &error)
{
    FaultSpec spec;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        std::size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        std::string clause = text.substr(pos, comma - pos);
        pos = comma + 1;
        if (clause.empty()) {
            error = "fault spec has an empty clause";
            return false;
        }

        if (clause.rfind("seed=", 0) == 0) {
            if (!parseDecimal(clause.substr(5), 0, UINT64_MAX,
                              spec.seed)) {
                error = "fault clause '" + clause
                        + "': seed must be a decimal u64";
                return false;
            }
            continue;
        }

        if (clause.rfind("delay=", 0) == 0) {
            // delay=<min>..<max>ms@<p>
            std::string value = clause.substr(6);
            std::size_t dots = value.find("..");
            std::size_t unit = value.find("ms@");
            if (dots == std::string::npos || unit == std::string::npos
                || unit < dots + 2) {
                error = "fault clause '" + clause
                        + "': expected delay=<min>..<max>ms@<p>";
                return false;
            }
            std::string minText = value.substr(0, dots);
            std::string maxText =
                value.substr(dots + 2, unit - (dots + 2));
            auto parseMs = [&](const std::string &t, int &ms) {
                if (!parseDecimal(t, 0, 600000, ms)) {
                    error = "fault clause '" + clause
                            + "': delay bound out of [0, 600000]ms";
                    return false;
                }
                return true;
            };
            if (!parseMs(minText, spec.delayMinMs)
                || !parseMs(maxText, spec.delayMaxMs))
                return false;
            if (spec.delayMaxMs < spec.delayMinMs) {
                error = "fault clause '" + clause
                        + "': max delay below min";
                return false;
            }
            if (!parseProb(value.substr(unit + 3), spec.delayProb,
                           error, clause))
                return false;
            continue;
        }

        if (clause.rfind("latency=", 0) == 0) {
            // latency=<ms>ms — fixed, probability-free, per write.
            std::string value = clause.substr(8);
            if (value.size() < 3
                || value.compare(value.size() - 2, 2, "ms") != 0) {
                error = "fault clause '" + clause
                        + "': expected latency=<ms>ms";
                return false;
            }
            if (!parseDecimal(value.substr(0, value.size() - 2), 1,
                              600000, spec.latencyMs)) {
                error = "fault clause '" + clause
                        + "': latency out of [1, 600000]ms";
                return false;
            }
            continue;
        }

        std::size_t at = clause.find('@');
        if (at != std::string::npos) {
            std::string name = clause.substr(0, at);
            double *prob = nullptr;
            if (name == "drop")
                prob = &spec.dropProb;
            else if (name == "corrupt")
                prob = &spec.corruptProb;
            else if (name == "stall")
                prob = &spec.stallProb;
            else if (name == "reset")
                prob = &spec.resetProb;
            if (prob != nullptr) {
                if (!parseProb(clause.substr(at + 1), *prob, error,
                               clause))
                    return false;
                continue;
            }
        }

        error = "unrecognized fault clause '" + clause + "' (expected "
                "seed=<u64>, delay=<min>..<max>ms@<p>, latency=<ms>ms, "
                "or <drop|corrupt|stall|reset>@<p>)";
        return false;
    }
    out = spec;
    return true;
}

std::string
FaultSpec::summary() const
{
    char buf[64];
    std::string text = "seed=" + std::to_string(seed);
    auto prob = [&](double p) {
        std::snprintf(buf, sizeof(buf), "%g", p);
        return std::string(buf);
    };
    if (delayProb > 0)
        text += ",delay=" + std::to_string(delayMinMs) + ".."
                + std::to_string(delayMaxMs) + "ms@" + prob(delayProb);
    if (dropProb > 0)
        text += ",drop@" + prob(dropProb);
    if (corruptProb > 0)
        text += ",corrupt@" + prob(corruptProb);
    if (stallProb > 0)
        text += ",stall@" + prob(stallProb);
    if (resetProb > 0)
        text += ",reset@" + prob(resetProb);
    if (latencyMs > 0)
        text += ",latency=" + std::to_string(latencyMs) + "ms";
    return text;
}

FaultAction
FaultPlan::next(FaultOp op)
{
    std::lock_guard<std::mutex> lock(mutex_);
    FaultAction action;
    // The fixed link latency is not a fault decision: it applies to
    // every write, consumes no RNG draws (the probabilistic sequence
    // stays a pure function of the seed with or without it), and
    // composes with whatever action is drawn below.
    if (op == FaultOp::Write)
        action.latencyMs = spec_.latencyMs;
    // Fixed draw order keeps the sequence a pure function of the seed:
    // severity-major so a high-reset spec is not masked by delays.
    if (rng_.chance(spec_.resetProb)) {
        action.kind = FaultAction::Kind::Reset;
    } else if (op == FaultOp::Write && rng_.chance(spec_.dropProb)) {
        action.kind = FaultAction::Kind::Drop;
    } else if (rng_.chance(spec_.corruptProb)) {
        action.kind = FaultAction::Kind::Corrupt;
        action.salt = rng_.next();
    } else if (op == FaultOp::Read && rng_.chance(spec_.stallProb)) {
        action.kind = FaultAction::Kind::Stall;
    } else if (rng_.chance(spec_.delayProb)) {
        action.kind = FaultAction::Kind::Delay;
        action.delayMs = static_cast<int>(
            rng_.range(spec_.delayMinMs, spec_.delayMaxMs));
    }
    countFault(action.kind);
    return action;
}

namespace
{

std::mutex g_planMutex;
std::shared_ptr<FaultPlan> g_plan;

} // namespace

std::shared_ptr<FaultPlan>
installFaultPlan(std::shared_ptr<FaultPlan> plan)
{
    std::lock_guard<std::mutex> lock(g_planMutex);
    std::swap(g_plan, plan);
    return plan;
}

std::shared_ptr<FaultPlan>
activeFaultPlan()
{
    std::lock_guard<std::mutex> lock(g_planMutex);
    return g_plan;
}

bool
installFaultPlanFromSpec(const std::string &specText, std::string &error)
{
    FaultSpec spec;
    if (!FaultSpec::parse(specText, spec, error))
        return false;
    installFaultPlan(std::make_shared<FaultPlan>(spec));
    return true;
}

void
installFaultPlanFromEnv()
{
    const char *spec = std::getenv("L0VLIW_FAULT_INJECT");
    if (spec == nullptr || spec[0] == '\0')
        return;
    std::string error;
    if (!installFaultPlanFromSpec(spec, error))
        fatal("L0VLIW_FAULT_INJECT: %s", error.c_str());
}

ssize_t
FaultyStream::read(char *buf, std::size_t n, int remainingMs,
                   bool &timedOut, std::string &error)
{
    timedOut = false;
    auto start = std::chrono::steady_clock::now();
    auto elapsedMs = [&] {
        return static_cast<int>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - start)
                .count());
    };

    FaultAction action;
    if (plan_ != nullptr)
        action = plan_->next(FaultOp::Read);

    switch (action.kind) {
      case FaultAction::Kind::Reset:
        ::shutdown(fd_, SHUT_RDWR);
        error = "connection reset (injected)";
        return -1;
      case FaultAction::Kind::Stall:
        // The peer goes silent: burn the whole deadline (or the cap on
        // an unbounded read) before anything arrives.
        if (remainingMs >= 0) {
            sleepMs(remainingMs);
            timedOut = true;
            return -1;
        }
        sleepMs(kUnboundedStallCapMs);
        break;
      case FaultAction::Kind::Delay:
        sleepMs(action.delayMs);
        break;
      default:
        break;
    }

    for (;;) {
        if (remainingMs >= 0) {
            // A spent budget still takes what is already in: polling
            // with 0 left never waits.
            int left = std::max(0, remainingMs - elapsedMs());
            pollfd pfd{};
            pfd.fd = fd_;
            pfd.events = POLLIN;
            int ready = ::poll(&pfd, 1, left);
            if (ready < 0) {
                if (errno == EINTR)
                    continue;
                error = std::string("poll: ") + std::strerror(errno);
                return -1;
            }
            if (ready == 0) {
                timedOut = true;
                return -1;
            }
            // POLLHUP/POLLERR fall through: read() reports them as
            // EOF or the real error.
        }
        ssize_t got = ::read(fd_, buf, n);
        if (got < 0) {
            if (errno == EINTR)
                continue;
            error = std::string("read: ") + std::strerror(errno);
            return -1;
        }
        if (got > 0 && action.kind == FaultAction::Kind::Corrupt) {
            // A control byte is invalid anywhere in a compact JSON
            // frame, so this corruption is always caught by the
            // decoder — see the header comment.
            std::size_t at = static_cast<std::size_t>(
                action.salt % static_cast<std::uint64_t>(got));
            buf[at] = static_cast<char>(1 + (action.salt >> 32) % 7);
        }
        return got;
    }
}

bool
FaultyStream::writeAll(const char *data, std::size_t n,
                       std::string &error)
{
    FaultAction action;
    if (plan_ != nullptr)
        action = plan_->next(FaultOp::Write);

    // Simulated link latency: every frame pays it before any fault
    // semantics apply (even a dropped frame "travelled" first).
    sleepMs(action.latencyMs);

    std::size_t limit = n;
    switch (action.kind) {
      case FaultAction::Kind::Reset:
        ::shutdown(fd_, SHUT_RDWR);
        error = "connection reset (injected)";
        return false;
      case FaultAction::Kind::Drop:
        return true;
      case FaultAction::Kind::Corrupt:
        // A writer-side "corruption" is a torn frame: part of the
        // bytes go out (no terminator), then the op fails so the
        // caller tears the stream down and the peer sees truncation.
        limit = n == 0 ? 0 : action.salt % n;
        break;
      case FaultAction::Kind::Delay:
        sleepMs(action.delayMs);
        break;
      default:
        break;
    }

    std::size_t off = 0;
    while (off < limit) {
        // MSG_NOSIGNAL keeps a hung-up socket peer an EPIPE error
        // instead of a process-killing SIGPIPE; a non-socket fd
        // (ENOTSOCK) falls back to plain write and the process's
        // SIGPIPE disposition.
        ssize_t sent = ::send(fd_, data + off, limit - off,
                              MSG_NOSIGNAL);
        if (sent < 0 && errno == ENOTSOCK)
            sent = ::write(fd_, data + off, limit - off);
        if (sent < 0) {
            if (errno == EINTR)
                continue;
            error = std::string("write: ") + std::strerror(errno);
            return false;
        }
        off += static_cast<std::size_t>(sent);
    }
    if (action.kind == FaultAction::Kind::Corrupt) {
        error = "frame truncated mid-write (injected)";
        return false;
    }
    return true;
}

} // namespace l0vliw::net
