/**
 * @file
 * Deterministic fault injection for the NDJSON byte-stream transports.
 *
 * A FaultSpec is parsed from a compact grammar:
 *
 *   seed=7,delay=0..50ms@0.2,drop@0.05,corrupt@0.02,stall@0.01,reset@0.02
 *
 * plus one non-probabilistic clause, `latency=<ms>ms`: a fixed
 * per-frame latency applied to *every* write, deterministically and
 * without touching the RNG stream — a simulated high-RTT link (each
 * direction pays the latency once per frame, so a request/reply round
 * trip costs 2x). The windowed-vs-lockstep throughput tests are built
 * on it: pure latency never corrupts, drops, or reorders.
 *
 * and compiled into a FaultPlan: a seeded (SplitMix64) source of
 * per-operation fault decisions. Every LineReader::readLine and
 * writeLine consults the process-global plan (when one is installed,
 * via --fault-inject / L0VLIW_FAULT_INJECT or installFaultPlan from a
 * test), so the same injection layer covers both ends of every TCP
 * stream: the --serve daemon's connections and the RemoteExecutor's
 * channels.
 *
 * Fault semantics per stream operation:
 *
 *   delay    read/write  sleep a uniform draw from [min, max] first
 *   drop     write       report success without sending — the peer
 *                        sees silence and its deadline fires
 *   corrupt  read        overwrite one received byte with a control
 *                        byte (0x01..0x07); write: truncate the frame
 *                        (partial write) and fail the op
 *   stall    read        no bytes "arrive" until the caller's
 *                        deadline expires (capped when unbounded)
 *   reset    read/write  shut the stream down and fail with a
 *                        connection-reset error
 *
 * Corruption deliberately injects bytes that are invalid anywhere in
 * a compact JSON document (the parser rejects raw control characters
 * even inside strings), so a corrupted frame is *detectable by
 * construction*: the chaos soak can assert every surviving cell is
 * bit-identical to an in-process run. Random bit flips would be
 * slightly more faithful but can silently survive JSON validation.
 *
 * Determinism: one FaultPlan yields one fixed action sequence from its
 * seed. Which operation gets which action still depends on thread
 * interleaving, so chaos runs are reproducible in distribution, not
 * byte-for-byte — what matters is that every seed must terminate with
 * correct-or-diagnosed cells, and that property is interleaving-proof.
 */

#ifndef L0VLIW_NET_FAULT_HH
#define L0VLIW_NET_FAULT_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/rng.hh"

namespace l0vliw::net
{

/** Parsed --fault-inject spec (all probabilities in [0, 1]). */
struct FaultSpec
{
    std::uint64_t seed = 1;
    double delayProb = 0;
    int delayMinMs = 0;
    int delayMaxMs = 0;
    double dropProb = 0;
    double corruptProb = 0;
    double stallProb = 0;
    double resetProb = 0;
    /** Fixed per-frame write latency (a simulated link RTT/2); 0 off.
     *  Deterministic: applied to every write without an RNG draw. */
    int latencyMs = 0;

    /**
     * Parse the spec grammar: comma-separated clauses `seed=<u64>`,
     * `delay=<min>..<max>ms@<p>`, `latency=<ms>ms`, and
     * `<drop|corrupt|stall|reset>@<p>`. False sets @p error and
     * leaves @p out unspecified.
     */
    static bool parse(const std::string &text, FaultSpec &out,
                      std::string &error);

    /** The spec re-rendered in the grammar (for logs). */
    std::string summary() const;
};

/** One injected fault decision for one stream operation. */
struct FaultAction
{
    enum class Kind
    {
        None,
        Delay,
        Drop,
        Corrupt,
        Stall,
        Reset,
    };
    Kind kind = Kind::None;
    int delayMs = 0;        ///< Delay: how long to sleep
    int latencyMs = 0;      ///< Fixed link latency (writes; any kind)
    std::uint64_t salt = 0; ///< Corrupt: positions the smashed byte
};

/** Which side of the stream an operation is. */
enum class FaultOp
{
    Read,
    Write,
};

/**
 * A seeded source of FaultActions. Thread-safe: concurrent streams
 * interleave draws from one deterministic sequence.
 */
class FaultPlan
{
  public:
    explicit FaultPlan(const FaultSpec &spec)
        : spec_(spec), rng_(spec.seed)
    {
    }

    /** The fault decision for the next @p op. */
    FaultAction next(FaultOp op);

    const FaultSpec &spec() const { return spec_; }

  private:
    std::mutex mutex_;
    const FaultSpec spec_;
    Rng rng_;
};

/**
 * Install @p plan as the process-global injection plan consulted by
 * LineReader/writeLine (null uninstalls). Returns the previous plan.
 */
std::shared_ptr<FaultPlan>
installFaultPlan(std::shared_ptr<FaultPlan> plan);

/** The currently installed plan (null when injection is off). */
std::shared_ptr<FaultPlan> activeFaultPlan();

/**
 * Parse @p specText and install a plan built from it. False + @p error
 * on a malformed spec (nothing installed).
 */
bool installFaultPlanFromSpec(const std::string &specText,
                              std::string &error);

/**
 * Honor the L0VLIW_FAULT_INJECT environment spec, when set: how a
 * daemon inherits injection from its launcher. Fatal on a malformed spec (a typo'd chaos run must not
 * silently measure a healthy system).
 */
void installFaultPlanFromEnv();

/** RAII plan install for tests: installs on construction, restores
 *  the previous plan on destruction. */
class ScopedFaultPlan
{
  public:
    explicit ScopedFaultPlan(const FaultSpec &spec)
        : previous_(installFaultPlan(std::make_shared<FaultPlan>(spec)))
    {
    }
    ~ScopedFaultPlan() { installFaultPlan(previous_); }

    ScopedFaultPlan(const ScopedFaultPlan &) = delete;
    ScopedFaultPlan &operator=(const ScopedFaultPlan &) = delete;

  private:
    std::shared_ptr<FaultPlan> previous_;
};

/**
 * One byte stream with a FaultPlan applied: the injection point the
 * framing layer routes every raw read/write through. A null plan is
 * fully transparent (and the deadline machinery still applies), so
 * this is also where bounded reads live.
 */
class FaultyStream
{
  public:
    FaultyStream(int fd, FaultPlan *plan) : fd_(fd), plan_(plan) {}

    /**
     * Read up to @p n bytes, honoring @p remainingMs (< 0 blocks
     * forever; 0, or a budget spent by an injected delay, takes only
     * what has already arrived). Returns the byte count, 0 on EOF, or
     * -1 with @p error set; @p timedOut distinguishes a deadline
     * expiry (injected stalls consume the remaining deadline) from an
     * error.
     */
    ssize_t read(char *buf, std::size_t n, int remainingMs,
                 bool &timedOut, std::string &error);

    /**
     * Write all @p n bytes (MSG_NOSIGNAL on sockets, EINTR-safe,
     * partial-write-safe). False sets @p error. Injected drops report
     * success without sending; injected corruption truncates the
     * frame mid-write and fails.
     */
    bool writeAll(const char *data, std::size_t n, std::string &error);

  private:
    int fd_;
    FaultPlan *plan_;
};

} // namespace l0vliw::net

#endif // L0VLIW_NET_FAULT_HH
