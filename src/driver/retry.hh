/**
 * @file
 * The one retry/backoff policy shared by every executor, plus the
 * structured failure-reason taxonomy carried through CellOutcome and
 * --stream events.
 *
 * A deterministic backoff (attempt * base) would wake N connections
 * to a restarted daemon in lockstep and re-stampede it. RetryPolicy
 * is capped exponential backoff with uniform jitter: attempts spread
 * out, and the cap keeps the worst-case wait bounded.
 *
 * FailReason is the diagnosis side: when a cell fails for good, the
 * executor records *why* in transport terms (timeout, frame-corrupt,
 * conn-reset, job-error) rather than only a prose
 * string, so a chaos run's failures can be asserted on and a
 * production run's failures can be aggregated.
 */

#ifndef L0VLIW_DRIVER_RETRY_HH
#define L0VLIW_DRIVER_RETRY_HH

#include <string>

#include "common/rng.hh"

namespace l0vliw
{

/** Why a cell (or transport attempt) ultimately failed. */
enum class FailReason
{
    None,         ///< no failure (or unclassified legacy outcome)
    Timeout,      ///< deadline or heartbeat expired
    /** Read only: no executor produces it any more, but the result
     *  store still decodes it from events already in its log (a
     *  spawned worker process died or could not be spawned). */
    WorkerCrash,
    FrameCorrupt, ///< malformed or mismatched protocol frame
    ConnReset,    ///< TCP connection lost / could not be established
    JobError,     ///< the job itself is unrunnable (bad label, ...)
};

/** One FailReason with its wire/CLI name (empty for None). */
struct FailReasonInfo
{
    FailReason reason;
    const char *name;
};

/** The taxonomy, in enum order: the one list every per-reason name,
 *  counter array and `stats` column derives from. */
inline constexpr FailReasonInfo kFailReasons[] = {
    {FailReason::None, ""},
    {FailReason::Timeout, "timeout"},
    {FailReason::WorkerCrash, "worker-crash"},
    {FailReason::FrameCorrupt, "frame-corrupt"},
    {FailReason::ConnReset, "conn-reset"},
    {FailReason::JobError, "job-error"},
};

/** Number of FailReason values (sizes per-reason counter arrays). */
inline constexpr int kFailReasonCount =
    static_cast<int>(sizeof(kFailReasons) / sizeof(kFailReasons[0]));

/** Wire/CLI name of @p reason ("timeout", "worker-crash", ...);
 *  empty for None. */
inline const char *
failReasonName(FailReason reason)
{
    return kFailReasons[static_cast<int>(reason)].name;
}

/** Inverse of failReasonName; unknown names decode to None (forward
 *  compatibility: an old driver reading a new daemon's outcome). */
FailReason failReasonFromName(const std::string &name);

/**
 * Capped exponential backoff with uniform jitter.
 *
 * Attempt k (1-based) waits base * 2^(k-1), capped at maxBackoffMs,
 * then scaled by a uniform draw from [1 - jitter, 1 + jitter]. Each
 * caller passes its own Rng so concurrent connection threads draw
 * independent jitter — the whole point of having any.
 */
struct RetryPolicy
{
    int maxAttempts = 3;     ///< total tries, first one included
    int baseBackoffMs = 50;  ///< wait after the first failure
    int maxBackoffMs = 2000; ///< cap before jitter
    double jitterFrac = 0.5; ///< +/- fraction applied to the wait

    /** The wait before retry number @p attempt (1-based: the wait
     *  after the first failure is backoffMs(1, ...)). */
    int backoffMs(int attempt, Rng &rng) const;
};

} // namespace l0vliw

#endif // L0VLIW_DRIVER_RETRY_HH
