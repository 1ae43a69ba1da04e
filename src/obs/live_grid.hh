/**
 * @file
 * The live-observability model: LiveGrid folds a store subscription
 * stream (src/net/PROTOCOL.md, "subscription channel") into an
 * incrementally-updated view of one suite's grid.
 *
 * The fold is driven one frame at a time by whatever owns the
 * connection (obs::Watcher, tests feeding canned lines): `subscribed`
 * arms a new session, `push` frames apply the embedded store event,
 * `caught-up` marks the replay complete. Exactly-once is client-side:
 * every push carries the store's global sequence number, LiveGrid
 * remembers which it has applied, and a resumed session's replay
 * overlap dedups here — so reconnect-with-resume (`from-seq
 * lastSeq()+1`) applies each stored event exactly once however often
 * the connection drops. A `subscribed` reply whose `latest` is below
 * what we already applied means the server lost history (restarted
 * onto a truncated log); the model resets and refolds from scratch.
 * That protocol is all LiveGrid adds: each new push folds through
 * store::SuiteInfo, the store index's own per-suite fold, and both
 * read sides select runs by SuiteInfo's rules — the live view and
 * the store cannot disagree on runs, counters or the latest grid.
 *
 * Two read sides: liveTable() is the in-flight view — latest run
 * wins, cells the suite is known to produce but that have not landed
 * yet are marked in flight, failures surface their FailReason — and
 * latestStoredGrid() is the newest *published* grid table, decoded
 * from the grid frame's lossless wire form, so rendering it is
 * byte-identical to the store's own `latest-grid` answer (what
 * `l0store watch --once` prints and CI diffs).
 */

#ifndef L0VLIW_OBS_LIVE_GRID_HH
#define L0VLIW_OBS_LIVE_GRID_HH

#include <cstdint>
#include <set>
#include <string>
#include <utility>

#include "common/result_sink.hh"
#include "store/event_log.hh"

namespace l0vliw::obs
{

/** Fold of one suite's subscription stream. Not thread-safe. */
class LiveGrid
{
  public:
    /** What applying one received line did. */
    enum class Apply
    {
        Applied,   ///< a push folded into the model
        Duplicate, ///< a push we already applied (replay overlap)
        Info,      ///< subscribed / caught-up / foreign-suite push
        Rejected,  ///< the server said no (nack or {"ok":false})
        Malformed, ///< undecodable — the caller should reconnect
    };

    explicit LiveGrid(std::string suite) : suite_(std::move(suite)) {}

    /** Fold one line from the subscription channel. @p error is set
     *  for Rejected (the server's message) and Malformed. */
    Apply applyFrame(const std::string &line, std::string &error);

    /** Drop everything and start over (server lost its history). */
    void reset();

    // ---- the read side ----

    const std::string &suite() const { return suite_; }

    /** Highest sequence applied — resume with `from-seq lastSeq()+1`. */
    std::uint64_t lastSeq() const { return lastSeq_; }

    /** True once the current session's replay finished. */
    bool caughtUp() const { return caughtUp_; }

    /** The in-flight view: latest run wins, missing-but-expected
     *  cells marked, failures carry their reason. */
    ResultTable liveTable() const;

    /** The newest run's published grid (null until one lands);
     *  renderText() of it matches `latest-grid` byte-for-byte. */
    const ResultTable *latestStoredGrid() const;

    /** The fold itself — runs (first-push order) and counters, the
     *  same store::SuiteInfo the store's index keeps; duplicates
     *  count the resends the sequence dedup absorbed. */
    const store::SuiteInfo &info() const { return info_; }

    /** Times the model restarted because the server lost history. */
    std::uint64_t resets() const { return resets_; }

  private:
    std::string suite_;
    store::SuiteInfo info_;
    /** Every (bench, arch) the suite has ever produced — what the
     *  in-flight view expects of the latest run. */
    std::set<std::pair<std::string, std::string>> knownKeys_;
    std::set<std::uint64_t> applied_;
    std::uint64_t lastSeq_ = 0;
    bool caughtUp_ = false;
    std::uint64_t resets_ = 0;
};

} // namespace l0vliw::obs

#endif // L0VLIW_OBS_LIVE_GRID_HH
