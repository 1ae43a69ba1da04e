/**
 * @file
 * The result store's persistence layer: an append-only NDJSON event
 * log with an in-memory index rebuilt on startup.
 *
 * Every frame a driver publishes (--publish, or a replayed --stream
 * file) is one line: a "cell" event carrying the full CellOutcome of
 * one grid cell, or a "grid" event carrying the driver's rendered
 * ResultTable in its lossless wire form (tableToWireJson). EventLog
 * persists accepted lines verbatim — the log file *is* the database,
 * readable with any NDJSON tool — and maintains the index queries run
 * against, keyed (suite, bench, arch, rev, run id).
 *
 * Durability contract: each accepted line is appended with a single
 * unbuffered write, so a crash between events loses nothing and a
 * crash mid-append tears at most the final line. open() tolerates
 * exactly that: a trailing line without its newline is dropped (and
 * counted), the file truncated back to the last complete line, and
 * appending resumes — the publisher's at-least-once resend covers the
 * torn event. Malformed *complete* lines are skipped and counted but
 * left in place; this layer never rewrites history.
 *
 * Idempotency contract: a cell event dedups on (suite, run, id) and a
 * grid frame on (suite, run), so the publisher may resend any frame
 * whose ack was lost. EventLog itself is not thread-safe — the store
 * daemon serializes access (StoreService); tests drive it directly.
 *
 * Sequencing contract: every stored event gets the next value of one
 * global, strictly increasing sequence counter — the subscription
 * channel's replay/resume coordinate. Sequence numbers are stable for
 * the life of one EventLog (compaction preserves them); they are NOT
 * persisted in the file, so a reopen renumbers from 1 in replay order
 * (subscribers detect that through the `subscribed` reply's `latest`
 * field and restart from 0).
 *
 * Retention contract: compact(keepRuns) rewrites the log keeping only
 * each suite's newest keepRuns runs — to a temp file, fsync'd, then
 * atomically rename(2)d over the log, so a crash at any point leaves
 * either the old complete log (a stale temp is removed on the next
 * open) or the new compacted one, never a mix. The active tail is
 * never rewritten in place; appends resume on the new file. Queries
 * over the kept runs answer byte-identically before and after.
 */

#ifndef L0VLIW_STORE_EVENT_LOG_HH
#define L0VLIW_STORE_EVENT_LOG_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/result_sink.hh"
#include "driver/retry.hh"
#include "net/socket.hh"

namespace l0vliw::json
{
class Value;
}

namespace l0vliw::store
{

/**
 * One decoded stream event. Decoding is tolerant where the --stream
 * schema grew over time: run identity ("suite"/"rev"/"run") defaults
 * for events published by older drivers or replayed from plain
 * --stream files, "reason"/"attempts" default for events logged
 * before the failure taxonomy existed, and an unknown reason name
 * decodes to None.
 */
struct Event
{
    enum class Kind { Cell, Grid };

    Kind kind = Kind::Cell;

    // Run identity (defaults for identity-less events).
    std::string suite = "default";
    std::string rev = "unknown";
    std::string run = "adhoc";

    // Cell payload (Kind::Cell).
    std::uint64_t id = 0; ///< 0 = the corrupted-frame sentinel
    std::string bench;
    std::string arch;
    bool ok = false;
    FailReason reason = FailReason::None;
    int attempts = 1;
    double wallMs = 0;
    /** loopCompute + loopStall + scalarCycles out of the embedded
     *  outcome run — the metric diff queries compare. 0 when the
     *  event carries no outcome. */
    std::uint64_t totalCycles = 0;

    // Grid payload (Kind::Grid): the driver's rendered table.
    ResultTable table;

    /** Decode one NDJSON frame. False + @p error on anything that is
     *  not a well-formed "cell" or "grid" event. */
    static bool decode(const std::string &line, Event &out,
                       std::string &error);

    /** The same decode over an already-parsed document (how obs::
     *  LiveGrid folds the event embedded in a subscription push). */
    static bool decode(const json::Value &doc, Event &out,
                       std::string &error);
};

/** One stored event as the subscription channel replays it: its
 *  global sequence number plus the accepted line, verbatim. */
struct StoredEvent
{
    std::uint64_t seq = 0;
    std::string suite;
    std::string run;
    std::string line;
};

/** The slice of one ingested cell the queries need. */
struct CellRecord
{
    bool ok = false;
    FailReason reason = FailReason::None;
    int attempts = 1;
    double wallMs = 0;
    std::uint64_t totalCycles = 0;
};

/** Everything ingested under one (suite, run id). */
struct RunInfo
{
    std::string run;
    std::string rev;
    /** Global ingest sequence of this run's newest event — the
     *  "latest run" order (ties impossible: the counter is global). */
    std::uint64_t seq = 0;
    /** Cells keyed (bench, arch); a dedup-surviving re-dispatch of
     *  the same key overwrites (same id never reaches here twice). */
    std::map<std::pair<std::string, std::string>, CellRecord> cells;
    std::set<std::uint64_t> seenIds; ///< (suite, run, id) dedup
    bool hasGrid = false;
    ResultTable grid;

    /** Cells whose outcome is a failure. */
    std::uint64_t failedCells() const;
};

/** Per-suite ingest/failure counters (the `stats` query). */
struct SuiteCounters
{
    std::uint64_t cells = 0;      ///< cell events stored
    std::uint64_t duplicates = 0; ///< frames dropped by dedup
    std::uint64_t grids = 0;      ///< grid frames stored
    std::uint64_t failed = 0;     ///< stored cells with ok=false
    /** Stored failures by FailReason (indexed by the enum). */
    std::uint64_t byReason[kFailReasonCount] = {};
};

/**
 * One suite's runs (ingest order) plus its counters: the fold both
 * the store's index (EventLog) and the live view (obs::LiveGrid) run
 * their events through, with the selection rules both answer from.
 */
struct SuiteInfo
{
    std::vector<RunInfo> runs; ///< first-seen order
    SuiteCounters counters;

    const RunInfo *findRun(const std::string &run) const;

    /**
     * Fold one decoded event of this suite, recording @p seq as its
     * run's newest event. False — counted as a duplicate, nothing
     * else touched — for a resend: a cell id the run already holds,
     * or a second grid for the run (a resend after a lost ack is
     * byte-identical, so keeping the first copy loses nothing).
     */
    bool apply(const Event &event, std::uint64_t seq);

    /** The run with the newest event, or null. */
    const RunInfo *latestRun() const;

    /** The newest run with a published grid, or null — what
     *  `latest-grid` serves: a run that has streamed cells but not
     *  yet its table never shadows the previous complete one. */
    const RunInfo *latestGridRun() const;
};

/** The append-only log plus its in-memory index. */
class EventLog
{
  public:
    /** What ingesting one frame did. */
    enum class Ingest
    {
        Stored,    ///< appended to the log and indexed
        Duplicate, ///< already present; not appended
        Malformed, ///< undecodable; not appended
    };

    EventLog() = default;

    /**
     * Open (or create) the log at @p path and replay it into the
     * index. A torn final line is truncated away (truncatedTail()
     * reports it); malformed complete lines are skipped and counted.
     * False + @p error when the file cannot be opened or repaired.
     */
    bool open(const std::string &path, std::string &error);

    /**
     * Decode, dedup, persist, and index one event line. Only Stored
     * appends (verbatim, newline-terminated, one unbuffered write);
     * @p error is set for Malformed.
     */
    Ingest ingest(const std::string &line, std::string &error);

    // ---- index queries (all pointers valid until the next ingest) --

    /** Suites with at least one event, first-seen order. */
    std::vector<std::string> suiteNames() const;

    const SuiteInfo *suite(const std::string &name) const;

    /** The run with the newest ingested event, or null. */
    const RunInfo *latestRun(const std::string &suite) const;

    /** The newest run recorded at revision @p rev, or null. */
    const RunInfo *latestRunAtRev(const std::string &suite,
                                  const std::string &rev) const;

    // ---- the subscription/replay view ----

    /** The sequence number of the newest stored event (0 = empty). */
    std::uint64_t latestSeq() const { return seq_; }

    /** Every retained event in sequence order (verbatim lines) —
     *  what `subscribe ... from-seq N` replays. Invalidated by the
     *  next ingest or compact. */
    const std::vector<StoredEvent> &events() const { return events_; }

    // ---- retention ----

    /** What one compact() pass did. */
    struct CompactStats
    {
        std::uint64_t keptEvents = 0;
        std::uint64_t droppedEvents = 0;
        std::uint64_t droppedRuns = 0;
        std::uint64_t bytesBefore = 0;
        std::uint64_t bytesAfter = 0;
    };

    /**
     * Rewrite the log keeping only each suite's newest @p keepRuns
     * runs (by latest-event sequence; @p keepRuns >= 1). Write order:
     * kept lines go to "<path>.compact" in sequence order, fsync,
     * rename over the log, then the index is rebuilt from the kept
     * events with their original sequence numbers — latest-grid and
     * diff answers over kept runs are byte-identical afterwards.
     * Suite ingest counters are recomputed from the retained window
     * (the `duplicates` counter restarts at 0). False + @p error on
     * any I/O failure — the original log is intact in that case.
     */
    bool compact(int keepRuns, CompactStats &stats, std::string &error);

    // ---- global counters ----

    /** Events replayed from disk by open(). */
    std::uint64_t replayed() const { return replayed_; }
    /** Complete-but-undecodable lines seen (replay + ingest). */
    std::uint64_t malformed() const { return malformed_; }
    /** Bytes of torn final line dropped by open() (0 = clean). */
    std::uint64_t truncatedTail() const { return truncatedTail_; }
    /** Current log file size in bytes (kept lines + live appends). */
    std::uint64_t bytes() const { return bytes_; }
    /** compact() passes completed over this log's lifetime. */
    std::uint64_t compactions() const { return compactions_; }
    /** The oldest retained event's sequence number (0 = empty log);
     *  with latestSeq(), the global seq range the `stats` query
     *  reports. */
    std::uint64_t
    firstSeq() const
    {
        return events_.empty() ? 0 : events_.front().seq;
    }

  private:
    /** Index @p event; 0 means duplicate, otherwise the sequence
     *  number assigned (@p forcedSeq != 0 pins it: how compact()
     *  rebuilds the index without renumbering). */
    std::uint64_t index(const Event &event, std::uint64_t forcedSeq = 0);

    net::Fd fd_;
    std::string path_;
    std::vector<std::string> suiteOrder_;
    std::map<std::string, SuiteInfo> suites_;
    std::vector<StoredEvent> events_; ///< retained lines, seq order
    std::uint64_t seq_ = 0;
    std::uint64_t replayed_ = 0;
    std::uint64_t malformed_ = 0;
    std::uint64_t truncatedTail_ = 0;
    std::uint64_t bytes_ = 0;
    std::uint64_t compactions_ = 0;
};

} // namespace l0vliw::store

#endif // L0VLIW_STORE_EVENT_LOG_HH
