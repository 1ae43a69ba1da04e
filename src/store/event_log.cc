#include "store/event_log.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "common/json.hh"
#include "common/logging.hh"
#include "metrics/registry.hh"

namespace l0vliw::store
{

namespace
{

/** Live size of the log file (the `metrics` verb's view; the `stats`
 *  query reports the same number from EventLog::bytes()). */
metrics::Gauge &
logBytesGauge()
{
    static metrics::Gauge &g = metrics::gauge(
        "l0vliw_store_log_bytes",
        "Current size of the event log file in bytes");
    return g;
}

} // namespace

// ---- event decoding ----

namespace
{

/** Optional string member: leaves @p out alone when absent. */
void
takeString(const json::Value &obj, const char *key, std::string &out)
{
    const json::Value *v = obj.find(key);
    if (v != nullptr && v->isString())
        out = v->str();
}

} // namespace

bool
Event::decode(const std::string &line, Event &out, std::string &error)
{
    std::optional<json::Value> parsed = json::parse(line, &error);
    if (!parsed)
        return false;
    return decode(*parsed, out, error);
}

bool
Event::decode(const json::Value &docValue, Event &out,
              std::string &error)
{
    const json::Value *doc = &docValue;
    if (!doc->isObject()) {
        error = "event is not an object";
        return false;
    }
    const json::Value *kind = doc->find("event");
    if (kind == nullptr || !kind->isString()) {
        error = "missing or non-string field 'event'";
        return false;
    }

    out = Event{};
    takeString(*doc, "suite", out.suite);
    takeString(*doc, "rev", out.rev);
    takeString(*doc, "run", out.run);

    if (kind->str() == "grid") {
        out.kind = Kind::Grid;
        const json::Value *table = doc->find("table");
        if (table == nullptr) {
            error = "grid event without a 'table'";
            return false;
        }
        return tableFromJsonValue(*table, out.table, error);
    }
    if (kind->str() != "cell") {
        error = "unknown event kind '" + kind->str() + "'";
        return false;
    }

    out.kind = Kind::Cell;
    const json::Value *bench = doc->find("bench");
    const json::Value *arch = doc->find("arch");
    const json::Value *ok = doc->find("ok");
    if (bench == nullptr || !bench->isString() || arch == nullptr
        || !arch->isString() || ok == nullptr || !ok->isBool()) {
        error = "cell event without bench/arch/ok";
        return false;
    }
    out.bench = bench->str();
    out.arch = arch->str();
    out.ok = ok->boolean();
    if (const json::Value *id = doc->find("id"))
        out.id = id->isNumber() ? id->asU64() : 0;
    // Tolerant: a log replays events from before the failure taxonomy,
    // which carry no reason/attempts; unknown reasons are None.
    if (const json::Value *reason = doc->find("reason"))
        out.reason = reason->isString()
                         ? failReasonFromName(reason->str())
                         : FailReason::None;
    if (const json::Value *attempts = doc->find("attempts"))
        out.attempts = attempts->isNumber()
                           ? static_cast<int>(attempts->asI64())
                           : 1;
    if (const json::Value *wall = doc->find("wallMs"))
        out.wallMs = wall->isNumber() ? wall->asDouble() : 0;
    // The diff metric rides inside outcome.run; an event without one
    // (a stripped-down producer) still ingests, it just cannot diff.
    if (const json::Value *outcome = doc->find("outcome")) {
        const json::Value *run =
            outcome->isObject() ? outcome->find("run") : nullptr;
        if (run != nullptr && run->isObject()) {
            for (const char *key :
                 {"loopCompute", "loopStall", "scalarCycles"}) {
                const json::Value *v = run->find(key);
                if (v != nullptr && v->isNumber())
                    out.totalCycles += v->asU64();
            }
        }
    }
    return true;
}

// ---- index types ----

std::uint64_t
RunInfo::failedCells() const
{
    std::uint64_t failed = 0;
    for (const auto &kv : cells)
        failed += kv.second.ok ? 0 : 1;
    return failed;
}

const RunInfo *
SuiteInfo::findRun(const std::string &run) const
{
    for (const auto &info : runs)
        if (info.run == run)
            return &info;
    return nullptr;
}

bool
SuiteInfo::apply(const Event &event, std::uint64_t seq)
{
    auto it = std::find_if(runs.begin(), runs.end(),
                           [&](const RunInfo &info) {
                               return info.run == event.run;
                           });
    if (it == runs.end()) {
        it = runs.emplace(runs.end());
        it->run = event.run;
        it->rev = event.rev;
    }
    RunInfo &run = *it;

    if (event.kind == Event::Kind::Grid) {
        if (run.hasGrid) {
            ++counters.duplicates;
            return false;
        }
        run.hasGrid = true;
        run.grid = event.table;
        ++counters.grids;
    } else {
        if (!run.seenIds.insert(event.id).second) {
            ++counters.duplicates;
            return false;
        }
        run.cells[{event.bench, event.arch}] = {
            event.ok, event.reason, event.attempts, event.wallMs,
            event.totalCycles};
        ++counters.cells;
        if (!event.ok) {
            ++counters.failed;
            ++counters.byReason[static_cast<int>(event.reason)];
        }
    }
    run.seq = std::max(run.seq, seq);
    return true;
}

const RunInfo *
SuiteInfo::latestRun() const
{
    const RunInfo *latest = nullptr;
    for (const auto &run : runs)
        if (latest == nullptr || run.seq > latest->seq)
            latest = &run;
    return latest;
}

const RunInfo *
SuiteInfo::latestGridRun() const
{
    for (auto it = runs.rbegin(); it != runs.rend(); ++it)
        if (it->hasGrid)
            return &*it;
    return nullptr;
}

// ---- the log ----

bool
EventLog::open(const std::string &path, std::string &error)
{
    path_ = path;
    // A stale compaction temp means a crash landed between writing
    // the rewrite and rename(2)ing it into place. The rename never
    // happened, so the main log is complete and authoritative — the
    // half-written temp is dead weight, removed so the next compact
    // starts clean.
    const std::string tmp = path + ".compact";
    if (::unlink(tmp.c_str()) == 0)
        warn("%s: removed stale compaction temp (crash mid-compact; "
             "the uncompacted log is authoritative)",
             tmp.c_str());
    fd_.reset(::open(path.c_str(), O_RDWR | O_CREAT, 0644));
    if (!fd_.valid()) {
        error = path + ": " + std::strerror(errno);
        return false;
    }

    // Replay: read everything, index every complete line, and note
    // where the last complete line ends — a crash mid-append leaves a
    // torn tail we truncate away (the publisher's resend covers it).
    std::string content;
    char buf[1 << 16];
    for (;;) {
        ssize_t n = ::read(fd_.get(), buf, sizeof(buf));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            error = path + ": read: " + std::strerror(errno);
            return false;
        }
        if (n == 0)
            break;
        content.append(buf, static_cast<std::size_t>(n));
    }

    std::size_t keep = 0;
    std::size_t begin = 0;
    while (begin < content.size()) {
        std::size_t nl = content.find('\n', begin);
        if (nl == std::string::npos)
            break; // torn tail
        std::string line = content.substr(begin, nl - begin);
        begin = keep = nl + 1;
        if (line.empty())
            continue;
        Event event;
        std::string decodeError;
        if (!Event::decode(line, event, decodeError)) {
            // Skipped, counted, left in place: the log is the
            // database and this layer never rewrites history.
            ++malformed_;
            continue;
        }
        if (std::uint64_t seq = index(event)) {
            ++replayed_;
            events_.push_back({seq, event.suite, event.run, line});
        }
    }
    truncatedTail_ = content.size() - keep;
    if (truncatedTail_ > 0) {
        warn("%s: dropping %llu-byte torn final line", path.c_str(),
             static_cast<unsigned long long>(truncatedTail_));
        if (::ftruncate(fd_.get(), static_cast<off_t>(keep)) != 0) {
            error = path + ": ftruncate: " + std::strerror(errno);
            return false;
        }
    }
    if (::lseek(fd_.get(), 0, SEEK_END) < 0) {
        error = path + ": lseek: " + std::strerror(errno);
        return false;
    }
    bytes_ = keep;
    logBytesGauge().set(static_cast<std::int64_t>(bytes_));
    return true;
}

EventLog::Ingest
EventLog::ingest(const std::string &line, std::string &error)
{
    static metrics::Counter &stored = metrics::counter(
        "l0vliw_store_ingest_total{result=\"stored\"}",
        "Published frames ingested, by what ingesting did");
    static metrics::Counter &duplicates = metrics::counter(
        "l0vliw_store_ingest_total{result=\"duplicate\"}",
        "Published frames ingested, by what ingesting did");
    static metrics::Counter &malformed = metrics::counter(
        "l0vliw_store_ingest_total{result=\"malformed\"}",
        "Published frames ingested, by what ingesting did");
    Event event;
    if (!Event::decode(line, event, error)) {
        ++malformed_;
        malformed.inc();
        return Ingest::Malformed;
    }
    std::uint64_t seq = index(event);
    if (seq == 0) {
        duplicates.inc();
        return Ingest::Duplicate;
    }
    stored.inc();
    events_.push_back({seq, event.suite, event.run, line});

    // One write per line: a crash between events loses nothing, a
    // crash mid-write tears only the final line — which the next
    // open() truncates away.
    std::string framed = line;
    framed += '\n';
    std::size_t off = 0;
    while (off < framed.size()) {
        ssize_t n = ::write(fd_.get(), framed.data() + off,
                            framed.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            // The event is already indexed and served; losing the
            // disk copy degrades restart, not the running daemon.
            warn("event log append failed: %s", std::strerror(errno));
            break;
        }
        off += static_cast<std::size_t>(n);
    }
    bytes_ += framed.size();
    logBytesGauge().set(static_cast<std::int64_t>(bytes_));
    return Ingest::Stored;
}

std::uint64_t
EventLog::index(const Event &event, std::uint64_t forcedSeq)
{
    auto inserted = suites_.emplace(event.suite, SuiteInfo{});
    if (inserted.second)
        suiteOrder_.push_back(event.suite);
    std::uint64_t seq = forcedSeq != 0 ? forcedSeq : seq_ + 1;
    if (!inserted.first->second.apply(event, seq))
        return 0;
    if (forcedSeq == 0)
        seq_ = seq;
    return seq;
}

bool
EventLog::compact(int keepRuns, CompactStats &stats, std::string &error)
{
    stats = CompactStats{};
    if (!fd_.valid()) {
        error = "log not open";
        return false;
    }
    if (keepRuns < 1) {
        error = "keepRuns must be >= 1";
        return false;
    }

    // Decide survivors: per suite, the keepRuns runs with the newest
    // events (RunInfo::seq order — the same order `latest-run` uses,
    // so the latest run always survives).
    std::set<std::pair<std::string, std::string>> kept;
    for (const auto &kv : suites_) {
        std::vector<const RunInfo *> runs;
        runs.reserve(kv.second.runs.size());
        for (const auto &run : kv.second.runs)
            runs.push_back(&run);
        std::sort(runs.begin(), runs.end(),
                  [](const RunInfo *a, const RunInfo *b) {
                      return a->seq > b->seq;
                  });
        for (std::size_t i = 0; i < runs.size(); ++i) {
            if (i < static_cast<std::size_t>(keepRuns))
                kept.emplace(kv.first, runs[i]->run);
            else
                ++stats.droppedRuns;
        }
    }

    off_t before = ::lseek(fd_.get(), 0, SEEK_END);
    stats.bytesBefore = before > 0 ? static_cast<std::uint64_t>(before) : 0;

    // Rewrite to a temp beside the log (same filesystem, so the
    // rename below is atomic), fsync, then swap. Any failure before
    // the rename leaves the original log untouched.
    const std::string tmp = path_ + ".compact";
    net::Fd out(::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644));
    if (!out.valid()) {
        error = tmp + ": " + std::strerror(errno);
        return false;
    }
    auto fail = [&](const std::string &what) {
        error = tmp + ": " + what + ": " + std::strerror(errno);
        out.reset();
        ::unlink(tmp.c_str());
        return false;
    };
    for (const StoredEvent &event : events_) {
        if (kept.count({event.suite, event.run}) == 0) {
            ++stats.droppedEvents;
            continue;
        }
        std::string framed = event.line;
        framed += '\n';
        std::size_t off = 0;
        while (off < framed.size()) {
            ssize_t n = ::write(out.get(), framed.data() + off,
                                framed.size() - off);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                return fail("write");
            }
            off += static_cast<std::size_t>(n);
        }
        ++stats.keptEvents;
        stats.bytesAfter += framed.size();
    }
    if (::fsync(out.get()) != 0)
        return fail("fsync");
    out.reset();
    if (::rename(tmp.c_str(), path_.c_str()) != 0)
        return fail("rename");

    // The old fd still names the pre-compaction inode; appends must
    // land on the new file.
    fd_.reset(::open(path_.c_str(), O_RDWR, 0644));
    if (!fd_.valid()) {
        // The compacted log is complete on disk; only this process
        // lost its handle. Nothing sane to serve without one.
        error = path_ + ": reopen after compact: " + std::strerror(errno);
        return false;
    }
    if (::lseek(fd_.get(), 0, SEEK_END) < 0) {
        error = path_ + ": lseek: " + std::strerror(errno);
        return false;
    }

    // Rebuild the index from the kept events only, pinning each line
    // to the sequence number it already had — subscribers' resume
    // cursors and `latest run` order both survive compaction. seq_
    // itself is untouched: the next ingest continues the same global
    // counter.
    std::vector<StoredEvent> retained;
    retained.reserve(stats.keptEvents);
    for (StoredEvent &event : events_)
        if (kept.count({event.suite, event.run}) != 0)
            retained.push_back(std::move(event));
    suiteOrder_.clear();
    suites_.clear();
    events_.clear();
    for (StoredEvent &event : retained) {
        Event decoded;
        std::string decodeError;
        if (!Event::decode(event.line, decoded, decodeError))
            continue; // cannot happen: the line was ingested once
        if (index(decoded, event.seq) != 0)
            events_.push_back(std::move(event));
    }
    bytes_ = stats.bytesAfter;
    logBytesGauge().set(static_cast<std::int64_t>(bytes_));
    ++compactions_;
    {
        static metrics::Counter &c = metrics::counter(
            "l0vliw_store_compactions_total",
            "Retention compaction passes completed");
        c.inc();
    }
    return true;
}

std::vector<std::string>
EventLog::suiteNames() const
{
    return suiteOrder_;
}

const SuiteInfo *
EventLog::suite(const std::string &name) const
{
    auto it = suites_.find(name);
    return it == suites_.end() ? nullptr : &it->second;
}

const RunInfo *
EventLog::latestRun(const std::string &suiteName) const
{
    const SuiteInfo *info = suite(suiteName);
    return info == nullptr ? nullptr : info->latestRun();
}

const RunInfo *
EventLog::latestRunAtRev(const std::string &suiteName,
                         const std::string &rev) const
{
    const SuiteInfo *info = suite(suiteName);
    if (info == nullptr)
        return nullptr;
    const RunInfo *latest = nullptr;
    for (const auto &run : info->runs)
        if (run.rev == rev && (latest == nullptr || run.seq > latest->seq))
            latest = &run;
    return latest;
}

} // namespace l0vliw::store
