#include "store/service.hh"

#include <climits>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "common/decimal.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "driver/executor.hh"
#include "metrics/registry.hh"

namespace l0vliw::store
{

namespace
{

/** Split a query line on runs of whitespace. */
std::vector<std::string>
splitWords(const std::string &line)
{
    std::vector<std::string> words;
    std::istringstream in(line);
    std::string word;
    while (in >> word)
        words.push_back(word);
    return words;
}

std::string
okReply(int exit, const std::string &text)
{
    return "{\"ok\":true,\"exit\":" + std::to_string(exit)
           + ",\"text\":" + json::quote(text) + "}";
}

std::string
errReply(const std::string &error)
{
    return "{\"ok\":false,\"error\":" + json::quote(error) + "}";
}

std::string
renderAs(const ResultTable &t, SinkFormat format)
{
    switch (format) {
    case SinkFormat::Table:
        return renderText(t);
    case SinkFormat::Csv:
        return renderCsv(t);
    case SinkFormat::Json:
        return renderJson(t);
    }
    return {};
}

/** Pop a trailing table|csv|json word off @p words (default table).
 *  A last word naming no known format is left in place for the verb's
 *  own argument parsing (diff's threshold rides in that position). */
SinkFormat
takeFormat(std::vector<std::string> &words)
{
    SinkFormat format = SinkFormat::Table;
    if (words.empty())
        return format;
    const std::string &name = words.back();
    if (name == "table")
        format = SinkFormat::Table;
    else if (name == "csv")
        format = SinkFormat::Csv;
    else if (name == "json")
        format = SinkFormat::Json;
    else
        return format;
    words.pop_back();
    return format;
}

/** The run identity shown in titles: "rev (run id)". */
std::string
runLabel(const RunInfo &run)
{
    return run.rev + " (run " + run.run + ")";
}

} // namespace

bool
StoreService::open(const std::string &logPath, std::string &error)
{
    return log_.open(logPath, error);
}

std::optional<std::string>
StoreService::handleLine(const std::string &line)
{
    if (line == driver::kCellPingLine)
        return std::string(driver::kCellPongLine);
    if (!line.empty() && line[0] == '{')
        return handleIngest(line);
    return handleQuery(line);
}

std::string
StoreService::connectionLimitNack(int cap)
{
    return "{\"event\":\"nack\",\"error\":"
           + json::quote("connection limit reached (" + std::to_string(cap)
                         + ")")
           + "}";
}

std::string
StoreService::handleIngest(const std::string &line)
{
    std::string error;
    EventLog::Ingest result;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        result = log_.ingest(line, error);
        if (result == EventLog::Ingest::Stored)
            maybeCompactLocked();
    }
    switch (result) {
    case EventLog::Ingest::Stored:
        return "{\"event\":\"ack\",\"stored\":true}";
    case EventLog::Ingest::Duplicate:
        return "{\"event\":\"ack\",\"stored\":false}";
    case EventLog::Ingest::Malformed:
        break;
    }
    return "{\"event\":\"nack\",\"error\":" + json::quote(error) + "}";
}

void
StoreService::maybeCompactLocked()
{
    if (retainRuns_ == 0)
        return;
    bool over = false;
    for (const auto &name : log_.suiteNames()) {
        const SuiteInfo *info = log_.suite(name);
        if (info != nullptr
            && info->runs.size()
                   > static_cast<std::size_t>(retainRuns_))
            over = true;
    }
    if (!over)
        return;
    EventLog::CompactStats stats;
    std::string error;
    if (!log_.compact(retainRuns_, stats, error))
        warn("auto-compaction failed: %s", error.c_str());
}

std::string
StoreService::handleQuery(const std::string &line)
{
    std::vector<std::string> words = splitWords(line);
    if (words.empty())
        return errReply("empty query");
    const std::string &verb = words[0];

    // The registry self-synchronizes (sync-on-read), so the scrape
    // never waits behind ingest or compaction.
    if (verb == "metrics")
        return metrics::metricsQueryReply(words);

    std::lock_guard<std::mutex> lock(mutex_);

    if (verb == "latest-grid") {
        SinkFormat format = takeFormat(words);
        if (words.size() != 2)
            return errReply("usage: latest-grid <suite> [table|csv|"
                            "json]");
        const SuiteInfo *info = log_.suite(words[1]);
        if (info == nullptr)
            return errReply("unknown suite '" + words[1] + "'");
        const RunInfo *run = info->latestGridRun();
        if (run == nullptr)
            return errReply("suite '" + words[1]
                            + "' has cell events but no stored grid "
                              "yet");
        return okReply(0, renderAs(run->grid, format));
    }

    if (verb == "diff") {
        SinkFormat format = takeFormat(words);
        double threshold = 10.0;
        if (words.size() == 5) {
            char *end = nullptr;
            threshold = std::strtod(words[4].c_str(), &end);
            if (words[4].empty() || *end != '\0'
                || !std::isfinite(threshold) || threshold < 0)
                return errReply("bad threshold '" + words[4]
                                + "' (want a percentage >= 0)");
            words.pop_back();
        }
        if (words.size() != 4)
            return errReply("usage: diff <suite> <rev-a> <rev-b> "
                            "[threshold%] [table|csv|json]");
        const std::string &suite = words[1];
        const RunInfo *a = log_.latestRunAtRev(suite, words[2]);
        const RunInfo *b = log_.latestRunAtRev(suite, words[3]);
        if (a == nullptr || b == nullptr)
            return errReply("suite '" + suite + "' has no run at rev '"
                            + (a == nullptr ? words[2] : words[3])
                            + "'");

        // Positive delta = rev-b spends more cycles (slower). A cell
        // that failed on either side, or exists on only one, cannot
        // be certified — it fails the diff like a regression does.
        ResultTable t;
        t.title = "perf diff " + suite + ": " + runLabel(*a) + " vs "
                  + runLabel(*b) + "\n";
        t.header = {"benchmark", "arch", words[2], words[3], "delta%"};
        int over = 0, incomparable = 0;
        auto keys = a->cells;
        for (const auto &kv : b->cells)
            keys.emplace(kv.first, CellRecord{});
        for (const auto &kv : keys) {
            auto ia = a->cells.find(kv.first);
            auto ib = b->cells.find(kv.first);
            std::vector<CellValue> row;
            row.push_back(CellValue::text(kv.first.first));
            row.push_back(CellValue::text(kv.first.second));
            bool haveA = ia != a->cells.end() && ia->second.ok;
            bool haveB = ib != b->cells.end() && ib->second.ok;
            row.push_back(haveA ? CellValue::integer(
                              ia->second.totalCycles)
                                : CellValue::text(
                                    ia == a->cells.end() ? "n/a"
                                                         : "fail"));
            row.push_back(haveB ? CellValue::integer(
                              ib->second.totalCycles)
                                : CellValue::text(
                                    ib == b->cells.end() ? "n/a"
                                                         : "fail"));
            if (haveA && haveB && ia->second.totalCycles > 0) {
                double da = static_cast<double>(ia->second.totalCycles);
                double db = static_cast<double>(ib->second.totalCycles);
                double delta = (db - da) / da * 100.0;
                row.push_back(CellValue::fixed(delta, 2));
                if (delta > threshold)
                    ++over;
            } else {
                row.push_back(CellValue::text("-"));
                ++incomparable;
            }
            t.rows.push_back(std::move(row));
        }
        int exit = over > 0 || incomparable > 0 ? 1 : 0;
        std::ostringstream foot;
        foot << "threshold +" << threshold << "%: " << over
             << " cell(s) over, " << incomparable << " incomparable"
             << (exit == 0 ? " -- PASS" : " -- FAIL") << "\n";
        t.footer = foot.str();
        return okReply(exit, renderAs(t, format));
    }

    if (verb == "runs") {
        SinkFormat format = takeFormat(words);
        if (words.size() != 2)
            return errReply("usage: runs <suite> [table|csv|json]");
        const SuiteInfo *info = log_.suite(words[1]);
        if (info == nullptr)
            return errReply("unknown suite '" + words[1] + "'");
        ResultTable t;
        t.title = "runs of " + words[1] + "\n";
        t.header = {"run", "rev", "cells", "failed", "grid"};
        for (const auto &run : info->runs) {
            t.rows.push_back(
                {CellValue::text(run.run), CellValue::text(run.rev),
                 CellValue::integer(run.cells.size()),
                 CellValue::integer(run.failedCells()),
                 CellValue::text(run.hasGrid ? "yes" : "no")});
        }
        return okReply(0, renderAs(t, format));
    }

    if (verb == "stats") {
        SinkFormat format = takeFormat(words);
        if (words.size() != 1)
            return errReply("usage: stats [table|csv|json]");
        ResultTable t;
        t.title = "store ingest stats\n";
        t.header = {"suite", "runs", "cells", "dup", "grids", "failed"};
        for (int r = 1; r < kFailReasonCount; ++r) // None: no column
            t.header.push_back(kFailReasons[r].name);
        for (const auto &name : log_.suiteNames()) {
            const SuiteInfo *info = log_.suite(name);
            const SuiteCounters &c = info->counters;
            std::vector<CellValue> row = {
                CellValue::text(name),
                CellValue::integer(info->runs.size()),
                CellValue::integer(c.cells),
                CellValue::integer(c.duplicates),
                CellValue::integer(c.grids),
                CellValue::integer(c.failed)};
            for (int r = 1; r < kFailReasonCount; ++r)
                row.push_back(CellValue::integer(c.byReason[r]));
            t.rows.push_back(std::move(row));
        }
        std::ostringstream foot;
        foot << log_.malformed() << " malformed frame(s); "
             << log_.replayed() << " event(s) replayed on startup; "
             << log_.truncatedTail() << " torn byte(s) recovered; "
             << "log " << log_.bytes() << " byte(s); seq "
             << log_.firstSeq() << ".." << log_.latestSeq() << "; "
             << log_.compactions() << " compaction(s)\n";
        t.footer = foot.str();
        return okReply(0, renderAs(t, format));
    }

    if (verb == "compact") {
        if (words.size() != 2)
            return errReply("usage: compact <keep-runs>");
        int keep = 0;
        if (!parseDecimal(words[1], 1, INT_MAX, keep))
            return errReply("bad keep-runs '" + words[1]
                            + "' (want an integer in [1, "
                            + std::to_string(INT_MAX) + "])");
        EventLog::CompactStats stats;
        std::string error;
        if (!log_.compact(keep, stats, error))
            return errReply(error);
        std::ostringstream text;
        text << "compacted: kept " << stats.keptEvents
             << " event(s), dropped " << stats.droppedEvents
             << " event(s) across " << stats.droppedRuns << " run(s); "
             << stats.bytesBefore << " -> " << stats.bytesAfter
             << " bytes\n";
        return okReply(0, text.str());
    }

    return errReply("unknown query '" + verb
                    + "' (expected latest-grid|diff|runs|stats|"
                      "compact|metrics)");
}

} // namespace l0vliw::store
