#include "obs/live_grid.hh"

#include <optional>
#include <sstream>

#include "common/json.hh"
#include "metrics/registry.hh"

namespace l0vliw::obs
{

LiveGrid::Apply
LiveGrid::applyFrame(const std::string &line, std::string &error)
{
    std::optional<json::Value> parsed = json::parse(line, &error);
    if (!parsed)
        return Apply::Malformed;
    std::string name;
    if (!json::getString(*parsed, "event", name, error)) {
        // Query-shaped error replies ({"ok":false,...}) are how the
        // server declines a malformed subscribe line.
        bool ok = true;
        std::string reply = "server rejected the subscription";
        if (json::getBool(*parsed, "ok", ok, error,
                          json::Presence::Optional)
            && !ok) {
            json::getString(*parsed, "error", reply, error,
                            json::Presence::Optional);
            error = reply;
            return Apply::Rejected;
        }
        return Apply::Malformed;
    }

    if (name == "subscribed") {
        // `latest` below what we already applied means this server
        // has less history than we folded: it restarted onto a
        // truncated (or fresh) log. Start over — dedup state keyed
        // on its old sequence numbering is meaningless now.
        std::uint64_t latest = lastSeq_;
        if (!json::getU64(*parsed, "latest", latest, error,
                          json::Presence::Optional))
            return Apply::Malformed;
        if (latest < lastSeq_) {
            reset();
            ++resets_;
        }
        caughtUp_ = false;
        return Apply::Info;
    }
    if (name == "caught-up") {
        caughtUp_ = true;
        return Apply::Info;
    }
    if (name == "nack") {
        const json::Value *msg = parsed->find("error");
        error = msg != nullptr && msg->isString() ? msg->str() : "nack";
        return Apply::Rejected;
    }
    if (name != "push") {
        error = "unexpected event '" + name + "'";
        return Apply::Malformed;
    }

    std::uint64_t seq = 0;
    if (!json::getU64(*parsed, "seq", seq, error))
        return Apply::Malformed;
    const json::Value *data = parsed->find("data");
    if (data == nullptr) {
        error = "push without data";
        return Apply::Malformed;
    }
    store::Event event;
    if (!store::Event::decode(*data, event, error))
        return Apply::Malformed;
    if (event.suite != suite_)
        return Apply::Info; // the server filters; tolerate anyway
    if (!applied_.insert(seq).second) {
        // Replay overlap after a resume — the at-least-once half of
        // the channel; dropping it here is the exactly-once half.
        ++info_.counters.duplicates;
        return Apply::Duplicate;
    }
    if (seq > lastSeq_)
        lastSeq_ = seq;
    if (!info_.apply(event, seq))
        return Apply::Duplicate;
    {
        static metrics::Counter &folded = metrics::counter(
            "l0vliw_obs_events_folded_total",
            "Store push events folded into live grids (duplicates "
            "already dropped)");
        folded.inc();
    }
    if (event.kind == store::Event::Kind::Cell)
        knownKeys_.insert({event.bench, event.arch});
    return Apply::Applied;
}

void
LiveGrid::reset()
{
    info_ = store::SuiteInfo{};
    knownKeys_.clear();
    applied_.clear();
    lastSeq_ = 0;
    caughtUp_ = false;
}

ResultTable
LiveGrid::liveTable() const
{
    ResultTable t;
    t.header = {"benchmark", "arch", "status", "cycles", "attempts",
                "wallMs"};
    const store::RunInfo *latest = info_.latestRun();
    if (latest == nullptr) {
        t.title = "live " + suite_ + ": waiting for events\n";
        return t;
    }
    t.title = "live " + suite_ + " @ " + latest->rev + " (run "
              + latest->run + ")"
              + (latest->hasGrid ? "" : " [in flight]") + "\n";
    for (const auto &key : knownKeys_) {
        auto it = latest->cells.find(key);
        std::vector<CellValue> row;
        row.push_back(CellValue::text(key.first));
        row.push_back(CellValue::text(key.second));
        if (it == latest->cells.end()) {
            // Expected (some run produced this cell) but not landed
            // in the latest run yet: the in-flight marker.
            row.push_back(CellValue::text("..."));
            row.push_back(CellValue::text("-"));
            row.push_back(CellValue::text("-"));
            row.push_back(CellValue::text("-"));
        } else {
            const store::CellRecord &cell = it->second;
            row.push_back(CellValue::text(
                cell.ok ? "ok" : failReasonName(cell.reason)));
            row.push_back(CellValue::integer(cell.totalCycles));
            row.push_back(CellValue::integer(
                static_cast<std::uint64_t>(cell.attempts)));
            row.push_back(CellValue::fixed(cell.wallMs, 1));
        }
        t.rows.push_back(std::move(row));
    }
    std::ostringstream foot;
    foot << info_.runs.size() << " run(s) | " << info_.counters.cells
         << " cell(s) | " << info_.counters.failed << " failed | "
         << info_.counters.duplicates << " dup(s) | seq " << lastSeq_
         << " | " << (caughtUp_ ? "live" : "replaying") << "\n";
    t.footer = foot.str();
    return t;
}

const ResultTable *
LiveGrid::latestStoredGrid() const
{
    const store::RunInfo *run = info_.latestGridRun();
    return run == nullptr ? nullptr : &run->grid;
}

} // namespace l0vliw::obs
