#include "metrics/registry.hh"

#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"

namespace l0vliw::metrics
{

namespace detail
{

unsigned
threadShard()
{
    static std::atomic<unsigned> nextSlot{0};
    static thread_local const unsigned slot =
        nextSlot.fetch_add(1, std::memory_order_relaxed);
    return slot;
}

} // namespace detail

Registry &
Registry::global()
{
    // Leaked on purpose: instrumentation handles are function-local
    // statics in every layer, and their destruction order against this
    // object is unknowable. A process-lifetime registry has no exit
    // teardown to get wrong.
    static Registry *instance = new Registry();
    return *instance;
}

Registry::Entry &
Registry::findOrCreate(const std::string &name, const std::string &help,
                       Type type)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = byName_.find(name);
    if (it != byName_.end()) {
        if (it->second->type != type)
            fatal("metric '%s' registered twice with different types",
                  name.c_str());
        return *it->second;
    }
    entries_.emplace_back();
    Entry &entry = entries_.back();
    entry.type = type;
    entry.name = name;
    entry.base = name.substr(0, name.find('{'));
    entry.help = help;
    byName_[name] = &entry;
    return entry;
}

Counter &
Registry::counter(const std::string &name, const std::string &help)
{
    return findOrCreate(name, help, Type::Counter).counter;
}

Gauge &
Registry::gauge(const std::string &name, const std::string &help)
{
    return findOrCreate(name, help, Type::Gauge).gauge;
}

std::string
Registry::renderProm() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream out;
    std::string lastBase;
    for (const Entry &entry : entries_) {
        // Series registered back to back share their base name's
        // HELP/TYPE header (the labeled-family case); a base that
        // reappears later simply re-emits it, which scrapers accept.
        if (entry.base != lastBase) {
            out << "# HELP " << entry.base << ' ' << entry.help << '\n';
            out << "# TYPE " << entry.base << ' '
                << (entry.type == Type::Counter ? "counter" : "gauge")
                << '\n';
            lastBase = entry.base;
        }
        out << entry.name << ' ';
        if (entry.type == Type::Counter)
            out << entry.counter.value();
        else
            out << entry.gauge.value();
        out << '\n';
    }
    return out.str();
}

ResultTable
Registry::renderTable() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    ResultTable t;
    t.title = "process metrics\n";
    t.header = {"metric", "type", "value"};
    for (const Entry &entry : entries_) {
        if (entry.type == Type::Counter)
            t.rows.push_back({CellValue::text(entry.name),
                              CellValue::text("counter"),
                              CellValue::integer(entry.counter.value())});
        else
            t.rows.push_back(
                {CellValue::text(entry.name), CellValue::text("gauge"),
                 CellValue::fixed(
                     static_cast<double>(entry.gauge.value()), 0)});
    }
    return t;
}

void
Registry::resetAllForTest()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (Entry &entry : entries_) {
        entry.counter.reset();
        entry.gauge.reset();
    }
}

Counter &
counter(const char *name, const char *help)
{
    return Registry::global().counter(name, help);
}

Gauge &
gauge(const char *name, const char *help)
{
    return Registry::global().gauge(name, help);
}

std::string
metricsQueryReply(const std::vector<std::string> &words)
{
    auto err = [](const std::string &error) {
        return "{\"ok\":false,\"error\":" + json::quote(error) + "}";
    };
    if (words.empty() || words[0] != "metrics" || words.size() > 2)
        return err("usage: metrics [prom|table|csv|json]");
    std::string format = words.size() == 2 ? words[1] : "prom";
    std::string text;
    if (format == "prom")
        text = Registry::global().renderProm();
    else if (format == "table")
        text = renderText(Registry::global().renderTable());
    else if (format == "csv")
        text = renderCsv(Registry::global().renderTable());
    else if (format == "json")
        text = renderJson(Registry::global().renderTable());
    else
        return err("unknown metrics format '" + format
                   + "' (expected prom|table|csv|json)");
    return "{\"ok\":true,\"exit\":0,\"text\":" + json::quote(text) + "}";
}

} // namespace l0vliw::metrics
