#include "common/result_sink.hh"

#include <climits>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/table.hh"

namespace l0vliw
{

std::string
CellValue::formatted() const
{
    std::string out;
    switch (kind_) {
    case Kind::Text:
        return text_;
    case Kind::Failed:
        return "failed(" + text_ + ")";
    case Kind::Fixed:
        out = TextTable::fmt(num_, digits_);
        break;
    case Kind::Percent:
        out = TextTable::pct(num_, digits_);
        break;
    case Kind::Integer:
        out = std::to_string(int_);
        break;
    }
    if (excluded_ > 0)
        out += " (" + std::to_string(excluded_) + " failed excluded)";
    return out;
}

// String escaping lives in common/json.hh, shared with the executor
// wire protocol.

namespace
{

std::string
csvEscape(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

std::string
CellValue::json() const
{
    std::string out;
    switch (kind_) {
    case Kind::Text:
        return json::quote(text_);
    case Kind::Failed:
        return "{\"failed\":" + json::quote(text_) + "}";
    case Kind::Fixed:
    case Kind::Percent: {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.12g", num_);
        out = buf;
        break;
    }
    case Kind::Integer:
        out = std::to_string(int_);
        break;
    }
    if (excluded_ > 0)
        out = "{\"value\":" + out
              + ",\"excluded\":" + std::to_string(excluded_) + "}";
    return out;
}

SinkFormat
parseSinkFormat(const std::string &name)
{
    if (name == "table")
        return SinkFormat::Table;
    if (name == "csv")
        return SinkFormat::Csv;
    if (name == "json")
        return SinkFormat::Json;
    fatal("unknown output format '%s' (expected table|csv|json)",
          name.c_str());
}

std::string
renderText(const ResultTable &t)
{
    TextTable table;
    table.setHeader(t.header);
    for (const auto &row : t.rows) {
        std::vector<std::string> cells;
        cells.reserve(row.size());
        for (const auto &v : row)
            cells.push_back(v.formatted());
        table.addRow(std::move(cells));
    }
    return t.title + table.render() + t.footer;
}

std::string
renderCsv(const ResultTable &t)
{
    std::ostringstream out;
    for (std::size_t i = 0; i < t.header.size(); ++i)
        out << (i ? "," : "") << csvEscape(t.header[i]);
    out << '\n';
    for (const auto &row : t.rows) {
        for (std::size_t i = 0; i < row.size(); ++i)
            out << (i ? "," : "") << csvEscape(row[i].formatted());
        out << '\n';
    }
    return out.str();
}

std::string
renderJson(const ResultTable &t)
{
    std::ostringstream out;
    out << "{\n";
    if (!t.title.empty())
        out << "  \"title\": " << json::quote(t.title) << ",\n";
    if (!t.footer.empty())
        out << "  \"footer\": " << json::quote(t.footer) << ",\n";
    out << "  \"columns\": [";
    for (std::size_t i = 0; i < t.header.size(); ++i)
        out << (i ? ", " : "") << json::quote(t.header[i]);
    out << "],\n  \"rows\": [\n";
    for (std::size_t r = 0; r < t.rows.size(); ++r) {
        out << "    [";
        for (std::size_t i = 0; i < t.rows[r].size(); ++i)
            out << (i ? ", " : "") << t.rows[r][i].json();
        out << (r + 1 < t.rows.size() ? "],\n" : "]\n");
    }
    out << "  ]\n}\n";
    return out.str();
}

// ---- lossless wire encoding of a rendered table ----

namespace
{

/** One-letter wire tag of a CellValue kind. */
char
kindTag(CellValue::Kind k)
{
    switch (k) {
    case CellValue::Kind::Text:
        return 't';
    case CellValue::Kind::Fixed:
        return 'f';
    case CellValue::Kind::Percent:
        return 'p';
    case CellValue::Kind::Integer:
        return 'i';
    case CellValue::Kind::Failed:
        return 'x';
    }
    return 't';
}

void
appendWireCell(std::string &out, const CellValue &v)
{
    out += "{\"k\":\"";
    out += kindTag(v.kind());
    out += "\",\"v\":";
    switch (v.kind()) {
    case CellValue::Kind::Text:
    case CellValue::Kind::Failed:
        out += json::quote(v.textValue());
        break;
    case CellValue::Kind::Fixed:
    case CellValue::Kind::Percent:
        out += json::fromDouble(v.number());
        out += ",\"d\":" + std::to_string(v.digits());
        break;
    case CellValue::Kind::Integer:
        out += std::to_string(v.integerValue());
        break;
    }
    if (v.excluded() > 0)
        out += ",\"e\":" + std::to_string(v.excluded());
    out += '}';
}

bool
decodeWireCell(const json::Value &doc, CellValue &out,
               std::string &error)
{
    // "d" is the display digits: at most 17, %.17g's round-trip
    // precision, so no decoded cell can ask printf for more. "e" is
    // the failed cells a value left out.
    std::string kind;
    int digits = 2;
    int excluded = 0;
    if (!json::getString(doc, "k", kind, error)
        || !json::getInt(doc, "d", 0, 17, digits, error,
                         json::Presence::Optional)
        || !json::getInt(doc, "e", 0, INT_MAX, excluded, error,
                         json::Presence::Optional))
        return false;
    const json::Value *v = doc.find("v");
    if (v == nullptr) {
        error = "table cell without a 'v'";
        return false;
    }
    double number = 0;
    std::uint64_t integer = 0;
    if (kind == "t" && v->isString()) {
        out = CellValue::text(v->str());
    } else if (kind == "x" && v->isString()) {
        out = CellValue::failed(v->str());
    } else if (kind == "f" && json::toDouble(*v, number)) {
        out = CellValue::fixed(number, digits);
    } else if (kind == "p" && json::toDouble(*v, number)) {
        out = CellValue::percent(number, digits);
    } else if (kind == "i" && json::toU64(*v, integer)) {
        out = CellValue::integer(integer);
    } else {
        error = "table cell kind '" + kind
                + "' does not match its value";
        return false;
    }
    out.setExcluded(excluded);
    return true;
}

} // namespace

std::string
tableToWireJson(const ResultTable &t)
{
    std::string out = "{\"title\":" + json::quote(t.title);
    out += ",\"footer\":" + json::quote(t.footer);
    out += ",\"header\":[";
    for (std::size_t i = 0; i < t.header.size(); ++i) {
        if (i)
            out += ',';
        out += json::quote(t.header[i]);
    }
    out += "],\"rows\":[";
    for (std::size_t r = 0; r < t.rows.size(); ++r) {
        if (r)
            out += ',';
        out += '[';
        for (std::size_t i = 0; i < t.rows[r].size(); ++i) {
            if (i)
                out += ',';
            appendWireCell(out, t.rows[r][i]);
        }
        out += ']';
    }
    out += "]}";
    return out;
}

bool
tableFromJsonValue(const json::Value &doc, ResultTable &out,
                   std::string &error)
{
    out = ResultTable{};
    if (!json::getString(doc, "title", out.title, error)
        || !json::getString(doc, "footer", out.footer, error))
        return false;
    const json::Value *header = doc.find("header");
    const json::Value *rows = doc.find("rows");
    if (header == nullptr || !header->isArray() || rows == nullptr
        || !rows->isArray()) {
        error = "wire table is missing header/rows";
        return false;
    }
    for (const auto &h : header->items()) {
        if (!h.isString()) {
            error = "non-string wire table header";
            return false;
        }
        out.header.push_back(h.str());
    }
    for (const auto &row : rows->items()) {
        if (!row.isArray()) {
            error = "wire table row is not an array";
            return false;
        }
        std::vector<CellValue> cells;
        cells.reserve(row.items().size());
        for (const auto &cell : row.items()) {
            CellValue v;
            if (!decodeWireCell(cell, v, error))
                return false;
            cells.push_back(std::move(v));
        }
        out.rows.push_back(std::move(cells));
    }
    return true;
}

bool
tableFromWireJson(const std::string &text, ResultTable &out,
                  std::string &error)
{
    std::optional<json::Value> doc = json::parse(text, &error);
    if (!doc)
        return false;
    return tableFromJsonValue(*doc, out, error);
}

void
TextTableSink::write(const ResultTable &t)
{
    std::fputs(renderText(t).c_str(), out_);
}

void
CsvSink::write(const ResultTable &t)
{
    std::fputs(renderCsv(t).c_str(), out_);
}

void
JsonSink::write(const ResultTable &t)
{
    std::fputs(renderJson(t).c_str(), out_);
}

std::unique_ptr<ResultSink>
makeSink(SinkFormat format, std::FILE *out)
{
    switch (format) {
    case SinkFormat::Table:
        return std::make_unique<TextTableSink>(out);
    case SinkFormat::Csv:
        return std::make_unique<CsvSink>(out);
    case SinkFormat::Json:
        return std::make_unique<JsonSink>(out);
    }
    return nullptr;
}

} // namespace l0vliw
