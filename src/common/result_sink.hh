/**
 * @file
 * Typed result tables and pluggable output sinks.
 *
 * The experiment engine produces a ResultTable: free-form title/footer
 * prose plus a grid of typed cells (text, fixed-point, percentage,
 * integer, or a failed cell's hole). Sinks render one table per
 * format: the aligned TextTable the paper drivers always printed
 * (byte-identical formatting via TextTable::fmt/pct), CSV for
 * spreadsheets, and JSON for dashboards — JSON emits the raw numeric
 * values, not the rounded display strings.
 *
 * A hole renders as `failed(<reason>)` in the text and CSV sinks and
 * as {"failed":"<reason>"} in JSON. A value that left holes out (an
 * AMEAN over a column's other cells) is flagged: `0.91 (1 failed
 * excluded)` in text and CSV, {"value":0.91,"excluded":1} in JSON.
 */

#ifndef L0VLIW_COMMON_RESULT_SINK_HH
#define L0VLIW_COMMON_RESULT_SINK_HH

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

namespace l0vliw
{

/** One typed cell of a result table. */
class CellValue
{
  public:
    enum class Kind { Text, Fixed, Percent, Integer, Failed };

    CellValue() = default;

    static CellValue
    text(std::string s)
    {
        CellValue v;
        v.kind_ = Kind::Text;
        v.text_ = std::move(s);
        return v;
    }

    /** A double rendered with @p digits decimals (TextTable::fmt). */
    static CellValue
    fixed(double value, int digits = 2)
    {
        CellValue v;
        v.kind_ = Kind::Fixed;
        v.num_ = value;
        v.digits_ = digits;
        return v;
    }

    /** A 0..1 fraction rendered as a percentage (TextTable::pct). */
    static CellValue
    percent(double value, int digits = 1)
    {
        CellValue v;
        v.kind_ = Kind::Percent;
        v.num_ = value;
        v.digits_ = digits;
        return v;
    }

    static CellValue
    integer(std::uint64_t value)
    {
        CellValue v;
        v.kind_ = Kind::Integer;
        v.int_ = value;
        return v;
    }

    /** A hole: the cell's run failed for @p reason (a FailReason
     *  name), so there is no number to show. */
    static CellValue
    failed(std::string reason)
    {
        CellValue v;
        v.kind_ = Kind::Failed;
        v.text_ = std::move(reason);
        return v;
    }

    Kind kind() const { return kind_; }
    bool isNumeric() const
    {
        return kind_ != Kind::Text && kind_ != Kind::Failed;
    }

    /** Flag a numeric value as computed without @p holes failed
     *  cells (0 clears the flag). */
    void setExcluded(int holes) { excluded_ = holes; }
    int excluded() const { return excluded_; }

    /** Raw numeric value (Percent stays a 0..1 fraction). */
    double
    number() const
    {
        return kind_ == Kind::Integer ? static_cast<double>(int_)
                                      : num_;
    }

    std::uint64_t integerValue() const { return int_; }
    /** The text, or a hole's reason. */
    const std::string &textValue() const { return text_; }
    int digits() const { return digits_; }

    /** The display string, exactly as the hand-written drivers did. */
    std::string formatted() const;

    /** A JSON literal: raw number, integer, or quoted string. */
    std::string json() const;

  private:
    Kind kind_ = Kind::Text;
    std::string text_;
    double num_ = 0;
    std::uint64_t int_ = 0;
    int digits_ = 2;
    int excluded_ = 0;
};

/** A rendered experiment result: prose plus a grid of typed cells. */
struct ResultTable
{
    /** Emitted verbatim before/after the text table (text sink only;
     *  the JSON sink carries them as fields, CSV drops them). */
    std::string title;
    std::string footer;
    std::vector<std::string> header;
    std::vector<std::vector<CellValue>> rows;
};

/** Output format selector (the drivers' --format flag). */
enum class SinkFormat { Table, Csv, Json };

/** Parse "table" | "csv" | "json" (fatal on anything else). */
SinkFormat parseSinkFormat(const std::string &name);

/** Render @p t as the aligned text table, title/footer included. */
std::string renderText(const ResultTable &t);

/** Render @p t as CSV (display strings; title/footer dropped). */
std::string renderCsv(const ResultTable &t);

/** Render @p t as a JSON object with raw typed values. */
std::string renderJson(const ResultTable &t);

/**
 * @p t as one compact JSON line that round-trips *losslessly* — every
 * cell keeps its kind, raw value (%.17g doubles, raw u64 tokens), and
 * display digits, so a decoded table re-renders byte-identically
 * through renderText/renderCsv/renderJson. This is the wire form of a
 * rendered grid (the store's "grid" frames); renderJson stays the
 * human/dashboard view with rounded raw values.
 */
std::string tableToWireJson(const ResultTable &t);

/** Inverse of tableToWireJson. False sets @p error. */
bool tableFromWireJson(const std::string &text, ResultTable &out,
                       std::string &error);

namespace json
{
class Value;
}

/** tableFromWireJson on an already-parsed subtree (a "grid" event's
 *  embedded table). False sets @p error. */
bool tableFromJsonValue(const json::Value &doc, ResultTable &out,
                        std::string &error);

/** A destination for result tables. */
class ResultSink
{
  public:
    virtual ~ResultSink() = default;
    virtual void write(const ResultTable &t) = 0;
};

/** Renders through TextTable, exactly like the pre-engine drivers. */
class TextTableSink : public ResultSink
{
  public:
    explicit TextTableSink(std::FILE *out = stdout) : out_(out) {}
    void write(const ResultTable &t) override;

  private:
    std::FILE *out_;
};

class CsvSink : public ResultSink
{
  public:
    explicit CsvSink(std::FILE *out = stdout) : out_(out) {}
    void write(const ResultTable &t) override;

  private:
    std::FILE *out_;
};

class JsonSink : public ResultSink
{
  public:
    explicit JsonSink(std::FILE *out = stdout) : out_(out) {}
    void write(const ResultTable &t) override;

  private:
    std::FILE *out_;
};

std::unique_ptr<ResultSink> makeSink(SinkFormat format,
                                     std::FILE *out = stdout);

} // namespace l0vliw

#endif // L0VLIW_COMMON_RESULT_SINK_HH
