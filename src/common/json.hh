/**
 * @file
 * Minimal JSON value model, parser, and formatting helpers.
 *
 * This is the wire-format layer of the executor protocol (newline-
 * delimited JSON jobs and outcomes across a pipe) and the escape
 * machinery behind the JSON result sink. It is deliberately small: an
 * ordered value tree, a strict recursive-descent parser, and two
 * formatting rules that make the protocol lossless —
 *
 *  - numbers keep their raw source token, so 64-bit counters decode
 *    exactly (no double round-trip in between), and
 *  - doubles encode with %.17g, which round-trips every IEEE-754
 *    binary64 value bit-for-bit through strtod.
 */

#ifndef L0VLIW_COMMON_JSON_HH
#define L0VLIW_COMMON_JSON_HH

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace l0vliw::json
{

/** One parsed JSON value; arrays/objects own their children. */
class Value
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool boolean() const { return bool_; }
    /** Decoded string value (escapes resolved). */
    const std::string &str() const { return scalar_; }
    /** The raw number token as it appeared in the source. */
    const std::string &numberToken() const { return scalar_; }

    /** The number as a double; 0 on non-numbers. Decoders read
     *  numbers through toU64/toInt/toDouble or the get* readers. */
    double asDouble() const;

    const std::vector<Value> &items() const { return items_; }
    const std::vector<std::pair<std::string, Value>> &
    members() const
    {
        return members_;
    }

    /** First member named @p key, or nullptr. */
    const Value *find(const std::string &key) const;

  private:
    friend class Parser;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    std::string scalar_; ///< string value or raw number token
    std::vector<Value> items_;
    std::vector<std::pair<std::string, Value>> members_;
};

/**
 * Parse one JSON document (the whole string must be consumed apart
 * from trailing whitespace). Empty on malformed input; @p error, when
 * non-null, receives a position-annotated message.
 */
std::optional<Value> parse(const std::string &text,
                           std::string *error = nullptr);

/**
 * Number reads by the one number rule (common/decimal.hh): an integer
 * is a canonical decimal token in range ("-1", "1.5e3", "007" and
 * "-0" are not u64s), a double any number token that reads as a
 * finite value. False, with @p out untouched, on anything else.
 */
bool toU64(const Value &v, std::uint64_t &out);
bool toInt(const Value &v, int lo, int hi, int &out);
bool toDouble(const Value &v, double &out);

/** Whether a member reader treats an absent member as an error. */
enum class Presence { Required, Optional };

/**
 * Typed reads of member @p key of object @p obj. A present member of
 * the wrong type or out of range is an error naming @p key, as is an
 * absent Required one and an @p obj that is not an object; an absent
 * Optional member leaves @p out at its default.
 */
bool getU64(const Value &obj, const char *key, std::uint64_t &out,
            std::string &error, Presence presence = Presence::Required);
bool getInt(const Value &obj, const char *key, int lo, int hi, int &out,
            std::string &error, Presence presence = Presence::Required);
bool getDouble(const Value &obj, const char *key, double &out,
               std::string &error,
               Presence presence = Presence::Required);
bool getString(const Value &obj, const char *key, std::string &out,
               std::string &error,
               Presence presence = Presence::Required);
bool getBool(const Value &obj, const char *key, bool &out,
             std::string &error, Presence presence = Presence::Required);

/** @p s as a quoted JSON string literal (escapes applied). */
std::string quote(const std::string &s);

/** A double as a JSON number that round-trips bit-for-bit (%.17g). */
std::string fromDouble(double v);

} // namespace l0vliw::json

#endif // L0VLIW_COMMON_JSON_HH
