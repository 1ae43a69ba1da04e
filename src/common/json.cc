#include "common/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/decimal.hh"

namespace l0vliw::json
{

double
Value::asDouble() const
{
    if (kind_ != Kind::Number)
        return 0;
    return std::strtod(scalar_.c_str(), nullptr);
}

const Value *
Value::find(const std::string &key) const
{
    for (const auto &kv : members_)
        if (kv.first == key)
            return &kv.second;
    return nullptr;
}

/** Strict recursive-descent parser over an index into the source. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : src(text) {}

    std::optional<Value>
    run(std::string *error)
    {
        Value v;
        if (!parseValue(v, 0) || (skipWs(), pos != src.size())) {
            if (err.empty())
                err = "trailing characters";
            if (error) {
                *error = "JSON parse error at offset "
                         + std::to_string(pos) + ": " + err;
            }
            return std::nullopt;
        }
        return v;
    }

  private:
    static constexpr int kMaxDepth = 64;

    bool
    fail(const char *what)
    {
        if (err.empty())
            err = what;
        return false;
    }

    void
    skipWs()
    {
        while (pos < src.size()
               && (src[pos] == ' ' || src[pos] == '\t'
                   || src[pos] == '\n' || src[pos] == '\r'))
            ++pos;
    }

    bool
    literal(const char *word)
    {
        std::size_t n = std::char_traits<char>::length(word);
        if (src.compare(pos, n, word) != 0)
            return fail("invalid literal");
        pos += n;
        return true;
    }

    bool
    parseValue(Value &out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        skipWs();
        if (pos >= src.size())
            return fail("unexpected end of input");
        switch (src[pos]) {
        case 'n':
            out.kind_ = Value::Kind::Null;
            return literal("null");
        case 't':
            out.kind_ = Value::Kind::Bool;
            out.bool_ = true;
            return literal("true");
        case 'f':
            out.kind_ = Value::Kind::Bool;
            out.bool_ = false;
            return literal("false");
        case '"':
            out.kind_ = Value::Kind::String;
            return parseString(out.scalar_);
        case '[':
            return parseArray(out, depth);
        case '{':
            return parseObject(out, depth);
        default:
            return parseNumber(out);
        }
    }

    bool
    parseNumber(Value &out)
    {
        std::size_t start = pos;
        if (pos < src.size() && src[pos] == '-')
            ++pos;
        std::size_t digits = pos;
        while (pos < src.size() && std::isdigit(
                   static_cast<unsigned char>(src[pos])))
            ++pos;
        if (pos == digits)
            return fail("invalid number");
        if (pos < src.size() && src[pos] == '.') {
            ++pos;
            std::size_t frac = pos;
            while (pos < src.size() && std::isdigit(
                       static_cast<unsigned char>(src[pos])))
                ++pos;
            if (pos == frac)
                return fail("invalid number");
        }
        if (pos < src.size() && (src[pos] == 'e' || src[pos] == 'E')) {
            ++pos;
            if (pos < src.size() && (src[pos] == '+' || src[pos] == '-'))
                ++pos;
            std::size_t exp = pos;
            while (pos < src.size() && std::isdigit(
                       static_cast<unsigned char>(src[pos])))
                ++pos;
            if (pos == exp)
                return fail("invalid number");
        }
        out.kind_ = Value::Kind::Number;
        out.scalar_ = src.substr(start, pos - start);
        return true;
    }

    /** Append @p cp to @p out as UTF-8. */
    static void
    appendUtf8(std::string &out, unsigned long cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        }
    }

    bool
    hex4(unsigned long &out)
    {
        if (pos + 4 > src.size())
            return fail("truncated \\u escape");
        out = 0;
        for (int i = 0; i < 4; ++i) {
            char c = src[pos++];
            out <<= 4;
            if (c >= '0' && c <= '9')
                out |= static_cast<unsigned long>(c - '0');
            else if (c >= 'a' && c <= 'f')
                out |= static_cast<unsigned long>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                out |= static_cast<unsigned long>(c - 'A' + 10);
            else
                return fail("invalid \\u escape");
        }
        return true;
    }

    bool
    parseString(std::string &out)
    {
        ++pos; // opening quote
        out.clear();
        for (;;) {
            if (pos >= src.size())
                return fail("unterminated string");
            char c = src[pos++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= src.size())
                return fail("truncated escape");
            char e = src[pos++];
            switch (e) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': {
                unsigned long cp;
                if (!hex4(cp))
                    return false;
                if (cp >= 0xD800 && cp <= 0xDBFF) {
                    // High surrogate: require the low half.
                    if (src.compare(pos, 2, "\\u") != 0)
                        return fail("unpaired surrogate");
                    pos += 2;
                    unsigned long lo;
                    if (!hex4(lo))
                        return false;
                    if (lo < 0xDC00 || lo > 0xDFFF)
                        return fail("unpaired surrogate");
                    cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
                    return fail("unpaired surrogate");
                }
                appendUtf8(out, cp);
                break;
            }
            default:
                return fail("invalid escape");
            }
        }
    }

    bool
    parseArray(Value &out, int depth)
    {
        ++pos; // '['
        out.kind_ = Value::Kind::Array;
        skipWs();
        if (pos < src.size() && src[pos] == ']') {
            ++pos;
            return true;
        }
        for (;;) {
            Value item;
            if (!parseValue(item, depth + 1))
                return false;
            out.items_.push_back(std::move(item));
            skipWs();
            if (pos >= src.size())
                return fail("unterminated array");
            if (src[pos] == ',') {
                ++pos;
                continue;
            }
            if (src[pos] == ']') {
                ++pos;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool
    parseObject(Value &out, int depth)
    {
        ++pos; // '{'
        out.kind_ = Value::Kind::Object;
        skipWs();
        if (pos < src.size() && src[pos] == '}') {
            ++pos;
            return true;
        }
        for (;;) {
            skipWs();
            if (pos >= src.size() || src[pos] != '"')
                return fail("expected object key");
            std::string key;
            if (!parseString(key))
                return false;
            skipWs();
            if (pos >= src.size() || src[pos] != ':')
                return fail("expected ':'");
            ++pos;
            Value item;
            if (!parseValue(item, depth + 1))
                return false;
            out.members_.emplace_back(std::move(key), std::move(item));
            skipWs();
            if (pos >= src.size())
                return fail("unterminated object");
            if (src[pos] == ',') {
                ++pos;
                continue;
            }
            if (src[pos] == '}') {
                ++pos;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    const std::string &src;
    std::size_t pos = 0;
    std::string err;
};

std::optional<Value>
parse(const std::string &text, std::string *error)
{
    return Parser(text).run(error);
}

bool
toU64(const Value &v, std::uint64_t &out)
{
    return v.isNumber()
           && parseDecimal(v.numberToken(), 0, UINT64_MAX, out);
}

bool
toInt(const Value &v, int lo, int hi, int &out)
{
    return v.isNumber() && parseDecimal(v.numberToken(), lo, hi, out);
}

bool
toDouble(const Value &v, double &out)
{
    const double d = v.asDouble();
    if (!v.isNumber() || !std::isfinite(d))
        return false;
    out = d;
    return true;
}

namespace
{

/** The frame every member reader shares: presence first, then
 *  @p read on the member, with @p want naming the expected type. */
template <typename Read>
bool
readMember(const Value &obj, const char *key, Presence presence,
           std::string &error, const char *want, Read read)
{
    if (!obj.isObject()) {
        error = std::string("not an object where '") + key
                + "' was expected";
        return false;
    }
    const Value *v = obj.find(key);
    if (v == nullptr) {
        if (presence == Presence::Optional)
            return true;
        error = std::string("missing field '") + key + "'";
        return false;
    }
    if (read(*v))
        return true;
    error = std::string("field '") + key + "' is not " + want;
    return false;
}

} // namespace

bool
getU64(const Value &obj, const char *key, std::uint64_t &out,
       std::string &error, Presence presence)
{
    return readMember(obj, key, presence, error, "a u64",
                      [&](const Value &v) { return toU64(v, out); });
}

bool
getInt(const Value &obj, const char *key, int lo, int hi, int &out,
       std::string &error, Presence presence)
{
    if (readMember(obj, key, presence, error, "an integer",
                   [&](const Value &v) { return toInt(v, lo, hi, out); }))
        return true;
    if (obj.find(key) != nullptr)
        error += " in [" + std::to_string(lo) + ", " + std::to_string(hi)
                 + "]";
    return false;
}

bool
getDouble(const Value &obj, const char *key, double &out,
          std::string &error, Presence presence)
{
    return readMember(obj, key, presence, error, "a finite number",
                      [&](const Value &v) { return toDouble(v, out); });
}

bool
getString(const Value &obj, const char *key, std::string &out,
          std::string &error, Presence presence)
{
    return readMember(obj, key, presence, error, "a string",
                      [&](const Value &v) {
                          if (!v.isString())
                              return false;
                          out = v.str();
                          return true;
                      });
}

bool
getBool(const Value &obj, const char *key, bool &out,
        std::string &error, Presence presence)
{
    return readMember(obj, key, presence, error, "a bool",
                      [&](const Value &v) {
                          if (!v.isBool())
                              return false;
                          out = v.boolean();
                          return true;
                      });
}

std::string
quote(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    for (unsigned char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    out += '"';
    return out;
}

std::string
fromDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace l0vliw::json
