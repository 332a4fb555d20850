#include "json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace swordfish {

namespace {

const JsonValue kNullValue{};

/** Render a double the way the rest of the framework does (shortest
 *  round-trip via %.17g, trimmed of a trailing ".0" ambiguity is not
 *  needed since readers accept either form). */
std::string
dumpDouble(double v)
{
    if (!std::isfinite(v))
        return "null"; // JSON has no Inf/NaN; null is the lossless-ish out
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/**
 * Append s to out as a quoted, escaped JSON string. The writers append in
 * place rather than concatenate temporaries, whose inlined copies GCC 12
 * flags with -Wrestrict under ASan.
 */
void
appendQuoted(std::string& out, const std::string& s)
{
    out += '"';
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    out += '"';
}

} // namespace

const char*
jsonFailureName(JsonFailure failure)
{
    switch (failure) {
      case JsonFailure::None: return "none";
      case JsonFailure::Syntax: return "syntax";
      case JsonFailure::Depth: return "depth";
      case JsonFailure::Number: return "number";
      case JsonFailure::DuplicateKey: return "duplicate_key";
      default: return "trailing";
    }
}

// ---------------------------------------------------------------------------
// JsonValue construction / access
// ---------------------------------------------------------------------------

JsonValue
JsonValue::of(bool b)
{
    JsonValue v;
    v.type_ = Type::Bool;
    v.bool_ = b;
    return v;
}

JsonValue
JsonValue::of(double d)
{
    JsonValue v;
    v.type_ = Type::Number;
    v.num_ = d;
    return v;
}

JsonValue
JsonValue::of(std::int64_t i)
{
    JsonValue v;
    v.type_ = Type::Number;
    v.integral_ = true;
    v.negative_ = i < 0;
    // Negate via unsigned arithmetic so INT64_MIN does not overflow.
    v.magnitude_ = v.negative_
        ? ~static_cast<std::uint64_t>(i) + 1ULL
        : static_cast<std::uint64_t>(i);
    v.num_ = static_cast<double>(i);
    return v;
}

JsonValue
JsonValue::of(std::uint64_t u)
{
    JsonValue v;
    v.type_ = Type::Number;
    v.integral_ = true;
    v.magnitude_ = u;
    v.num_ = static_cast<double>(u);
    return v;
}

JsonValue
JsonValue::of(std::string s)
{
    JsonValue v;
    v.type_ = Type::String;
    v.str_ = std::move(s);
    return v;
}

JsonValue
JsonValue::array()
{
    JsonValue v;
    v.type_ = Type::Array;
    return v;
}

JsonValue
JsonValue::object()
{
    JsonValue v;
    v.type_ = Type::Object;
    return v;
}

bool
JsonValue::asBool(bool fallback) const
{
    return isBool() ? bool_ : fallback;
}

double
JsonValue::asDouble(double fallback) const
{
    if (!isNumber())
        return fallback;
    if (integral_) {
        const double mag = static_cast<double>(magnitude_);
        return negative_ ? -mag : mag;
    }
    return num_;
}

std::int64_t
JsonValue::asI64(std::int64_t fallback) const
{
    if (!isNumber())
        return fallback;
    if (integral_) {
        if (negative_) {
            // Valid down to INT64_MIN, whose magnitude is 2^63.
            if (magnitude_ > 0x8000000000000000ULL)
                return fallback;
            return static_cast<std::int64_t>(~magnitude_ + 1ULL);
        }
        if (magnitude_ > 0x7fffffffffffffffULL)
            return fallback;
        return static_cast<std::int64_t>(magnitude_);
    }
    return static_cast<std::int64_t>(num_);
}

std::uint64_t
JsonValue::asU64(std::uint64_t fallback) const
{
    if (!isNumber())
        return fallback;
    if (integral_)
        return negative_ ? fallback : magnitude_;
    return num_ < 0 ? fallback : static_cast<std::uint64_t>(num_);
}

const std::string&
JsonValue::asString() const
{
    static const std::string empty;
    return isString() ? str_ : empty;
}

std::size_t
JsonValue::size() const
{
    if (isArray())
        return items_.size();
    if (isObject())
        return members_.size();
    return 0;
}

const JsonValue&
JsonValue::at(std::size_t index) const
{
    if (!isArray() || index >= items_.size())
        return kNullValue;
    return items_[index];
}

void
JsonValue::push(JsonValue v)
{
    if (type_ == Type::Null)
        type_ = Type::Array;
    items_.push_back(std::move(v));
}

const JsonValue&
JsonValue::get(const std::string& key) const
{
    if (isObject()) {
        for (const auto& [k, v] : members_) {
            if (k == key)
                return v;
        }
    }
    return kNullValue;
}

bool
JsonValue::has(const std::string& key) const
{
    if (!isObject())
        return false;
    for (const auto& [k, v] : members_) {
        if (k == key)
            return true;
    }
    return false;
}

void
JsonValue::set(const std::string& key, JsonValue v)
{
    if (type_ == Type::Null)
        type_ = Type::Object;
    for (auto& [k, existing] : members_) {
        if (k == key) {
            existing = std::move(v);
            return;
        }
    }
    members_.emplace_back(key, std::move(v));
}

const std::vector<std::pair<std::string, JsonValue>>&
JsonValue::members() const
{
    return members_;
}

std::string
JsonValue::dump() const
{
    switch (type_) {
      case Type::Null: return "null";
      case Type::Bool: return bool_ ? "true" : "false";
      case Type::Number:
        if (integral_) {
            std::string out = negative_ ? "-" : "";
            out += std::to_string(magnitude_);
            return out;
        }
        return dumpDouble(num_);
      case Type::String: {
        std::string out;
        appendQuoted(out, str_);
        return out;
      }
      case Type::Array: {
        std::string out = "[";
        for (std::size_t i = 0; i < items_.size(); ++i) {
            if (i > 0)
                out += ",";
            out += items_[i].dump();
        }
        return out + "]";
      }
      default: {
        std::string out = "{";
        bool first = true;
        for (const auto& [k, v] : members_) {
            if (!first)
                out += ",";
            first = false;
            appendQuoted(out, k);
            out += ':';
            out += v.dump();
        }
        return out + "}";
      }
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

class Parser
{
  public:
    Parser(const std::string& text, std::size_t max_depth)
        : text_(text), maxDepth_(max_depth)
    {}

    JsonError
    run(JsonValue& out)
    {
        JsonValue v;
        if (JsonError err = parseValue(v, 0))
            return err;
        skipWs();
        if (pos_ != text_.size())
            return fail(JsonFailure::Trailing,
                        "trailing characters after JSON value");
        out = std::move(v);
        return {};
    }

  private:
    JsonError
    fail(JsonFailure kind, const std::string& msg)
    {
        return {kind, pos_, msg + " at offset " + std::to_string(pos_)};
    }

    void
    skipWs()
    {
        while (pos_ < text_.size()
               && (text_[pos_] == ' ' || text_[pos_] == '\t'
                   || text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(const char* word)
    {
        std::size_t p = pos_;
        for (const char* w = word; *w != '\0'; ++w, ++p) {
            if (p >= text_.size() || text_[p] != *w)
                return false;
        }
        pos_ = p;
        return true;
    }

    JsonError
    parseValue(JsonValue& out, std::size_t depth)
    {
        if (depth > maxDepth_)
            return fail(JsonFailure::Depth, "nesting too deep");
        skipWs();
        if (pos_ >= text_.size())
            return fail(JsonFailure::Syntax, "unexpected end of input");
        const char c = text_[pos_];
        if (c == '{')
            return parseObject(out, depth);
        if (c == '[')
            return parseArray(out, depth);
        if (c == '"')
            return parseString(out);
        if (c == '-' || (c >= '0' && c <= '9'))
            return parseNumber(out);
        if (literal("true")) {
            out = JsonValue::of(true);
            return {};
        }
        if (literal("false")) {
            out = JsonValue::of(false);
            return {};
        }
        if (literal("null")) {
            out = JsonValue::makeNull();
            return {};
        }
        return fail(JsonFailure::Syntax,
                    std::string("unexpected character '") + c + "'");
    }

    JsonError
    parseObject(JsonValue& out, std::size_t depth)
    {
        ++pos_; // '{'
        JsonValue obj = JsonValue::object();
        skipWs();
        if (consume('}')) {
            out = std::move(obj);
            return {};
        }
        for (;;) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail(JsonFailure::Syntax, "expected object key");
            JsonValue key;
            if (JsonError err = parseString(key))
                return err;
            if (obj.has(key.asString()))
                return fail(JsonFailure::DuplicateKey,
                            "duplicate key \"" + key.asString() + "\"");
            skipWs();
            if (!consume(':'))
                return fail(JsonFailure::Syntax, "expected ':'");
            JsonValue value;
            if (JsonError err = parseValue(value, depth + 1))
                return err;
            obj.set(key.asString(), std::move(value));
            skipWs();
            if (consume(','))
                continue;
            if (consume('}'))
                break;
            return fail(JsonFailure::Syntax, "expected ',' or '}'");
        }
        out = std::move(obj);
        return {};
    }

    JsonError
    parseArray(JsonValue& out, std::size_t depth)
    {
        ++pos_; // '['
        JsonValue arr = JsonValue::array();
        skipWs();
        if (consume(']')) {
            out = std::move(arr);
            return {};
        }
        for (;;) {
            JsonValue value;
            if (JsonError err = parseValue(value, depth + 1))
                return err;
            arr.push(std::move(value));
            skipWs();
            if (consume(','))
                continue;
            if (consume(']'))
                break;
            return fail(JsonFailure::Syntax, "expected ',' or ']'");
        }
        out = std::move(arr);
        return {};
    }

    JsonError
    parseString(JsonValue& out)
    {
        ++pos_; // opening quote
        std::string s;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                out = JsonValue::of(std::move(s));
                return {};
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail(JsonFailure::Syntax,
                            "unescaped control character in string");
            if (c != '\\') {
                s.push_back(c);
                ++pos_;
                continue;
            }
            ++pos_;
            if (pos_ >= text_.size())
                break;
            const char esc = text_[pos_++];
            switch (esc) {
              case '"': s.push_back('"'); break;
              case '\\': s.push_back('\\'); break;
              case '/': s.push_back('/'); break;
              case 'b': s.push_back('\b'); break;
              case 'f': s.push_back('\f'); break;
              case 'n': s.push_back('\n'); break;
              case 'r': s.push_back('\r'); break;
              case 't': s.push_back('\t'); break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    return fail(JsonFailure::Syntax,
                                "truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_ + static_cast<std::size_t>(i)];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail(JsonFailure::Syntax,
                                    "bad hex digit in \\u escape");
                }
                pos_ += 4;
                if (code < 0x80) {
                    s.push_back(static_cast<char>(code));
                } else {
                    // Non-ASCII escapes stay escaped: the framework's
                    // strings are identifiers and paths, and a lossless
                    // pass-through beats a partial UTF-8 encoder.
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", code);
                    s += buf;
                }
                break;
              }
              default:
                return fail(JsonFailure::Syntax, "bad escape character");
            }
        }
        return fail(JsonFailure::Syntax, "unterminated string");
    }

    JsonError
    parseNumber(JsonValue& out)
    {
        const std::size_t start = pos_;
        const bool negative = consume('-');
        if (pos_ >= text_.size()
            || !(text_[pos_] >= '0' && text_[pos_] <= '9'))
            return fail(JsonFailure::Syntax, "malformed number");
        bool integral = true;
        bool overflow = false;
        std::uint64_t magnitude = 0;
        while (pos_ < text_.size() && text_[pos_] >= '0'
               && text_[pos_] <= '9') {
            const std::uint64_t digit =
                static_cast<std::uint64_t>(text_[pos_] - '0');
            if (magnitude > (0xffffffffffffffffULL - digit) / 10ULL)
                overflow = true;
            else
                magnitude = magnitude * 10ULL + digit;
            ++pos_;
        }
        if (pos_ < text_.size() && text_[pos_] == '.') {
            integral = false;
            ++pos_;
            if (pos_ >= text_.size()
                || !(text_[pos_] >= '0' && text_[pos_] <= '9'))
                return fail(JsonFailure::Syntax, "malformed number");
            while (pos_ < text_.size() && text_[pos_] >= '0'
                   && text_[pos_] <= '9')
                ++pos_;
        }
        if (pos_ < text_.size()
            && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            integral = false;
            ++pos_;
            if (pos_ < text_.size()
                && (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (pos_ >= text_.size()
                || !(text_[pos_] >= '0' && text_[pos_] <= '9'))
                return fail(JsonFailure::Syntax, "malformed number");
            while (pos_ < text_.size() && text_[pos_] >= '0'
                   && text_[pos_] <= '9')
                ++pos_;
        }
        if (integral) {
            if (overflow)
                return fail(JsonFailure::Number,
                            "integer literal out of 64-bit range");
            if (negative) {
                if (magnitude > 0x8000000000000000ULL)
                    return fail(JsonFailure::Number,
                                "integer literal out of 64-bit range");
                out = JsonValue::of(static_cast<std::int64_t>(
                    ~magnitude + 1ULL));
            } else {
                out = JsonValue::of(magnitude);
            }
            return {};
        }
        const std::string token = text_.substr(start, pos_ - start);
        char* end = nullptr;
        const double d = std::strtod(token.c_str(), &end);
        if (end == token.c_str() || !std::isfinite(d))
            return fail(JsonFailure::Number, "unrepresentable number");
        out = JsonValue::of(d);
        return {};
    }

    const std::string& text_;
    std::size_t pos_ = 0;
    std::size_t maxDepth_;
};

} // namespace

JsonError
JsonValue::parse(const std::string& text, JsonValue& out,
                 std::size_t max_depth)
{
    Parser parser(text, max_depth);
    return parser.run(out);
}

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

JsonWriter&
JsonWriter::key(const std::string& k)
{
    if (!first_)
        out_ += ",";
    first_ = false;
    appendQuoted(out_, k);
    out_ += ':';
    return *this;
}

JsonWriter&
JsonWriter::field(const std::string& k, const std::string& value)
{
    appendQuoted(key(k).out_, value);
    return *this;
}

JsonWriter&
JsonWriter::field(const std::string& k, const char* value)
{
    return field(k, std::string(value));
}

JsonWriter&
JsonWriter::field(const std::string& k, bool value)
{
    key(k).out_ += value ? "true" : "false";
    return *this;
}

JsonWriter&
JsonWriter::field(const std::string& k, double value)
{
    key(k).out_ += dumpDouble(value);
    return *this;
}

JsonWriter&
JsonWriter::field(const std::string& k, std::int64_t value)
{
    key(k).out_ += std::to_string(value);
    return *this;
}

JsonWriter&
JsonWriter::field(const std::string& k, std::uint64_t value)
{
    key(k).out_ += std::to_string(value);
    return *this;
}

JsonWriter&
JsonWriter::field(const std::string& k, int value)
{
    return field(k, static_cast<std::int64_t>(value));
}

JsonWriter&
JsonWriter::field(const std::string& k, unsigned value)
{
    return field(k, static_cast<std::uint64_t>(value));
}

JsonWriter&
JsonWriter::raw(const std::string& k, const std::string& json)
{
    key(k).out_ += json;
    return *this;
}

} // namespace swordfish
