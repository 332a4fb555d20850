/**
 * @file
 * Minimal JSON value type, strict parser, and writer for the serializable
 * request surface (JobSpec / EvalRequest round-trips, the swordfishd wire
 * protocol, and config snapshots embedded in metrics output).
 *
 * Scope is deliberately small: UTF-8 pass-through strings (standard
 * escapes, \uXXXX decoded as a byte-wise code point below 0x80, else kept
 * escaped), 64-bit-exact integers (a number token without '.', 'e', 'E'
 * round-trips through int64/uint64 bit-exactly — JSON doubles alone would
 * corrupt seeds above 2^53), and objects that preserve insertion order so
 * dumps are deterministic and diffable.
 *
 * Parsing is strict and typed: one JsonError (kind + offset + message) per
 * failure, a depth bound against stack-smashing nesting, and no partial
 * out-state on failure — exactly the contract the fuzz-style wire-protocol
 * tests assert.
 */

#ifndef SWORDFISH_UTIL_JSON_H
#define SWORDFISH_UTIL_JSON_H

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace swordfish {

/** Why a JSON parse failed. */
enum class JsonFailure
{
    None,        ///< success
    Syntax,      ///< malformed token / structure
    Depth,       ///< nesting beyond the parser bound
    Number,      ///< unrepresentable numeric literal
    DuplicateKey,///< the same key twice in one object
    Trailing,    ///< valid value followed by non-whitespace garbage
};

/** Stable label for a failure kind. */
const char* jsonFailureName(JsonFailure failure);

/** A typed parse error: kind, byte offset, human-readable message. */
struct JsonError
{
    JsonFailure failure = JsonFailure::None;
    std::size_t offset = 0;
    std::string message;

    bool ok() const { return failure == JsonFailure::None; }
    explicit operator bool() const { return !ok(); } ///< true on *error*
};

/**
 * One JSON value. Numbers remember whether their token was integral, so
 * u64/i64 round-trip exactly; everything else degrades to double.
 */
class JsonValue
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    JsonValue() = default;

    static JsonValue makeNull() { return JsonValue(); }
    static JsonValue of(bool b);
    static JsonValue of(double d);
    static JsonValue of(std::int64_t i);
    static JsonValue of(std::uint64_t u);
    static JsonValue of(std::string s);
    static JsonValue of(const char* s) { return of(std::string(s)); }
    static JsonValue array();
    static JsonValue object();

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    /** True when the number token was integral (no '.', no exponent). */
    bool isIntegral() const { return isNumber() && integral_; }

    bool asBool(bool fallback = false) const;
    double asDouble(double fallback = 0.0) const;
    std::int64_t asI64(std::int64_t fallback = 0) const;
    std::uint64_t asU64(std::uint64_t fallback = 0) const;
    const std::string& asString() const; ///< empty for non-strings

    // -- array access ------------------------------------------------------
    std::size_t size() const; ///< elements (array) or members (object)
    const JsonValue& at(std::size_t index) const; ///< null value if absent
    void push(JsonValue v);

    // -- object access (insertion-ordered) --------------------------------
    /** Member lookup; a process-wide null value when missing. */
    const JsonValue& get(const std::string& key) const;
    bool has(const std::string& key) const;
    void set(const std::string& key, JsonValue v); ///< insert or replace
    const std::vector<std::pair<std::string, JsonValue>>& members() const;

    /** Compact one-line dump (deterministic member order = insertion). */
    std::string dump() const;

    /**
     * Parse `text` into `out`. On failure returns the typed error and
     * leaves `out` untouched. `max_depth` bounds nesting.
     */
    static JsonError parse(const std::string& text, JsonValue& out,
                           std::size_t max_depth = 64);

  private:
    Type type_ = Type::Null;
    bool bool_ = false;
    bool integral_ = false;
    bool negative_ = false;    ///< integral token had a leading '-'
    double num_ = 0.0;
    std::uint64_t magnitude_ = 0; ///< |value| for integral tokens
    std::string str_;
    std::vector<JsonValue> items_;
    std::vector<std::pair<std::string, JsonValue>> members_;
};

/**
 * Incremental object writer for hand-rolled one-line dumps (metrics
 * snapshots, wire responses) — keeps field order explicit and escaping in
 * one place without building a JsonValue tree.
 */
class JsonWriter
{
  public:
    JsonWriter& field(const std::string& key, const std::string& value);
    JsonWriter& field(const std::string& key, const char* value);
    JsonWriter& field(const std::string& key, bool value);
    JsonWriter& field(const std::string& key, double value);
    JsonWriter& field(const std::string& key, std::int64_t value);
    JsonWriter& field(const std::string& key, std::uint64_t value);
    JsonWriter& field(const std::string& key, int value);
    JsonWriter& field(const std::string& key, unsigned value);
    /** Embed pre-rendered JSON (an object/array dump) verbatim. */
    JsonWriter& raw(const std::string& key, const std::string& json);

    /** Close the object and return the document. */
    std::string
    str() const
    {
        std::string doc = out_;
        doc += '}';
        return doc;
    }

  private:
    JsonWriter& key(const std::string& k);
    std::string out_ = "{"; ///< appended in place, as in json.cpp
    bool first_ = true;
};

} // namespace swordfish

#endif // SWORDFISH_UTIL_JSON_H
