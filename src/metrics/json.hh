/**
 * @file
 * Dependency-free JSON document model, writer and reader.
 *
 * The metrics exporters (metrics/export.hh) need a machine-readable
 * results format, and the bench-smoke validation needs to read those
 * files back; neither justifies a third-party dependency, so this is a
 * small, strict JSON implementation:
 *
 *  - Objects preserve *insertion order* (they are vectors of pairs,
 *    not maps), so a document serialises exactly as it was built —
 *    the foundation of the bit-identical-snapshot guarantee.
 *  - Numbers keep their integer-ness: values written as uint64/int64
 *    round-trip exactly; doubles are printed with std::to_chars
 *    (shortest form that round-trips), which is deterministic.
 *  - The reader (JsonValue::parse) is a strict recursive-descent
 *    parser returning Expected<JsonValue>: trailing garbage, trailing
 *    commas, unquoted keys, NaN/Infinity and bad escapes are all
 *    diagnosed with a byte offset rather than accepted.
 */
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.hh"

namespace mlpsim::metrics {

/** One JSON value (recursive sum type). */
class JsonValue
{
  public:
    enum class Kind : uint8_t {
        Null, Bool, Int, Uint, Double, String, Array, Object,
    };

    /** Key/value member of an object, in insertion order. */
    using Member = std::pair<std::string, JsonValue>;

    JsonValue() : k(Kind::Null) {}
    JsonValue(std::nullptr_t) : k(Kind::Null) {}
    JsonValue(bool value) : k(Kind::Bool), b(value) {}
    JsonValue(int value) : k(Kind::Int), i(value) {}
    JsonValue(int64_t value) : k(Kind::Int), i(value) {}
    JsonValue(uint64_t value) : k(Kind::Uint), u(value) {}
    /** @pre @p value is finite (JSON has no NaN/Infinity). */
    JsonValue(double value);
    JsonValue(const char *value) : k(Kind::String), s(value) {}
    JsonValue(std::string value) : k(Kind::String), s(std::move(value)) {}

    static JsonValue array() { return JsonValue(Kind::Array); }
    static JsonValue object() { return JsonValue(Kind::Object); }

    Kind kind() const { return k; }
    bool isNull() const { return k == Kind::Null; }
    bool isBool() const { return k == Kind::Bool; }
    bool isNumber() const
    {
        return k == Kind::Int || k == Kind::Uint || k == Kind::Double;
    }
    /** A non-negative integer that fits uint64: uinteger() is safe. A
     *  fraction, or an integer beyond uint64, parses as a double and
     *  is not one. */
    bool isUinteger() const
    {
        return k == Kind::Uint || (k == Kind::Int && i >= 0);
    }
    bool isString() const { return k == Kind::String; }
    bool isArray() const { return k == Kind::Array; }
    bool isObject() const { return k == Kind::Object; }

    bool boolean() const;
    /** Any numeric kind, widened to double. */
    double number() const;
    /** @pre isUinteger(). */
    uint64_t uinteger() const;
    const std::string &string() const;

    /** Array elements. @pre isArray(). */
    const std::vector<JsonValue> &items() const;
    /** Object members in insertion order. @pre isObject(). */
    const std::vector<Member> &members() const;

    /** Append to an array. @pre isArray(). */
    void push(JsonValue value);

    /**
     * Add (or overwrite) an object member; overwrite keeps the key's
     * original position so re-setting a member does not reorder the
     * serialised document. @pre isObject().
     */
    void set(std::string key, JsonValue value);

    /** Member lookup; nullptr if absent or not an object. */
    const JsonValue *find(std::string_view key) const;

    std::size_t size() const;

    /** Deep structural equality (used by round-trip validation). */
    bool operator==(const JsonValue &other) const;
    bool operator!=(const JsonValue &other) const
    {
        return !(*this == other);
    }

    /**
     * Serialise. @p indent > 0 pretty-prints with that many spaces per
     * level and a trailing newline; 0 emits the compact single-line
     * form. Output is a pure function of the document.
     */
    std::string dump(int indent = 2) const;

    /** Parse a complete document (leading/trailing whitespace ok). */
    static Expected<JsonValue> parse(std::string_view text);

  private:
    explicit JsonValue(Kind kind) : k(kind) {}

    void dumpTo(std::string &out, int indent, int depth) const;

    Kind k;
    bool b = false;
    int64_t i = 0;
    uint64_t u = 0;
    double d = 0.0;
    std::string s;
    std::vector<JsonValue> arr;
    std::vector<Member> obj;
};

/** Read and parse @p path. */
Expected<JsonValue> readJsonFile(const std::string &path);

/**
 * Serialise @p value to @p path atomically (util/file_io.hh's
 * writeFileAtomic), so readers never observe a partial document.
 */
Status writeJsonFile(const std::string &path, const JsonValue &value,
                     int indent = 2);

} // namespace mlpsim::metrics
