/**
 * @file
 * Minimal JSON document parser for the repo's own machine-readable
 * artifacts: RunReport JSON, profiler dumps, BENCH_hotpaths.json,
 * incident logs and flight-recorder dumps. Objects preserve key order
 * (the writers emit in a deterministic order and the readers
 * round-trip it), numbers are doubles, and `null` is a first-class
 * value because the writers emit it for non-finite metrics.
 *
 * This is a reader for JSON *we* wrote — it accepts standard JSON but
 * raises FatalError on anything malformed instead of recovering.
 */

#ifndef IMSIM_UTIL_JSON_HH
#define IMSIM_UTIL_JSON_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace imsim {
namespace util {

/**
 * One parsed JSON value: null, bool, number, string, array, or object
 * (ordered key/value pairs; duplicate keys keep the first).
 */
class Json
{
  public:
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    /** Parse @p text (one document, trailing whitespace only). */
    static Json parse(const std::string &text);

    /** @return this value's type. */
    Type type() const { return kind; }

    bool isNull() const { return kind == Type::Null; }
    bool isBool() const { return kind == Type::Bool; }
    bool isNumber() const { return kind == Type::Number; }
    bool isString() const { return kind == Type::String; }
    bool isArray() const { return kind == Type::Array; }
    bool isObject() const { return kind == Type::Object; }

    /** @return the boolean; FatalError when not a bool. */
    bool boolean() const;

    /** @return the number (NaN for null); FatalError otherwise. */
    double number() const;

    /** 2^53: doubles hold every integer up to here, exactly. */
    static constexpr std::uint64_t kMaxExactInteger = 1ULL << 53;

    /**
     * @return the number as a count or index; FatalError unless it is a
     *         finite, non-negative integer no greater than @p max (nor
     *         kMaxExactInteger) — the check that keeps outside input
     *         away from an undefined float-to-integer cast.
     */
    std::uint64_t unsignedInteger(
        std::uint64_t max = kMaxExactInteger) const;

    /** @return the string; FatalError when not a string. */
    const std::string &str() const;

    /** @return array elements; FatalError when not an array. */
    const std::vector<Json> &array() const;

    /** @return object members in document order; FatalError otherwise. */
    const std::vector<std::pair<std::string, Json>> &object() const;

    /** @return element count of an array or object, else 0. */
    std::size_t size() const;

    /** @return member @p key of an object, or nullptr when absent. */
    const Json *find(const std::string &key) const;

    /** @return whether this object has member @p key. */
    bool has(const std::string &key) const { return find(key) != nullptr; }

    /** @return member @p key; FatalError when absent. */
    const Json &at(const std::string &key) const;

    /** @return array element @p index; FatalError when out of range. */
    const Json &at(std::size_t index) const;

    /**
     * Append @p s to @p out as a quoted JSON string (the escaping all
     * of the repo's JSON writers share).
     */
    static void appendEscaped(std::string &out, const std::string &s);

  private:
    Type kind = Type::Null;
    bool boolValue = false;
    double numberValue = 0.0;
    std::string stringValue;
    std::vector<Json> elements;
    std::vector<std::pair<std::string, Json>> members;

    class Parser;
};

} // namespace util
} // namespace imsim

#endif // IMSIM_UTIL_JSON_HH
