/**
 * @file
 * A minimal, dependency-free JSON value with a writer and a
 * recursive-descent parser — just enough for the batch experiment
 * service to export and re-import result stores.
 *
 * Design points that matter for the service:
 *  - objects preserve insertion order (vector of pairs), so exports
 *    are byte-deterministic;
 *  - integers (signed and unsigned 64-bit) are kept exact rather than
 *    routed through double, so tick counts and 64-bit seeds survive a
 *    round trip;
 *  - doubles are printed with max_digits10 precision and always carry
 *    a '.' or exponent, so the parser can tell them apart from
 *    integers and export->parse->export is byte-identical.
 */

#ifndef QTENON_SERVICE_JSON_HH
#define QTENON_SERVICE_JSON_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace qtenon::service::json {

class Value;

using Array = std::vector<Value>;
/** Insertion-ordered object representation. */
using Object = std::vector<std::pair<std::string, Value>>;

/** One JSON value of any kind. */
class Value
{
  public:
    Value() : _v(nullptr) {}
    Value(std::nullptr_t) : _v(nullptr) {}
    Value(bool b) : _v(b) {}
    Value(double d) : _v(d) {}
    Value(std::int64_t i) : _v(i) {}
    Value(std::uint64_t u) : _v(u) {}
    Value(int i) : _v(static_cast<std::int64_t>(i)) {}
    Value(unsigned u) : _v(static_cast<std::uint64_t>(u)) {}
    Value(const char *s) : _v(std::string(s)) {}
    Value(std::string s) : _v(std::move(s)) {}
    Value(Array a) : _v(std::move(a)) {}
    Value(Object o) : _v(std::move(o)) {}

    bool isNull() const { return std::holds_alternative<std::nullptr_t>(_v); }
    bool isBool() const { return std::holds_alternative<bool>(_v); }
    bool isDouble() const { return std::holds_alternative<double>(_v); }
    bool isInt() const { return std::holds_alternative<std::int64_t>(_v); }
    bool isUint() const { return std::holds_alternative<std::uint64_t>(_v); }
    bool isNumber() const { return isDouble() || isInt() || isUint(); }
    bool isString() const { return std::holds_alternative<std::string>(_v); }
    bool isArray() const { return std::holds_alternative<Array>(_v); }
    bool isObject() const { return std::holds_alternative<Object>(_v); }

    bool asBool() const { return std::get<bool>(_v); }
    /** Any numeric kind as double. */
    double asDouble() const;
    /** Any numeric kind as uint64 (throws on negative/fractional). */
    std::uint64_t asUint() const;
    /** Any numeric kind as int64. */
    std::int64_t asInt() const;
    const std::string &asString() const { return std::get<std::string>(_v); }
    const Array &asArray() const { return std::get<Array>(_v); }
    const Object &asObject() const { return std::get<Object>(_v); }
    Array &asArray() { return std::get<Array>(_v); }
    Object &asObject() { return std::get<Object>(_v); }

    /** Object member lookup; throws std::runtime_error if absent. */
    const Value &at(const std::string &key) const;
    /** Object member lookup; nullptr if absent or not an object. */
    const Value *find(const std::string &key) const;

    /** Append a member to an object value. */
    void set(std::string key, Value v);

    /**
     * Serialize. @p indent > 0 pretty-prints with that many spaces
     * per level; 0 emits the compact single-line form.
     */
    void write(std::ostream &os, int indent = 0) const;
    std::string dump(int indent = 0) const;

    /** Parse one document; throws std::runtime_error on bad input. */
    static Value parse(const std::string &text);

    static Value object() { return Value(Object{}); }
    static Value array() { return Value(Array{}); }

  private:
    void writeIndented(std::ostream &os, int indent, int depth) const;

    std::variant<std::nullptr_t, bool, double, std::int64_t,
                 std::uint64_t, std::string, Array, Object>
        _v;
};

/** Escape and quote @p s as a JSON string literal. */
std::string quote(const std::string &s);

} // namespace qtenon::service::json

#endif // QTENON_SERVICE_JSON_HH
