#include "json.hh"

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace qtenon::service::json {

double
Value::asDouble() const
{
    if (isDouble())
        return std::get<double>(_v);
    if (isInt())
        return static_cast<double>(std::get<std::int64_t>(_v));
    if (isUint())
        return static_cast<double>(std::get<std::uint64_t>(_v));
    throw std::runtime_error("json: value is not a number");
}

std::uint64_t
Value::asUint() const
{
    if (isUint())
        return std::get<std::uint64_t>(_v);
    if (isInt()) {
        const auto i = std::get<std::int64_t>(_v);
        if (i < 0)
            throw std::runtime_error("json: negative value as uint");
        return static_cast<std::uint64_t>(i);
    }
    throw std::runtime_error("json: value is not an integer");
}

std::int64_t
Value::asInt() const
{
    if (isInt())
        return std::get<std::int64_t>(_v);
    if (isUint()) {
        const auto u = std::get<std::uint64_t>(_v);
        if (u > static_cast<std::uint64_t>(
                std::numeric_limits<std::int64_t>::max()))
            throw std::runtime_error("json: uint overflows int64");
        return static_cast<std::int64_t>(u);
    }
    throw std::runtime_error("json: value is not an integer");
}

const Value *
Value::find(const std::string &key) const
{
    if (!isObject())
        return nullptr;
    for (const auto &[k, v] : asObject()) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

const Value &
Value::at(const std::string &key) const
{
    if (const Value *v = find(key))
        return *v;
    throw std::runtime_error("json: missing member '" + key + "'");
}

std::string
quote(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out.push_back('"');
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out.push_back(static_cast<char>(c));
            }
        }
    }
    out.push_back('"');
    return out;
}

namespace {

/** %.17g, forced to carry a '.' or exponent so it re-parses as
 *  double; the 17 significant digits make the round trip exact. */
std::string
formatDouble(double d)
{
    if (std::isnan(d))
        return "null"; // JSON has no NaN; null is the least-bad spelling
    if (std::isinf(d))
        return d > 0 ? "1e999" : "-1e999";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    if (!std::strpbrk(buf, ".eE"))
        std::strcat(buf, ".0");
    return buf;
}

} // namespace

// Out of line: inlined at a call site, GCC 12 reports a false
// -Wmaybe-uninitialized on the variant move.
void
Value::set(std::string key, Value v)
{
    asObject().emplace_back(std::move(key), std::move(v));
}

void
Value::writeIndented(std::ostream &os, int indent, int depth) const
{
    const std::string pad(static_cast<std::size_t>(indent) *
                              static_cast<std::size_t>(depth + 1),
                          ' ');
    const std::string closePad(
        static_cast<std::size_t>(indent) *
            static_cast<std::size_t>(depth),
        ' ');
    const char *nl = indent > 0 ? "\n" : "";

    if (isNull()) {
        os << "null";
    } else if (isBool()) {
        os << (asBool() ? "true" : "false");
    } else if (isDouble()) {
        os << formatDouble(std::get<double>(_v));
    } else if (isInt()) {
        os << std::get<std::int64_t>(_v);
    } else if (isUint()) {
        os << std::get<std::uint64_t>(_v);
    } else if (isString()) {
        os << quote(asString());
    } else if (isArray()) {
        const auto &a = asArray();
        if (a.empty()) {
            os << "[]";
            return;
        }
        os << "[" << nl;
        for (std::size_t i = 0; i < a.size(); ++i) {
            os << pad;
            a[i].writeIndented(os, indent, depth + 1);
            os << (i + 1 < a.size() ? "," : "") << nl;
        }
        os << closePad << "]";
    } else {
        const auto &o = asObject();
        if (o.empty()) {
            os << "{}";
            return;
        }
        os << "{" << nl;
        for (std::size_t i = 0; i < o.size(); ++i) {
            os << pad << quote(o[i].first)
               << (indent > 0 ? ": " : ":");
            o[i].second.writeIndented(os, indent, depth + 1);
            os << (i + 1 < o.size() ? "," : "") << nl;
        }
        os << closePad << "}";
    }
}

void
Value::write(std::ostream &os, int indent) const
{
    writeIndented(os, indent, 0);
}

std::string
Value::dump(int indent) const
{
    std::ostringstream os;
    write(os, indent);
    return os.str();
}

namespace {

/** Recursive-descent parser over an in-memory string. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : _s(text) {}

    Value
    document()
    {
        skipWs();
        Value v = value();
        skipWs();
        if (_pos != _s.size())
            fail("trailing characters after document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &why) const
    {
        throw std::runtime_error("json parse error at offset " +
                                 std::to_string(_pos) + ": " + why);
    }

    void
    skipWs()
    {
        while (_pos < _s.size() &&
               (_s[_pos] == ' ' || _s[_pos] == '\t' ||
                _s[_pos] == '\n' || _s[_pos] == '\r'))
            ++_pos;
    }

    char
    peek() const
    {
        return _pos < _s.size() ? _s[_pos] : '\0';
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++_pos;
    }

    bool
    consumeLiteral(const char *lit)
    {
        const std::size_t n = std::strlen(lit);
        if (_s.compare(_pos, n, lit) == 0) {
            _pos += n;
            return true;
        }
        return false;
    }

    Value
    value()
    {
        skipWs();
        switch (peek()) {
          case '{': return object();
          case '[': return array();
          case '"': return Value(string());
          case 't':
            if (consumeLiteral("true"))
                return Value(true);
            fail("bad literal");
          case 'f':
            if (consumeLiteral("false"))
                return Value(false);
            fail("bad literal");
          case 'n':
            if (consumeLiteral("null"))
                return Value(nullptr);
            fail("bad literal");
          default: return number();
        }
    }

    Value
    object()
    {
        expect('{');
        Object o;
        skipWs();
        if (peek() == '}') {
            ++_pos;
            return Value(std::move(o));
        }
        for (;;) {
            skipWs();
            std::string key = string();
            skipWs();
            expect(':');
            o.emplace_back(std::move(key), value());
            skipWs();
            if (peek() == ',') {
                ++_pos;
                continue;
            }
            expect('}');
            return Value(std::move(o));
        }
    }

    Value
    array()
    {
        expect('[');
        Array a;
        skipWs();
        if (peek() == ']') {
            ++_pos;
            return Value(std::move(a));
        }
        for (;;) {
            a.push_back(value());
            skipWs();
            if (peek() == ',') {
                ++_pos;
                continue;
            }
            expect(']');
            return Value(std::move(a));
        }
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        while (_pos < _s.size() && _s[_pos] != '"') {
            char c = _s[_pos++];
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (_pos >= _s.size())
                fail("dangling escape");
            char esc = _s[_pos++];
            switch (esc) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'n': out.push_back('\n'); break;
              case 'r': out.push_back('\r'); break;
              case 't': out.push_back('\t'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'u': {
                if (_pos + 4 > _s.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = _s[_pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad \\u escape digit");
                }
                // The service only ever emits \u00XX control
                // escapes; encode the general case as UTF-8 anyway.
                if (code < 0x80) {
                    out.push_back(static_cast<char>(code));
                } else if (code < 0x800) {
                    out.push_back(
                        static_cast<char>(0xC0 | (code >> 6)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3F)));
                } else {
                    out.push_back(
                        static_cast<char>(0xE0 | (code >> 12)));
                    out.push_back(static_cast<char>(
                        0x80 | ((code >> 6) & 0x3F)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3F)));
                }
                break;
              }
              default: fail("unknown escape");
            }
        }
        expect('"');
        return out;
    }

    Value
    number()
    {
        const std::size_t start = _pos;
        if (peek() == '-')
            ++_pos;
        bool isFloat = false;
        while (_pos < _s.size()) {
            char c = _s[_pos];
            if (std::isdigit(static_cast<unsigned char>(c))) {
                ++_pos;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                if (c == '.' || c == 'e' || c == 'E')
                    isFloat = true;
                ++_pos;
            } else {
                break;
            }
        }
        const std::string tok = _s.substr(start, _pos - start);
        if (tok.empty() || tok == "-")
            fail("bad number");
        try {
            if (isFloat)
                return Value(std::stod(tok));
            if (tok[0] == '-')
                return Value(
                    static_cast<std::int64_t>(std::stoll(tok)));
            return Value(static_cast<std::uint64_t>(std::stoull(tok)));
        } catch (const std::out_of_range &) {
            // Out-of-range integers (and the 1e999 infinity
            // spelling) degrade to double.
            return Value(std::strtod(tok.c_str(), nullptr));
        }
    }

    const std::string &_s;
    std::size_t _pos = 0;
};

} // namespace

Value
Value::parse(const std::string &text)
{
    return Parser(text).document();
}

} // namespace qtenon::service::json
