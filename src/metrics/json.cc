#include "json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "util/file_io.hh"
#include "util/logging.hh"

namespace mlpsim::metrics {

JsonValue::JsonValue(double value) : k(Kind::Double), d(value)
{
    MLPSIM_ASSERT(std::isfinite(value),
                  "JSON cannot represent NaN/Infinity");
}

bool
JsonValue::boolean() const
{
    MLPSIM_ASSERT(k == Kind::Bool, "boolean() on non-bool JSON value");
    return b;
}

double
JsonValue::number() const
{
    switch (k) {
      case Kind::Int:
        return double(i);
      case Kind::Uint:
        return double(u);
      case Kind::Double:
        return d;
      default:
        panic("number() on non-numeric JSON value");
    }
}

uint64_t
JsonValue::uinteger() const
{
    switch (k) {
      case Kind::Uint:
        return u;
      case Kind::Int:
        MLPSIM_ASSERT(i >= 0, "uinteger() on negative JSON value");
        return uint64_t(i);
      default:
        panic("uinteger() on non-integer JSON value");
    }
}

const std::string &
JsonValue::string() const
{
    MLPSIM_ASSERT(k == Kind::String, "string() on non-string JSON value");
    return s;
}

const std::vector<JsonValue> &
JsonValue::items() const
{
    MLPSIM_ASSERT(k == Kind::Array, "items() on non-array JSON value");
    return arr;
}

const std::vector<JsonValue::Member> &
JsonValue::members() const
{
    MLPSIM_ASSERT(k == Kind::Object, "members() on non-object JSON value");
    return obj;
}

void
JsonValue::push(JsonValue value)
{
    MLPSIM_ASSERT(k == Kind::Array, "push() on non-array JSON value");
    arr.push_back(std::move(value));
}

void
JsonValue::set(std::string key, JsonValue value)
{
    MLPSIM_ASSERT(k == Kind::Object, "set() on non-object JSON value");
    for (auto &[existing, val] : obj) {
        if (existing == key) {
            val = std::move(value);
            return;
        }
    }
    obj.emplace_back(std::move(key), std::move(value));
}

const JsonValue *
JsonValue::find(std::string_view key) const
{
    if (k != Kind::Object)
        return nullptr;
    for (const auto &[name, val] : obj) {
        if (name == key)
            return &val;
    }
    return nullptr;
}

std::size_t
JsonValue::size() const
{
    switch (k) {
      case Kind::Array:
        return arr.size();
      case Kind::Object:
        return obj.size();
      case Kind::String:
        return s.size();
      default:
        return 0;
    }
}

bool
JsonValue::operator==(const JsonValue &other) const
{
    // Numbers compare across integer kinds (42 == 42u) but a double is
    // only equal to another double with identical bits, keeping the
    // round-trip check honest about exactness.
    if (isNumber() && other.isNumber()) {
        if (k == Kind::Double || other.k == Kind::Double)
            return k == other.k && d == other.d;
        if (k == Kind::Uint && other.k == Kind::Uint)
            return u == other.u;
        if (k == Kind::Int && other.k == Kind::Int)
            return i == other.i;
        const JsonValue &si = k == Kind::Int ? *this : other;
        const JsonValue &su = k == Kind::Uint ? *this : other;
        return si.i >= 0 && uint64_t(si.i) == su.u;
    }
    if (k != other.k)
        return false;
    switch (k) {
      case Kind::Null:
        return true;
      case Kind::Bool:
        return b == other.b;
      case Kind::String:
        return s == other.s;
      case Kind::Array:
        return arr == other.arr;
      case Kind::Object:
        return obj == other.obj;
      default:
        return false; // numeric kinds handled above
    }
}

namespace {

void
appendEscaped(std::string &out, const std::string &str)
{
    out += '"';
    for (unsigned char c : str) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += char(c);
            }
        }
    }
    out += '"';
}

void
appendDouble(std::string &out, double value)
{
    // to_chars emits the shortest decimal form that parses back to the
    // identical bits — both exact and deterministic.
    char buf[32];
    auto res = std::to_chars(buf, buf + sizeof(buf), value);
    MLPSIM_ASSERT(res.ec == std::errc(), "double formatting failed");
    out.append(buf, res.ptr);
    // Keep integral doubles recognisably floating-point so they parse
    // back as Kind::Double, preserving round-trip kind fidelity.
    std::string_view written(buf, size_t(res.ptr - buf));
    if (written.find_first_of(".eE") == std::string_view::npos)
        out += ".0";
}

void
newlineIndent(std::string &out, int indent, int depth)
{
    out += '\n';
    out.append(size_t(indent) * size_t(depth), ' ');
}

} // namespace

void
JsonValue::dumpTo(std::string &out, int indent, int depth) const
{
    switch (k) {
      case Kind::Null:
        out += "null";
        return;
      case Kind::Bool:
        out += b ? "true" : "false";
        return;
      case Kind::Int: {
        char buf[24];
        auto res = std::to_chars(buf, buf + sizeof(buf), i);
        out.append(buf, res.ptr);
        return;
      }
      case Kind::Uint: {
        char buf[24];
        auto res = std::to_chars(buf, buf + sizeof(buf), u);
        out.append(buf, res.ptr);
        return;
      }
      case Kind::Double:
        appendDouble(out, d);
        return;
      case Kind::String:
        appendEscaped(out, s);
        return;
      case Kind::Array: {
        if (arr.empty()) {
            out += "[]";
            return;
        }
        out += '[';
        for (size_t n = 0; n < arr.size(); ++n) {
            if (n)
                out += ',';
            if (indent)
                newlineIndent(out, indent, depth + 1);
            arr[n].dumpTo(out, indent, depth + 1);
        }
        if (indent)
            newlineIndent(out, indent, depth);
        out += ']';
        return;
      }
      case Kind::Object: {
        if (obj.empty()) {
            out += "{}";
            return;
        }
        out += '{';
        for (size_t n = 0; n < obj.size(); ++n) {
            if (n)
                out += ',';
            if (indent)
                newlineIndent(out, indent, depth + 1);
            appendEscaped(out, obj[n].first);
            out += indent ? ": " : ":";
            obj[n].second.dumpTo(out, indent, depth + 1);
        }
        if (indent)
            newlineIndent(out, indent, depth);
        out += '}';
        return;
      }
    }
}

std::string
JsonValue::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    if (indent)
        out += '\n';
    return out;
}

namespace {

/** Strict recursive-descent JSON parser over a string_view. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : in(text) {}

    Expected<JsonValue>
    document()
    {
        skipWs();
        MLPSIM_ASSIGN_OR_RETURN(JsonValue value, parseValue(0));
        skipWs();
        if (pos != in.size())
            return fail("trailing characters after document");
        return value;
    }

  private:
    static constexpr int maxDepth = 64;

    Status
    fail(const std::string &what) const
    {
        return Status::dataLoss("JSON parse error at byte ",
                                pos, ": ", what);
    }

    void
    skipWs()
    {
        while (pos < in.size() &&
               (in[pos] == ' ' || in[pos] == '\t' || in[pos] == '\n' ||
                in[pos] == '\r')) {
            ++pos;
        }
    }

    bool
    consume(char c)
    {
        if (pos < in.size() && in[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    Expected<JsonValue>
    parseValue(int depth)
    {
        if (depth > maxDepth)
            return fail("nesting deeper than 64 levels");
        if (pos >= in.size())
            return fail("unexpected end of input");
        switch (in[pos]) {
          case '{':
            return parseObject(depth);
          case '[':
            return parseArray(depth);
          case '"':
            return parseString();
          case 't':
            return parseKeyword("true", JsonValue(true));
          case 'f':
            return parseKeyword("false", JsonValue(false));
          case 'n':
            return parseKeyword("null", JsonValue(nullptr));
          default:
            return parseNumber();
        }
    }

    Expected<JsonValue>
    parseKeyword(std::string_view word, JsonValue value)
    {
        if (in.substr(pos, word.size()) != word)
            return fail("invalid literal");
        pos += word.size();
        return value;
    }

    Expected<JsonValue>
    parseObject(int depth)
    {
        ++pos; // '{'
        JsonValue out = JsonValue::object();
        skipWs();
        if (consume('}'))
            return out;
        while (true) {
            skipWs();
            if (pos >= in.size() || in[pos] != '"')
                return fail("expected string object key");
            MLPSIM_ASSIGN_OR_RETURN(JsonValue key, parseString());
            skipWs();
            if (!consume(':'))
                return fail("expected ':' after object key");
            skipWs();
            MLPSIM_ASSIGN_OR_RETURN(JsonValue value, parseValue(depth + 1));
            out.set(key.string(), std::move(value));
            skipWs();
            if (consume('}'))
                return out;
            if (!consume(','))
                return fail("expected ',' or '}' in object");
        }
    }

    Expected<JsonValue>
    parseArray(int depth)
    {
        ++pos; // '['
        JsonValue out = JsonValue::array();
        skipWs();
        if (consume(']'))
            return out;
        while (true) {
            skipWs();
            MLPSIM_ASSIGN_OR_RETURN(JsonValue value, parseValue(depth + 1));
            out.push(std::move(value));
            skipWs();
            if (consume(']'))
                return out;
            if (!consume(','))
                return fail("expected ',' or ']' in array");
        }
    }

    Expected<JsonValue>
    parseString()
    {
        ++pos; // '"'
        std::string out;
        while (true) {
            if (pos >= in.size())
                return fail("unterminated string");
            unsigned char c = (unsigned char)in[pos];
            if (c == '"') {
                ++pos;
                return JsonValue(std::move(out));
            }
            if (c < 0x20)
                return fail("unescaped control character in string");
            if (c != '\\') {
                out += char(c);
                ++pos;
                continue;
            }
            ++pos;
            if (pos >= in.size())
                return fail("unterminated escape");
            switch (in[pos]) {
              case '"':
                out += '"';
                break;
              case '\\':
                out += '\\';
                break;
              case '/':
                out += '/';
                break;
              case 'n':
                out += '\n';
                break;
              case 'r':
                out += '\r';
                break;
              case 't':
                out += '\t';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'u': {
                MLPSIM_ASSIGN_OR_RETURN(uint32_t cp, parseHex4());
                if (cp >= 0xD800 && cp <= 0xDBFF) {
                    // High surrogate: require the paired low half.
                    if (!(pos + 2 < in.size() && in[pos + 1] == '\\' &&
                          in[pos + 2] == 'u')) {
                        return fail("lone high surrogate");
                    }
                    pos += 2;
                    MLPSIM_ASSIGN_OR_RETURN(uint32_t lo, parseHex4());
                    if (lo < 0xDC00 || lo > 0xDFFF)
                        return fail("invalid low surrogate");
                    cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
                    return fail("lone low surrogate");
                }
                appendUtf8(out, cp);
                break;
              }
              default:
                return fail("invalid escape character");
            }
            ++pos;
        }
    }

    /** Four hex digits after "\u"; leaves pos on the last digit. */
    Expected<uint32_t>
    parseHex4()
    {
        uint32_t value = 0;
        for (int n = 0; n < 4; ++n) {
            ++pos;
            if (pos >= in.size())
                return fail("truncated \\u escape");
            const char c = in[pos];
            value <<= 4;
            if (c >= '0' && c <= '9')
                value |= uint32_t(c - '0');
            else if (c >= 'a' && c <= 'f')
                value |= uint32_t(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                value |= uint32_t(c - 'A' + 10);
            else
                return fail("non-hex digit in \\u escape");
        }
        return value;
    }

    static void
    appendUtf8(std::string &out, uint32_t cp)
    {
        if (cp < 0x80) {
            out += char(cp);
        } else if (cp < 0x800) {
            out += char(0xC0 | (cp >> 6));
            out += char(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            out += char(0xE0 | (cp >> 12));
            out += char(0x80 | ((cp >> 6) & 0x3F));
            out += char(0x80 | (cp & 0x3F));
        } else {
            out += char(0xF0 | (cp >> 18));
            out += char(0x80 | ((cp >> 12) & 0x3F));
            out += char(0x80 | ((cp >> 6) & 0x3F));
            out += char(0x80 | (cp & 0x3F));
        }
    }

    Expected<JsonValue>
    parseNumber()
    {
        const size_t start = pos;
        if (consume('-')) {
            // fallthrough; digits validated below
        }
        const size_t digits_start = pos;
        while (pos < in.size() && in[pos] >= '0' && in[pos] <= '9')
            ++pos;
        if (pos == digits_start)
            return fail("invalid number");
        if (in[digits_start] == '0' && pos - digits_start > 1)
            return fail("leading zero in number");
        bool floating = false;
        if (consume('.')) {
            floating = true;
            bool frac = false;
            while (pos < in.size() && in[pos] >= '0' && in[pos] <= '9') {
                ++pos;
                frac = true;
            }
            if (!frac)
                return fail("digits required after decimal point");
        }
        if (pos < in.size() && (in[pos] == 'e' || in[pos] == 'E')) {
            floating = true;
            ++pos;
            if (pos < in.size() && (in[pos] == '+' || in[pos] == '-'))
                ++pos;
            bool exp = false;
            while (pos < in.size() && in[pos] >= '0' && in[pos] <= '9') {
                ++pos;
                exp = true;
            }
            if (!exp)
                return fail("digits required in exponent");
        }

        const std::string_view text = in.substr(start, pos - start);
        if (!floating) {
            if (text[0] == '-') {
                int64_t value = 0;
                auto res = std::from_chars(text.data(),
                                           text.data() + text.size(),
                                           value);
                if (res.ec == std::errc() &&
                    res.ptr == text.data() + text.size()) {
                    return JsonValue(value);
                }
            } else {
                uint64_t value = 0;
                auto res = std::from_chars(text.data(),
                                           text.data() + text.size(),
                                           value);
                if (res.ec == std::errc() &&
                    res.ptr == text.data() + text.size()) {
                    return JsonValue(value);
                }
            }
            // Magnitude exceeds 64 bits: fall through to double.
        }
        double value = 0.0;
        auto res = std::from_chars(text.data(),
                                   text.data() + text.size(), value);
        if (res.ec != std::errc() || res.ptr != text.data() + text.size())
            return fail("unparseable number");
        return JsonValue(value);
    }

    std::string_view in;
    size_t pos = 0;
};

struct FileCloser
{
    void
    operator()(std::FILE *f) const
    {
        if (f)
            std::fclose(f);
    }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

} // namespace

Expected<JsonValue>
JsonValue::parse(std::string_view text)
{
    return Parser(text).document();
}

Expected<JsonValue>
readJsonFile(const std::string &path)
{
    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f)
        return Status::notFound("cannot open '", path, "'");
    std::string text;
    char buf[64 * 1024];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f.get())) > 0)
        text.append(buf, got);
    if (std::ferror(f.get()))
        return Status::ioError("error reading '", path, "'");
    return JsonValue::parse(text)
        .withContext("reading '", path, "'");
}

Status
writeJsonFile(const std::string &path, const JsonValue &value, int indent)
{
    return writeFileAtomic(path, value.dump(indent));
}

} // namespace mlpsim::metrics
