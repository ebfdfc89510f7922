#include "util/json.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "util/logging.hh"

namespace imsim {
namespace util {

/** Recursive-descent parser over the whole document. */
class Json::Parser
{
  public:
    explicit Parser(const std::string &text_in) : text(text_in) {}

    Json
    document()
    {
        Json value = parseValue();
        skipWs();
        fatalIf(pos != text.size(),
                "Json: trailing characters at offset " +
                    std::to_string(pos));
        return value;
    }

  private:
    Json
    parseValue()
    {
        skipWs();
        fatalIf(pos >= text.size(), "Json: unexpected end of input");
        switch (text[pos]) {
          case '{': return parseObject();
          case '[': return parseArray();
          case '"': {
            Json value;
            value.kind = Type::String;
            value.stringValue = parseString();
            return value;
          }
          case 't':
          case 'f': return parseBool();
          case 'n': {
            expectWord("null");
            return Json();
          }
          default: return parseNumber();
        }
    }

    Json
    parseObject()
    {
        expect('{');
        Json value;
        value.kind = Type::Object;
        skipWs();
        if (consume('}'))
            return value;
        do {
            skipWs();
            std::string key = parseString();
            expect(':');
            Json member = parseValue();
            if (!value.find(key))
                value.members.emplace_back(std::move(key),
                                           std::move(member));
        } while (consume(','));
        expect('}');
        return value;
    }

    Json
    parseArray()
    {
        expect('[');
        Json value;
        value.kind = Type::Array;
        skipWs();
        if (consume(']'))
            return value;
        do {
            value.elements.push_back(parseValue());
        } while (consume(','));
        expect(']');
        return value;
    }

    Json
    parseBool()
    {
        Json value;
        value.kind = Type::Bool;
        if (text[pos] == 't') {
            expectWord("true");
            value.boolValue = true;
        } else {
            expectWord("false");
            value.boolValue = false;
        }
        return value;
    }

    Json
    parseNumber()
    {
        const char *begin = text.c_str() + pos;
        char *end = nullptr;
        const double number = std::strtod(begin, &end);
        fatalIf(end == begin, "Json: expected a value at offset " +
                                  std::to_string(pos));
        pos += static_cast<std::size_t>(end - begin);
        Json value;
        value.kind = Type::Number;
        value.numberValue = number;
        return value;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (pos < text.size() && text[pos] != '"') {
            char c = text[pos++];
            if (c != '\\') {
                out += c;
                continue;
            }
            fatalIf(pos >= text.size(), "Json: dangling escape");
            const char esc = text[pos++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 't': out += '\t'; break;
              case 'r': out += '\r'; break;
              case 'u': {
                fatalIf(pos + 4 > text.size(), "Json: bad \\u escape");
                const unsigned code = static_cast<unsigned>(
                    std::stoul(text.substr(pos, 4), nullptr, 16));
                fatalIf(code > 0x7f,
                        "Json: non-ASCII \\u escape unsupported");
                out += static_cast<char>(code);
                pos += 4;
                break;
              }
              default: fatal("Json: unknown escape");
            }
        }
        expect('"');
        return out;
    }

    void
    expect(char c)
    {
        skipWs();
        fatalIf(pos >= text.size() || text[pos] != c,
                std::string("Json: expected '") + c + "' at offset " +
                    std::to_string(pos));
        ++pos;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    void
    expectWord(const char *word)
    {
        const std::size_t len = std::string(word).size();
        fatalIf(text.compare(pos, len, word) != 0,
                std::string("Json: expected '") + word + "' at offset " +
                    std::to_string(pos));
        pos += len;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\n' ||
                text[pos] == '\t' || text[pos] == '\r'))
            ++pos;
    }

    const std::string &text;
    std::size_t pos = 0;
};

Json
Json::parse(const std::string &text)
{
    return Parser(text).document();
}

bool
Json::boolean() const
{
    fatalIf(kind != Type::Bool, "Json: value is not a bool");
    return boolValue;
}

double
Json::number() const
{
    if (kind == Type::Null)
        return std::nan("");
    fatalIf(kind != Type::Number, "Json: value is not a number");
    return numberValue;
}

std::uint64_t
Json::unsignedInteger(std::uint64_t max) const
{
    const std::uint64_t limit = std::min(max, kMaxExactInteger);
    const double value = number();
    fatalIf(!(value >= 0.0 && value <= static_cast<double>(limit) &&
              std::floor(value) == value),
            "Json: value is not an integer in [0, " +
                std::to_string(limit) + "]");
    return static_cast<std::uint64_t>(value);
}

const std::string &
Json::str() const
{
    fatalIf(kind != Type::String, "Json: value is not a string");
    return stringValue;
}

const std::vector<Json> &
Json::array() const
{
    fatalIf(kind != Type::Array, "Json: value is not an array");
    return elements;
}

const std::vector<std::pair<std::string, Json>> &
Json::object() const
{
    fatalIf(kind != Type::Object, "Json: value is not an object");
    return members;
}

std::size_t
Json::size() const
{
    if (kind == Type::Array)
        return elements.size();
    if (kind == Type::Object)
        return members.size();
    return 0;
}

const Json *
Json::find(const std::string &key) const
{
    if (kind != Type::Object)
        return nullptr;
    for (const auto &member : members)
        if (member.first == key)
            return &member.second;
    return nullptr;
}

const Json &
Json::at(const std::string &key) const
{
    const Json *member = find(key);
    fatalIf(member == nullptr, "Json: missing object key '" + key + "'");
    return *member;
}

const Json &
Json::at(std::size_t index) const
{
    fatalIf(kind != Type::Array || index >= elements.size(),
            "Json: array index out of range");
    return elements[index];
}

void
Json::appendEscaped(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

void
Json::appendNumber(std::string &out, double value, int digits)
{
    if (!std::isfinite(value)) {
        out += "null";
        return;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.*g", digits, value);
    out += buf;
}

} // namespace util
} // namespace imsim
