#include "json.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/error.hh"
#include "common/logging.hh"

namespace pinte
{

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v)) {
        // JSON has no Inf/NaN; the schema never produces them, but a
        // defensive null keeps the document parseable if one appears.
        return "null";
    }
    // Shortest representation that parses back to the same bits:
    // try rising precision, stop at the first exact round-trip.
    char buf[40];
    for (int prec = 15; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
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
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

void
JsonWriter::comma()
{
    if (afterKey_) {
        afterKey_ = false;
        return;
    }
    if (needComma_)
        os_ << ",";
    if (depth_ > 0)
        newlineIndent();
}

void
JsonWriter::newlineIndent()
{
    if (indent_ < 0)
        return;
    os_ << "\n";
    for (int i = 0; i < depth_ * indent_; ++i)
        os_ << ' ';
}

void
JsonWriter::beginObject()
{
    comma();
    os_ << "{";
    ++depth_;
    needComma_ = false;
}

void
JsonWriter::endObject()
{
    --depth_;
    if (needComma_)
        newlineIndent();
    os_ << "}";
    needComma_ = true;
}

void
JsonWriter::beginArray()
{
    comma();
    os_ << "[";
    ++depth_;
    needComma_ = false;
}

void
JsonWriter::endArray()
{
    --depth_;
    if (needComma_)
        newlineIndent();
    os_ << "]";
    needComma_ = true;
}

void
JsonWriter::key(const std::string &k)
{
    comma();
    os_ << jsonQuote(k) << ": ";
    needComma_ = true;
    afterKey_ = true;
}

void
JsonWriter::value(const std::string &v)
{
    comma();
    os_ << jsonQuote(v);
    needComma_ = true;
}

void
JsonWriter::value(double v)
{
    comma();
    os_ << jsonNumber(v);
    needComma_ = true;
}

void
JsonWriter::value(std::uint64_t v)
{
    comma();
    os_ << v;
    needComma_ = true;
}

void
JsonWriter::value(bool v)
{
    comma();
    os_ << (v ? "true" : "false");
    needComma_ = true;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (type != Type::Object)
        return nullptr;
    for (const auto &[k, v] : object)
        if (k == key)
            return &v;
    return nullptr;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    const JsonValue *v = find(key);
    if (!v)
        fatal("json: missing key '" + key + "'");
    return *v;
}

double
JsonValue::asDouble() const
{
    if (type != Type::Number)
        fatal("json: expected a number");
    return number;
}

std::uint64_t
JsonValue::asU64() const
{
    if (type != Type::Number)
        fatal("json: expected a number");
    if (exactU64)
        return *exactU64;
    // 2^64 is the first double past the range; a NaN fails every test.
    if (!(number >= 0.0 && number < 0x1p64 &&
          number == std::floor(number)))
        throw ConfigError("json: not an unsigned 64-bit integer: " +
                              jsonNumber(number),
                          {"json", "", jsonNumber(number)});
    return static_cast<std::uint64_t>(number);
}

const std::string &
JsonValue::asString() const
{
    if (type != Type::String)
        fatal("json: expected a string");
    return string;
}

namespace
{

/** Recursive-descent parser over the document text. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    bool
    parse(JsonValue &out, std::string &error)
    {
        error_ = &error;
        if (!parseValue(out))
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing characters after document");
        return true;
    }

  private:
    bool
    fail(const std::string &msg)
    {
        *error_ = msg + " at offset " + std::to_string(pos_);
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::string(word).size();
        if (text_.compare(pos_, n, word) != 0)
            return fail(std::string("expected '") + word + "'");
        pos_ += n;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (text_[pos_] != '"')
            return fail("expected '\"'");
        ++pos_;
        out.clear();
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                return fail("unterminated escape");
            c = text_[pos_++];
            switch (c) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad \\u escape");
                }
                // The schema only escapes control characters; encode
                // the BMP code point as UTF-8.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xc0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                } else {
                    out += static_cast<char>(0xe0 | (code >> 12));
                    out += static_cast<char>(0x80 |
                                             ((code >> 6) & 0x3f));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                }
                break;
              }
              default:
                return fail("unknown escape");
            }
        }
        if (pos_ >= text_.size())
            return fail("unterminated string");
        ++pos_; // closing quote
        return true;
    }

    bool
    parseValue(JsonValue &out)
    {
        skipWs();
        if (pos_ >= text_.size())
            return fail("unexpected end of document");
        const char c = text_[pos_];
        // Nesting recurses; a document from a file must not be able
        // to overflow the stack. (A failed parse abandons depth_.)
        if ((c == '{' || c == '[') && ++depth_ > kMaxDepth)
            return fail("nesting deeper than " +
                        std::to_string(kMaxDepth));
        if (c == '{') {
            out.type = JsonValue::Type::Object;
            ++pos_;
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == '}') {
                ++pos_;
                --depth_;
                return true;
            }
            for (;;) {
                skipWs();
                std::string key;
                if (!parseString(key))
                    return false;
                skipWs();
                if (pos_ >= text_.size() || text_[pos_] != ':')
                    return fail("expected ':'");
                ++pos_;
                JsonValue v;
                if (!parseValue(v))
                    return false;
                out.object.emplace_back(std::move(key), std::move(v));
                skipWs();
                if (pos_ >= text_.size())
                    return fail("unterminated object");
                if (text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (text_[pos_] == '}') {
                    ++pos_;
                    --depth_;
                    return true;
                }
                return fail("expected ',' or '}'");
            }
        }
        if (c == '[') {
            out.type = JsonValue::Type::Array;
            ++pos_;
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == ']') {
                ++pos_;
                --depth_;
                return true;
            }
            for (;;) {
                JsonValue v;
                if (!parseValue(v))
                    return false;
                out.array.push_back(std::move(v));
                skipWs();
                if (pos_ >= text_.size())
                    return fail("unterminated array");
                if (text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (text_[pos_] == ']') {
                    ++pos_;
                    --depth_;
                    return true;
                }
                return fail("expected ',' or ']'");
            }
        }
        if (c == '"') {
            out.type = JsonValue::Type::String;
            return parseString(out.string);
        }
        if (c == 't') {
            out.type = JsonValue::Type::Bool;
            out.boolean = true;
            return literal("true");
        }
        if (c == 'f') {
            out.type = JsonValue::Type::Bool;
            out.boolean = false;
            return literal("false");
        }
        if (c == 'n') {
            out.type = JsonValue::Type::Null;
            return literal("null");
        }
        // Number.
        const char *start = text_.c_str() + pos_;
        char *end = nullptr;
        const double v = std::strtod(start, &end);
        if (end == start)
            return fail("expected a value");
        out.type = JsonValue::Type::Number;
        out.number = v;
        // Doubles hold integers exactly only up to 2^53: keep the
        // exact value of plain unsigned integer text alongside.
        const std::size_t len = static_cast<std::size_t>(end - start);
        if (std::all_of(start, start + len,
                        [](char c) { return c >= '0' && c <= '9'; })) {
            errno = 0;
            const unsigned long long u = std::strtoull(start, nullptr, 10);
            if (errno != ERANGE)
                out.exactU64 = u;
        }
        pos_ += len;
        return true;
    }

    static constexpr int kMaxDepth = 512;

    const std::string &text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
    std::string *error_ = nullptr;
};

} // namespace

JsonValue
parseJson(const std::string &text, std::string *error)
{
    JsonValue v;
    std::string msg;
    Parser p(text);
    if (!p.parse(v, msg)) {
        if (error) {
            *error = msg;
            return JsonValue{};
        }
        fatal("json: " + msg);
    }
    if (error)
        error->clear();
    return v;
}

} // namespace pinte
