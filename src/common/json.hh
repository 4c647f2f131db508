/**
 * @file
 * Minimal JSON writer and parser — just enough for the report schema.
 *
 * No external dependency: the toolchain image is fixed, so the report
 * layer carries its own (small, strict) JSON support. The writer
 * emits numbers with round-trip precision, which is what lets the
 * sink tests assert that a report parsed back from JSON is
 * bit-identical to the metrics the registry reported.
 */

#ifndef PINTE_COMMON_JSON_HH
#define PINTE_COMMON_JSON_HH

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace pinte
{

/** Render a double so that parsing it back yields the same bits. */
std::string jsonNumber(double v);

/** Escape and quote a string for JSON output. */
std::string jsonQuote(const std::string &s);

/**
 * Streaming JSON writer with automatic commas and indentation.
 * Usage: beginObject()/key()/value()/endObject(); nesting is checked
 * only by the emitted text being well-formed, not by assertions.
 * A negative indent writes the whole document on one line (JSONL
 * entries, spool records, the spool campaign document).
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os, int indent = 2)
        : os_(os), indent_(indent)
    {
    }

    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    /** Emit an object key; the next value call supplies its value. */
    void key(const std::string &k);

    void value(const std::string &v);
    void value(const char *v) { value(std::string(v)); }
    void value(double v);
    void value(std::uint64_t v);
    void value(int v) { value(static_cast<std::uint64_t>(v)); }
    void value(bool v);

    /** key() + value() in one call. */
    template <typename T>
    void
    member(const std::string &k, const T &v)
    {
        key(k);
        value(v);
    }

  private:
    void comma();
    void newlineIndent();

    std::ostream &os_;
    int indent_;
    int depth_ = 0;
    bool needComma_ = false;
    bool afterKey_ = false;
};

/** Parsed JSON value (object keys keep document order). */
struct JsonValue
{
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    /** Set when the number's text is a plain unsigned integer that
     *  fits 64 bits: its exact value (`number` holds the nearest
     *  double). */
    std::optional<std::uint64_t> exactU64;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    bool isObject() const { return type == Type::Object; }
    bool isArray() const { return type == Type::Array; }
    bool isNumber() const { return type == Type::Number; }
    bool isString() const { return type == Type::String; }

    /** Find a key in an object; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    /** Like find(), but fatal when the key is absent. */
    const JsonValue &at(const std::string &key) const;

    double asDouble() const;

    /**
     * The number as an unsigned 64-bit integer, exact for any integer
     * text up to 2^64-1. A number in other notation ("1e3", "5.0")
     * converts when its value is integral and in range.
     * @throws ConfigError on a negative, fractional or out-of-range
     *         value
     */
    std::uint64_t asU64() const;
    const std::string &asString() const;
};

/**
 * Parse a JSON document.
 * @param text the document
 * @param error when non-null, receives a message and the function
 *        returns a Null value on malformed input; when null,
 *        malformed input is fatal
 */
JsonValue parseJson(const std::string &text,
                    std::string *error = nullptr);

} // namespace pinte

#endif // PINTE_COMMON_JSON_HH
