#include "options.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "common/error.hh"
#include "common/invariant.hh"

namespace pinte
{

namespace
{

std::string
lower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return s;
}

} // namespace

const std::vector<ReplacementCliEntry> &
replacementCliTable()
{
    static const std::vector<ReplacementCliEntry> table = {
        {ReplacementKind::Lru, "lru", nullptr},
        {ReplacementKind::PseudoLru, "plru", "pseudo-lru"},
        {ReplacementKind::Nmru, "nmru", nullptr},
        {ReplacementKind::Rrip, "rrip", "srrip"},
        {ReplacementKind::Random, "random", nullptr},
        {ReplacementKind::Drrip, "drrip", nullptr},
        {ReplacementKind::Lhd, "lhd", nullptr},
    };
    static_assert(numReplacementKinds == 7,
                  "new ReplacementKind: add its CLI spelling here");
    return table;
}

const char *
replacementCliName(ReplacementKind kind)
{
    for (const ReplacementCliEntry &e : replacementCliTable())
        if (e.kind == kind)
            return e.canonical;
    return "unknown";
}

std::string
replacementValidValues()
{
    std::string out;
    for (const ReplacementCliEntry &e : replacementCliTable()) {
        if (!out.empty())
            out += ", ";
        out += e.canonical;
    }
    return out;
}

ReplacementKind
parseReplacement(const std::string &s)
{
    const std::string v = lower(s);
    for (const ReplacementCliEntry &e : replacementCliTable())
        if (v == e.canonical || (e.alias && v == e.alias))
            return e.kind;
    throw ConfigError("unknown replacement policy '" + s + "' (" +
                          replacementValidValues() + ")",
                      {"options", "", s});
}

std::vector<ReplacementKind>
parseReplacementList(const std::string &s)
{
    std::vector<ReplacementKind> out;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        const std::size_t comma = s.find(',', pos);
        const std::string item =
            s.substr(pos, comma == std::string::npos ? std::string::npos
                                                     : comma - pos);
        if (item.empty())
            throw ConfigError("empty policy in list '" + s + "' (" +
                                  replacementValidValues() + ")",
                              {"options", "--policies", s});
        const ReplacementKind k = parseReplacement(item);
        for (const ReplacementKind seen : out)
            if (seen == k)
                throw ConfigError("duplicate policy '" + item +
                                      "' in list '" + s + "'",
                                  {"options", "--policies", s});
        out.push_back(k);
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return out;
}

InclusionPolicy
parseInclusion(const std::string &s)
{
    const std::string v = lower(s);
    if (v == "non" || v == "non-inclusive" || v == "no")
        return InclusionPolicy::NonInclusive;
    if (v == "inc" || v == "inclusive" || v == "in")
        return InclusionPolicy::Inclusive;
    if (v == "exc" || v == "exclusive" || v == "ex")
        return InclusionPolicy::Exclusive;
    throw ConfigError("unknown inclusion policy '" + s +
                          "' (non, inclusive, exclusive)",
                      {"options", "", s});
}

BranchPredictorKind
parsePredictor(const std::string &s)
{
    const std::string v = lower(s);
    if (v == "bimodal")
        return BranchPredictorKind::Bimodal;
    if (v == "gshare")
        return BranchPredictorKind::GShare;
    if (v == "perceptron")
        return BranchPredictorKind::Perceptron;
    if (v == "hashed" || v == "hashed-perceptron")
        return BranchPredictorKind::HashedPerceptron;
    if (v == "always-taken")
        return BranchPredictorKind::AlwaysTaken;
    throw ConfigError("unknown branch predictor '" + s +
                          "' (bimodal, gshare, perceptron, "
                          "hashed-perceptron)",
                      {"options", "", s});
}

PInteScope
parsePInteScope(const std::string &s)
{
    const std::string v = lower(s);
    if (v == "llc" || v == "llc-only")
        return PInteScope::LlcOnly;
    if (v == "l2" || v == "l2-only")
        return PInteScope::L2Only;
    if (v == "l2+llc" || v == "l2llc" || v == "both")
        return PInteScope::L2AndLlc;
    throw ConfigError("unknown PInTE scope '" + s +
                          "' (llc, l2, l2+llc)",
                      {"options", "", s});
}

double
parseProbability(const std::string &s)
{
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || (end && *end != '\0'))
        throw ConfigError("malformed probability: '" + s + "'",
                          {"options", "", s});
    if (v < 0.0 || v > 1.0)
        throw ConfigError("probability out of [0, 1]: '" + s + "'",
                          {"options", "", s});
    return v;
}

ReportFormat
parseReportFormat(const std::string &s)
{
    const std::string v = lower(s);
    if (v == "table" || v == "text")
        return ReportFormat::Table;
    if (v == "json")
        return ReportFormat::Json;
    if (v == "csv")
        return ReportFormat::Csv;
    throw ConfigError("unknown report format '" + s +
                          "' (table, json, csv)",
                      {"options", "", s});
}

std::uint64_t
parseCount(const std::string &flag, const std::string &s)
{
    if (s.empty() || s.find_first_not_of("0123456789") !=
                         std::string::npos)
        throw ConfigError(flag + " expects a non-negative integer, got '" +
                              s + "'",
                          {"options", flag, s});
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (errno == ERANGE)
        throw ConfigError(flag + " value out of range: '" + s + "'",
                          {"options", flag, s});
    return v;
}

std::uint32_t
parseCount32(const std::string &flag, const std::string &s)
{
    const std::uint64_t v = parseCount(flag, s);
    if (v > ~std::uint32_t(0))
        throw ConfigError(flag + " value out of range: '" + s + "'",
                          {"options", flag, s});
    return static_cast<std::uint32_t>(v);
}

double
parseReal(const std::string &flag, const std::string &s)
{
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (s.empty() || end == s.c_str() || *end != '\0' ||
        !std::isfinite(v))
        throw ConfigError(flag + " expects a number, got '" + s + "'",
                          {"options", flag, s});
    if (v < 0.0)
        throw ConfigError(flag + " must be non-negative, got '" + s + "'",
                          {"options", flag, s});
    return v;
}

std::uint64_t
parseTimeout(const std::string &flag, const std::string &s)
{
    const std::uint64_t v = parseCount(flag, s);
    if (v == 0)
        throw ConfigError(flag + " must be a positive number of seconds "
                              "(got '" + s + "'); omit the flag to "
                              "disable the watchdog",
                          {"options", flag, s});
    return v;
}

std::uint32_t
parseParanoidInterval(const std::string &flag, const std::string &s)
{
    if (s.empty())
        return Paranoid::defaultInterval;
    const std::uint64_t v = parseCount(flag, s);
    if (v == 0)
        throw ConfigError(flag + " expects a positive cycle interval "
                              "(got '" + s + "'); omit the flag to "
                              "leave paranoid mode off",
                          {"options", flag, s});
    if (v == 1)
        return Paranoid::defaultInterval;
    if (v > ~std::uint32_t(0))
        throw ConfigError(flag + " interval out of range: '" + s + "'",
                          {"options", flag, s});
    return static_cast<std::uint32_t>(v);
}

IsolationMode
parseIsolation(const std::string &s)
{
    const std::string v = lower(s);
    if (v == "thread")
        return IsolationMode::Thread;
    if (v == "process" || v == "proc")
        return IsolationMode::Process;
    if (v == "spool")
        return IsolationMode::Spool;
    throw ConfigError("unknown isolation backend '" + s +
                          "' (thread, process, spool)",
                      {"options", "--isolation", s});
}

std::uint32_t
parseRetries(const std::string &flag, const std::string &s)
{
    const std::uint32_t v = parseCount32(flag, s);
    if (v == 0)
        throw ConfigError(flag + " must be a positive attempt budget "
                              "(got '" + s + "'); a cell needs at "
                              "least one attempt, and --max-retries=1 "
                              "means never retry",
                          {"options", flag, s});
    return v;
}

} // namespace pinte
