/**
 * @file
 * String parsing of machine/experiment options.
 *
 * Shared by the pintesim command-line driver and anything else that
 * configures the simulator from text (scripts, config files). Parsers
 * are strict: unknown values are fatal with the list of alternatives.
 */

#ifndef PINTE_SIM_OPTIONS_HH
#define PINTE_SIM_OPTIONS_HH

#include <string>
#include <vector>

#include "branch/predictor.hh"
#include "cache/cache.hh"
#include "replacement/policy.hh"
#include "sim/experiment.hh"
#include "sim/machine.hh"
#include "sim/sink.hh"

namespace pinte
{

/**
 * One row of the replacement-policy CLI table: the single source of
 * truth tying ReplacementKind to its command-line spellings. The
 * parser, the valid-values list in parse errors, and usage text all
 * derive from it, and tests/test_replacement.cc round-trips every
 * enumerator through it so a new policy can never half-register.
 */
struct ReplacementCliEntry
{
    ReplacementKind kind;
    const char *canonical; //!< the spelling help text advertises
    const char *alias;     //!< accepted second spelling, or nullptr
};

/** The CLI table — exactly one entry per ReplacementKind enumerator. */
const std::vector<ReplacementCliEntry> &replacementCliTable();

/** Canonical CLI spelling of `kind` (inverse of parseReplacement). */
const char *replacementCliName(ReplacementKind kind);

/** Comma-separated canonical spellings, for errors and usage text. */
std::string replacementValidValues();

/**
 * Parse "lru", "plru", "nmru", "rrip", "random", "drrip", "lhd"
 * (case-insensitive; see replacementCliTable() for aliases). Unknown
 * values are fatal with the valid-values list.
 */
ReplacementKind parseReplacement(const std::string &s);

/**
 * Parse a comma-separated list of replacement policies for the
 * --sweep policy grid (e.g. "lru,rrip,drrip,lhd"). Rejects empty
 * items and duplicate policies.
 */
std::vector<ReplacementKind> parseReplacementList(const std::string &s);

/** Parse "non"/"non-inclusive", "inc"/"inclusive", "exc"/"exclusive". */
InclusionPolicy parseInclusion(const std::string &s);

/** Parse "bimodal", "gshare", "perceptron", "hashed"/"hashed-perceptron". */
BranchPredictorKind parsePredictor(const std::string &s);

/** Parse "llc", "l2", "l2+llc". */
PInteScope parsePInteScope(const std::string &s);

/**
 * Parse a probability in [0, 1]; fatal on malformed input or
 * out-of-range values.
 */
double parseProbability(const std::string &s);

/** Parse "table", "json", "csv" (case-insensitive). */
ReportFormat parseReportFormat(const std::string &s);

/**
 * Parse a non-negative integer for option `flag`; fatal (with the
 * offending text) on anything else. Unlike std::stoull this never
 * throws, accepts no sign/trailing garbage, and names the option.
 */
std::uint64_t parseCount(const std::string &flag, const std::string &s);

/** parseCount() for a value held in 32 bits (--jobs): anything wider
 *  is fatal rather than silently wrapped. */
std::uint32_t parseCount32(const std::string &flag, const std::string &s);

/** Parse a finite non-negative real for option `flag`; fatal otherwise. */
double parseReal(const std::string &flag, const std::string &s);

/**
 * Parse a watchdog timeout in whole seconds for option `flag`. A
 * timeout of 0 is rejected (it would fire on the first heartbeat, not
 * disable the watchdog — omit the flag to disable); so is anything
 * non-integer or negative. Returns the timeout, always >= 1.
 */
std::uint64_t parseTimeout(const std::string &flag, const std::string &s);

/**
 * Parse a paranoid-mode sweep interval: "" (bare --paranoid) and "1"
 * select the default interval, otherwise the value is the number of
 * cycles between full-machine audits. 0 is rejected — omit the flag
 * to leave paranoid mode off.
 */
std::uint32_t parseParanoidInterval(const std::string &flag,
                                    const std::string &s);

/**
 * Parse a campaign execution backend: "thread" (in-process Runner
 * pool, the default) or "process" (fork-isolated workers,
 * sim/worker_proc.hh). Case-insensitive; anything else is fatal with
 * the list of valid backends.
 */
IsolationMode parseIsolation(const std::string &s);

/**
 * Parse a --max-retries attempt budget. 0 is rejected — every cell
 * needs at least one attempt, and "never retry" is --max-retries=1 —
 * as is anything negative or non-integer. Returns the budget, >= 1.
 */
std::uint32_t parseRetries(const std::string &flag, const std::string &s);

} // namespace pinte

#endif // PINTE_SIM_OPTIONS_HH
