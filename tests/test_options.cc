/**
 * @file
 * Tests for the string option parsers backing the pintesim CLI and
 * the benches' BenchOptions.
 */

#include <gtest/gtest.h>

#include "expect_error.hh"

#include <set>
#include <string>

#include "sim/options.hh"

#include "../bench/bench_common.hh"

using namespace pinte;

TEST(ParseReplacement, AcceptsAllNames)
{
    EXPECT_EQ(parseReplacement("lru"), ReplacementKind::Lru);
    EXPECT_EQ(parseReplacement("LRU"), ReplacementKind::Lru);
    EXPECT_EQ(parseReplacement("plru"), ReplacementKind::PseudoLru);
    EXPECT_EQ(parseReplacement("pseudo-lru"),
              ReplacementKind::PseudoLru);
    EXPECT_EQ(parseReplacement("nmru"), ReplacementKind::Nmru);
    EXPECT_EQ(parseReplacement("rrip"), ReplacementKind::Rrip);
    EXPECT_EQ(parseReplacement("srrip"), ReplacementKind::Rrip);
    EXPECT_EQ(parseReplacement("random"), ReplacementKind::Random);
}

TEST(ParseReplacement, AcceptsNewPolicies)
{
    EXPECT_EQ(parseReplacement("drrip"), ReplacementKind::Drrip);
    EXPECT_EQ(parseReplacement("lhd"), ReplacementKind::Lhd);
    EXPECT_EQ(parseReplacement("LHD"), ReplacementKind::Lhd);
}

TEST(ParseReplacement, RejectsUnknown)
{
    EXPECT_ERROR(parseReplacement("mru"), ConfigError, "unknown replacement");
}

TEST(ParseReplacement, ErrorListsEveryValidValue)
{
    // The valid-values list in the error message derives from the CLI
    // table; every canonical spelling must appear.
    try {
        parseReplacement("bogus");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        const std::string msg = e.what();
        for (const ReplacementCliEntry &entry : replacementCliTable())
            EXPECT_NE(msg.find(entry.canonical), std::string::npos)
                << "missing " << entry.canonical << " in: " << msg;
    }
}

TEST(ReplacementRegistry, EveryKindRoundTripsThroughEveryTable)
{
    // Exhaustiveness guard: a new ReplacementKind must register in the
    // CLI table, the factory, toString and the policy's own name() in
    // lockstep. The static_assert in options.cc forces the table edit;
    // this test proves the registrations agree with each other.
    const auto &table = replacementCliTable();
    ASSERT_EQ(table.size(), numReplacementKinds);
    std::set<ReplacementKind> kinds_seen;
    std::set<std::string> spellings_seen;
    for (const ReplacementCliEntry &e : table) {
        EXPECT_TRUE(kinds_seen.insert(e.kind).second)
            << "duplicate table entry for " << toString(e.kind);
        ASSERT_NE(e.canonical, nullptr);
        EXPECT_TRUE(spellings_seen.insert(e.canonical).second);
        EXPECT_EQ(parseReplacement(e.canonical), e.kind);
        EXPECT_STREQ(replacementCliName(e.kind), e.canonical);
        if (e.alias) {
            EXPECT_TRUE(spellings_seen.insert(e.alias).second);
            EXPECT_EQ(parseReplacement(e.alias), e.kind);
        }
        // toString must be a real name, and the factory-built policy
        // must report it (PseudoLru needs power-of-two assoc, so the
        // shared geometry here is 4x4).
        EXPECT_STRNE(toString(e.kind), "unknown");
        const auto p = makeReplacementPolicy(e.kind, 4, 4, 1);
        ASSERT_NE(p, nullptr);
        EXPECT_STREQ(p->name(), toString(e.kind));
    }
    EXPECT_EQ(kinds_seen.size(), numReplacementKinds);
}

TEST(ParseReplacementList, SplitsCommaSeparatedPolicies)
{
    const auto v = parseReplacementList("lru,rrip,drrip,lhd");
    ASSERT_EQ(v.size(), 4u);
    EXPECT_EQ(v[0], ReplacementKind::Lru);
    EXPECT_EQ(v[1], ReplacementKind::Rrip);
    EXPECT_EQ(v[2], ReplacementKind::Drrip);
    EXPECT_EQ(v[3], ReplacementKind::Lhd);
}

TEST(ParseReplacementList, SingleItemAndAliases)
{
    const auto v = parseReplacementList("srrip");
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0], ReplacementKind::Rrip);
}

TEST(ParseReplacementList, RejectsEmptyItemsAndDuplicates)
{
    EXPECT_ERROR(parseReplacementList(""), ConfigError, "empty policy");
    EXPECT_ERROR(parseReplacementList("lru,,lhd"), ConfigError,
                 "empty policy");
    EXPECT_ERROR(parseReplacementList("lru,lhd,"), ConfigError,
                 "empty policy");
    EXPECT_ERROR(parseReplacementList("lru,lru"), ConfigError,
                 "duplicate policy");
    // An alias duplicates its canonical spelling: same kind.
    EXPECT_ERROR(parseReplacementList("rrip,srrip"), ConfigError,
                 "duplicate policy");
    EXPECT_ERROR(parseReplacementList("lru,bogus"), ConfigError,
                 "unknown replacement");
}

TEST(ParseInclusion, AcceptsAllNames)
{
    EXPECT_EQ(parseInclusion("non"), InclusionPolicy::NonInclusive);
    EXPECT_EQ(parseInclusion("no"), InclusionPolicy::NonInclusive);
    EXPECT_EQ(parseInclusion("non-inclusive"),
              InclusionPolicy::NonInclusive);
    EXPECT_EQ(parseInclusion("inclusive"), InclusionPolicy::Inclusive);
    EXPECT_EQ(parseInclusion("in"), InclusionPolicy::Inclusive);
    EXPECT_EQ(parseInclusion("exclusive"), InclusionPolicy::Exclusive);
    EXPECT_EQ(parseInclusion("EX"), InclusionPolicy::Exclusive);
}

TEST(ParseInclusion, RejectsUnknown)
{
    EXPECT_ERROR(parseInclusion("semi"), ConfigError, "unknown inclusion");
}

TEST(ParsePredictor, AcceptsAllNames)
{
    EXPECT_EQ(parsePredictor("bimodal"), BranchPredictorKind::Bimodal);
    EXPECT_EQ(parsePredictor("gshare"), BranchPredictorKind::GShare);
    EXPECT_EQ(parsePredictor("perceptron"),
              BranchPredictorKind::Perceptron);
    EXPECT_EQ(parsePredictor("hashed"),
              BranchPredictorKind::HashedPerceptron);
    EXPECT_EQ(parsePredictor("hashed-perceptron"),
              BranchPredictorKind::HashedPerceptron);
    EXPECT_EQ(parsePredictor("always-taken"),
              BranchPredictorKind::AlwaysTaken);
}

TEST(ParsePredictor, RejectsUnknown)
{
    EXPECT_ERROR(parsePredictor("tage"), ConfigError,
                 "unknown branch predictor");
}

TEST(ParsePInteScope, AcceptsAllNames)
{
    EXPECT_EQ(parsePInteScope("llc"), PInteScope::LlcOnly);
    EXPECT_EQ(parsePInteScope("llc-only"), PInteScope::LlcOnly);
    EXPECT_EQ(parsePInteScope("l2"), PInteScope::L2Only);
    EXPECT_EQ(parsePInteScope("l2+llc"), PInteScope::L2AndLlc);
    EXPECT_EQ(parsePInteScope("both"), PInteScope::L2AndLlc);
}

TEST(ParsePInteScope, RejectsUnknown)
{
    EXPECT_ERROR(parsePInteScope("l3"), ConfigError, "unknown PInTE scope");
}

TEST(ParseProbability, AcceptsRange)
{
    EXPECT_DOUBLE_EQ(parseProbability("0"), 0.0);
    EXPECT_DOUBLE_EQ(parseProbability("1"), 1.0);
    EXPECT_DOUBLE_EQ(parseProbability("0.25"), 0.25);
    EXPECT_DOUBLE_EQ(parseProbability("1e-3"), 0.001);
}

TEST(ParseProbability, RejectsOutOfRange)
{
    EXPECT_ERROR(parseProbability("1.5"), ConfigError, "out of");
    EXPECT_ERROR(parseProbability("-0.1"), ConfigError, "out of");
}

TEST(ParseProbability, RejectsMalformed)
{
    EXPECT_ERROR(parseProbability("abc"), ConfigError, "malformed");
    EXPECT_ERROR(parseProbability("0.5x"), ConfigError, "malformed");
    EXPECT_ERROR(parseProbability(""), ConfigError, "malformed");
}

TEST(ParseIsolation, AcceptsAllBackends)
{
    EXPECT_EQ(parseIsolation("thread"), IsolationMode::Thread);
    EXPECT_EQ(parseIsolation("THREAD"), IsolationMode::Thread);
    EXPECT_EQ(parseIsolation("process"), IsolationMode::Process);
    EXPECT_EQ(parseIsolation("proc"), IsolationMode::Process);
    EXPECT_EQ(parseIsolation("Process"), IsolationMode::Process);
    EXPECT_EQ(parseIsolation("spool"), IsolationMode::Spool);
    EXPECT_EQ(parseIsolation("Spool"), IsolationMode::Spool);
}

TEST(ParseIsolation, RejectsUnknownWithValidValues)
{
    EXPECT_ERROR(parseIsolation("container"), ConfigError,
                 "unknown isolation backend");
    // The diagnostic must list the valid backends.
    EXPECT_ERROR(parseIsolation("container"), ConfigError,
                 "(thread, process, spool)");
    EXPECT_ERROR(parseIsolation(""), ConfigError,
                 "unknown isolation backend");
}

TEST(ParseRetries, AcceptsPositiveBudgets)
{
    EXPECT_EQ(parseRetries("--max-retries", "1"), 1u);
    EXPECT_EQ(parseRetries("--max-retries", "3"), 3u);
    EXPECT_EQ(parseRetries("--max-retries", "10"), 10u);
}

TEST(ParseRetries, RejectsZero)
{
    // A cell needs at least one attempt; "never retry" is spelled
    // --max-retries=1, not 0.
    EXPECT_ERROR(parseRetries("--max-retries", "0"), ConfigError,
                 "positive attempt budget");
}

TEST(ParseRetries, RejectsNegativeAndMalformed)
{
    EXPECT_ERROR(parseRetries("--max-retries", "-1"), ConfigError,
                 "non-negative integer");
    EXPECT_ERROR(parseRetries("--max-retries", "two"), ConfigError,
                 "non-negative integer");
    EXPECT_ERROR(parseRetries("--max-retries", ""), ConfigError,
                 "non-negative integer");
    EXPECT_ERROR(parseRetries("--max-retries", "99999999999999999999"),
                 ConfigError, "out of range");
}

TEST(ParseCount32, AcceptsTheWholeUnsignedRange)
{
    EXPECT_EQ(parseCount32("--jobs", "0"), 0u);
    EXPECT_EQ(parseCount32("--jobs", "4"), 4u);
    EXPECT_EQ(parseCount32("--jobs", "4294967295"), 4294967295u);
}

TEST(ParseCount32, RejectsWiderValuesNamingTheFlag)
{
    // 2^32 + 2 once wrapped to 2 workers.
    EXPECT_ERROR(parseCount32("--jobs", "4294967298"), ConfigError,
                 "--jobs value out of range");
    EXPECT_ERROR(parseCount32("--jobs", "4294967296"), ConfigError,
                 "--jobs value out of range");
    EXPECT_ERROR(parseCount32("--jobs", "-1"), ConfigError,
                 "non-negative integer");
}

TEST(BenchOptions, RejectsJobsWiderThan32Bits)
{
    char prog[] = "bench", jobs[] = "--jobs=4294967298";
    char *argv[] = {prog, jobs};
    EXPECT_ERROR(bench::BenchOptions::parse(2, argv), ConfigError,
                 "--jobs value out of range");
    char ok[] = "--jobs=3";
    argv[1] = ok;
    EXPECT_EQ(bench::BenchOptions::parse(2, argv).jobs, 3u);
}

TEST(IsolationMode, ToStringNames)
{
    EXPECT_STREQ(toString(IsolationMode::Thread), "thread");
    EXPECT_STREQ(toString(IsolationMode::Process), "process");
}
