#include "policy.hh"

#include "lhd.hh"
#include "policies.hh"

#include <algorithm>

#include "common/error.hh"
#include "common/invariant.hh"
#include "common/logging.hh"

namespace pinte
{

const char *
toString(ReplacementKind k)
{
    switch (k) {
      case ReplacementKind::Lru: return "LRU";
      case ReplacementKind::PseudoLru: return "pLRU";
      case ReplacementKind::Nmru: return "nMRU";
      case ReplacementKind::Rrip: return "RRIP";
      case ReplacementKind::Random: return "Random";
      case ReplacementKind::Drrip: return "DRRIP";
      case ReplacementKind::Lhd: return "LHD";
    }
    return "unknown";
}

ReplacementPolicy::ReplacementPolicy(unsigned num_sets, unsigned assoc)
    : numSets_(num_sets), assoc_(assoc)
{
    if (num_sets == 0 || assoc == 0)
        throw ConfigError("replacement policy needs sets > 0 and assoc > 0",
                          {"replacement", "", ""});
}

unsigned
ReplacementPolicy::wayAtRank(unsigned set, unsigned r) const
{
    // One bulk call instead of assoc per-way queries (assoc <= 64 is
    // a cache-level invariant, see Cache's constructor).
    std::uint8_t rs[64];
    ranks(set, rs);
    for (unsigned w = 0; w < assoc_; ++w)
        if (rs[w] == r)
            return w;
    panic("ReplacementPolicy rank() is not a permutation");
}

void
ReplacementPolicy::promoteLowest(unsigned set, unsigned k,
                                 std::uint8_t *order)
{
    for (unsigned i = 0; i < k; ++i) {
        const unsigned way = wayAtRank(set, 0);
        onHit(set, way);
        order[i] = static_cast<std::uint8_t>(way);
    }
}

void
ReplacementPolicy::auditSet(unsigned set) const
{
    // assoc <= 64 (enforced by Cache), so a bitmask covers every rank.
    std::uint64_t seen = 0;
    for (unsigned w = 0; w < assoc_; ++w) {
        const unsigned r = rank(set, w);
        if (r >= assoc_) {
            invariantFail(std::string("replacement:") + name(),
                          "rank " + std::to_string(r) +
                              " out of bounds (assoc " +
                              std::to_string(assoc_) + ")",
                          set, w);
        }
        if (seen & (std::uint64_t(1) << r)) {
            invariantFail(std::string("replacement:") + name(),
                          "duplicate rank " + std::to_string(r) +
                              " — metadata is not a permutation",
                          set, w);
        }
        seen |= std::uint64_t(1) << r;
    }

    // The bulk fast path must describe the same permutation as the
    // per-way queries: the cache's masked allocation and PInTE's
    // BLOCK-SELECT walk read ranks(), while the reuse histograms read
    // rank(), and a divergent override would skew one against the
    // other without ever tripping the permutation check above.
    std::uint8_t bulk[64];
    ranks(set, bulk);
    for (unsigned w = 0; w < assoc_; ++w) {
        const unsigned r = rank(set, w);
        if (bulk[w] != r) {
            invariantFail(std::string("replacement:") + name(),
                          "bulk ranks() reports rank " +
                              std::to_string(bulk[w]) + " but rank() " +
                              std::to_string(r),
                          set, w);
        }
    }
}

void
ReplacementPolicy::ranks(unsigned set, std::uint8_t *out) const
{
    for (unsigned w = 0; w < assoc_; ++w)
        out[w] = static_cast<std::uint8_t>(rank(set, w));
}

std::unique_ptr<ReplacementPolicy>
makeReplacementPolicy(ReplacementKind kind, unsigned num_sets,
                      unsigned assoc, std::uint64_t seed)
{
    switch (kind) {
      case ReplacementKind::Lru:
        return std::make_unique<LruPolicy>(num_sets, assoc);
      case ReplacementKind::PseudoLru:
        return std::make_unique<PseudoLruPolicy>(num_sets, assoc);
      case ReplacementKind::Nmru:
        return std::make_unique<NmruPolicy>(num_sets, assoc, seed);
      case ReplacementKind::Rrip:
        return std::make_unique<RripPolicy>(num_sets, assoc);
      case ReplacementKind::Random:
        return std::make_unique<RandomPolicy>(num_sets, assoc, seed);
      case ReplacementKind::Drrip:
        return std::make_unique<DrripPolicy>(num_sets, assoc, seed);
      case ReplacementKind::Lhd:
        return std::make_unique<LhdPolicy>(num_sets, assoc, seed);
    }
    return std::make_unique<LruPolicy>(num_sets, assoc);
}

} // namespace pinte
