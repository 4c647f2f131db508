/**
 * @file
 * Concrete replacement policies, exposed as `final` classes.
 *
 * These used to live in an anonymous namespace inside policy.cc, which
 * forced every per-access policy call in the cache (onHit on each hit,
 * rank() for the reuse histogram, victim() on each fill) through a
 * virtual dispatch. The cache's hot path now switches once on
 * ReplacementKind and calls the concrete class directly; `final` lets
 * the compiler devirtualize and inline those calls. Unknown kinds (or
 * externally supplied policies) still work through the virtual base.
 *
 * LRU here is the *flattened* implementation: instead of per-way
 * timestamps (rank() = O(assoc) compare loop on every hit) it stores
 * the rank permutation directly, one byte per way packed into 64-bit
 * words (promote = a couple of SWAR ops per 8 ways), plus a per-set
 * bitmask of "fresh" ways (never touched, or invalidated — the ways a
 * timestamp implementation would hold at stamp 0). The observable
 * semantics are bit-identical to timestamp LRU:
 *
 *  - fresh ways occupy the lowest ranks, ordered by way index (stamp
 *    ties broken by index);
 *  - touch moves a way to rank assoc-1 and closes the gap beneath it
 *    (a branchless byte sweep);
 *  - invalidate re-inserts the way among the fresh group at the
 *    position its index dictates;
 *  - victim is the rank-0 way;
 *  - promoteLowest (PInTE's k-block PROMOTE run) is k touches of the
 *    rank-0 way done as one rotation of the bottom k ranks.
 *
 * tests/test_replacement.cc cross-checks this against a reference
 * timestamp implementation over randomized operation sequences.
 */

#ifndef PINTE_REPLACEMENT_POLICIES_HH
#define PINTE_REPLACEMENT_POLICIES_HH

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/error.hh"
#include "common/invariant.hh"
#include "common/logging.hh"
#include "replacement/policy.hh"

namespace pinte
{

namespace rrip_detail
{

/**
 * Single-pass rank permutation over an RRPV row (shared by RRIP and
 * DRRIP): a counting sort by RRPV value. Equivalent to the per-way
 * definition rank(w) = #{w' : rrpv[w'] > rrpv[w]} + #{w' < w :
 * rrpv[w'] == rrpv[w]} — start[v] counts the ways in strictly more
 * distant RRPV bins, and the ascending way scan hands out the
 * equal-RRPV slots in way-index order, matching the left-to-right
 * victim scan's tiebreak. O(assoc + maxRrpv) instead of the O(assoc²)
 * the base-class per-way fallback would cost per bulk query.
 */
inline void
rrpvRanks(const std::uint8_t *rrpv, unsigned assoc,
          std::uint8_t max_rrpv, std::uint8_t *out)
{
    unsigned cnt[16] = {};
    for (unsigned w = 0; w < assoc; ++w)
        ++cnt[rrpv[w]];
    unsigned start[16];
    unsigned higher = 0;
    for (int v = max_rrpv; v >= 0; --v) {
        start[v] = higher;
        higher += cnt[v];
    }
    for (unsigned w = 0; w < assoc; ++w)
        out[w] = static_cast<std::uint8_t>(start[rrpv[w]]++);
}

} // namespace rrip_detail

/** True LRU as a flat rank permutation (one byte per way). */
class LruPolicy final : public ReplacementPolicy
{
  public:
    LruPolicy(unsigned num_sets, unsigned assoc)
        : ReplacementPolicy(num_sets, assoc),
          words_((assoc + 7) / 8),
          rank_(static_cast<std::size_t>(num_sets) * words_, 0),
          fresh_(num_sets,
                 assoc >= 64 ? ~0ull : ((1ull << assoc) - 1))
    {
        if (assoc > 64)
            throw ConfigError("LRU supports at most 64 ways",
                              {"replacement", "", std::to_string(assoc)});
        for (unsigned s = 0; s < num_sets; ++s)
            for (unsigned w = 0; w < assoc; ++w)
                setByte(row(s), w, static_cast<std::uint8_t>(w));
        // Unused tail lanes stay 0 forever: the SWAR decrement in
        // touch() never selects a 0 byte (0 > old_r is false) and no
        // other op writes outside lanes [0, assoc). The victim scan
        // masks them out explicitly.
        laneMask_.assign(words_, ~0ull);
        if (assoc % 8)
            laneMask_[words_ - 1] = (1ull << (assoc % 8) * 8) - 1;
    }

    unsigned
    victim(unsigned set) override
    {
        // Find the rank-0 way: SWAR zero-byte scan. Exactly one zero
        // byte exists among the valid lanes (ranks are a permutation);
        // unused lanes are forced to 0xff, which the detector skips
        // (0xff - 1 produces no borrow and ~0xff clears the flag bit).
        const std::uint64_t *r = row(set);
        for (unsigned i = 0; i < words_; ++i) {
            const std::uint64_t x = r[i] | ~laneMask_[i];
            const std::uint64_t z = (x - kOnes) & ~x & kHigh;
            if (z)
                return i * 8 +
                       static_cast<unsigned>(std::countr_zero(z)) / 8;
        }
        panic("LRU rank rows lost their rank-0 way");
    }

    void onFill(unsigned set, unsigned way) override { touch(set, way); }
    void onHit(unsigned set, unsigned way) override { touch(set, way); }

    void
    onInvalidate(unsigned set, unsigned way) override
    {
        // Invalid blocks should be re-victimized first: the way joins
        // the fresh group at the slot its index dictates, and every
        // rank in [new, old) shifts up by one to make room. Scalar
        // byte walk — this runs on back-invalidations and exclusive
        // hand-ups, not on the per-miss refill sequence (Cache::evict
        // skips it when a fill of the same way follows immediately).
        const std::uint64_t bit = 1ull << way;
        if (fresh_[set] & bit)
            return; // already at stamp 0 in timestamp terms: no-op
        std::uint64_t *r = row(set);
        const std::uint8_t old_r = getByte(r, way);
        const std::uint8_t new_r = static_cast<std::uint8_t>(
            std::popcount(fresh_[set] & (bit - 1)));
        for (unsigned w = 0; w < assoc_; ++w) {
            const std::uint8_t b = getByte(r, w);
            if (b >= new_r && b < old_r)
                setByte(r, w, static_cast<std::uint8_t>(b + 1));
        }
        setByte(r, way, new_r);
        fresh_[set] |= bit;
    }

    unsigned
    rank(unsigned set, unsigned way) const override
    {
        return getByte(row(set), way);
    }

    void
    ranks(unsigned set, std::uint8_t *out) const override
    {
        const std::uint64_t *r = row(set);
        for (unsigned w = 0; w < assoc_; ++w)
            out[w] = getByte(r, w);
    }

    const char *name() const override { return "LRU"; }

    void
    auditSet(unsigned set) const override
    {
        ReplacementPolicy::auditSet(set);
        // Fresh ways must occupy the lowest ranks in way-index order —
        // the property victim() and the timestamp equivalence rely on.
        const std::uint64_t *r = row(set);
        unsigned expect = 0;
        for (unsigned w = 0; w < assoc_; ++w) {
            if (!((fresh_[set] >> w) & 1))
                continue;
            if (getByte(r, w) != expect)
                invariantFail("replacement:LRU",
                              "fresh way holds rank " +
                                  std::to_string(getByte(r, w)) +
                                  ", expected " + std::to_string(expect),
                              set, w);
            ++expect;
        }
        for (unsigned i = 0; i < words_; ++i)
            if (r[i] & ~laneMask_[i])
                invariantFail("replacement:LRU",
                              "rank byte set in an unused lane", set);
    }

    void
    saveState(SnapshotWriter &w) const override
    {
        w.putVec64(rank_);
        w.putVec64(fresh_);
    }

    void
    loadState(SnapshotReader &r) override
    {
        const std::string comp = "replacement:LRU";
        r.getVec64Into(rank_, comp);
        r.getVec64Into(fresh_, comp);
        // victim() needs every row to hold a permutation of the ranks,
        // with the unused tail lanes clear.
        for (unsigned s = 0; s < numSets_; ++s) {
            const std::uint64_t *rr = row(s);
            std::uint64_t seen = 0;
            for (unsigned w = 0; w < assoc_; ++w) {
                const unsigned b = getByte(rr, w);
                if (b >= assoc_ || ((seen >> b) & 1))
                    throw SimError("checkpoint LRU ranks are not a "
                                   "permutation",
                                   {comp, "", std::to_string(s)});
                seen |= 1ull << b;
            }
            for (unsigned i = 0; i < words_; ++i)
                if (rr[i] & ~laneMask_[i])
                    throw SimError("checkpoint LRU rank in an unused lane",
                                   {comp, "", std::to_string(s)});
        }
    }

    /**
     * Promote (set, way) to the MRU end (rank assoc-1): decrement
     * every rank above the way's old rank, then write assoc-1 into
     * its lane. The decrement is SWAR: ranks are < 64, so per byte
     * `b + (0x7f - old_r)` carries into bit 7 exactly when b > old_r,
     * and the sum (<= 63 + 127) never carries across a lane.
     */
    void
    touch(unsigned set, unsigned way)
    {
        std::uint64_t *r = row(set);
        const unsigned k = way >> 3;
        const unsigned sh = (way & 7) * 8;
        const std::uint64_t old_r = (r[k] >> sh) & 0xff;
        const std::uint64_t bias = (0x7f - old_r) * kOnes;
        for (unsigned i = 0; i < words_; ++i)
            r[i] -= ((r[i] + bias) & kHigh) >> 7;
        r[k] = (r[k] & ~(0xffull << sh)) |
               (std::uint64_t(assoc_ - 1) << sh);
        fresh_[set] &= ~(1ull << way);
    }

    /**
     * k touch()es of the rank-0 way in one pass. Each touch moves the
     * current rank-0 way to the top and lowers every other rank by
     * one, so after k of them the way at original rank i < k sits at
     * assoc-k+i and a way at rank j >= k at j-k: rank b becomes
     * (b - k) mod assoc. SWAR per byte (ranks <= 63, k <= 64):
     * `b + (0x80 - k)` clears bit 7 exactly when b < k without
     * carrying across lanes; those lanes gain assoc, then every valid
     * lane loses k, so no lane ever borrows and unused lanes stay 0.
     */
    void
    promoteLowest(unsigned set, unsigned k, std::uint8_t *order) override
    {
        if (k == 0)
            return;
        std::uint64_t *r = row(set);
        const std::uint64_t bias = (0x80 - k) * kOnes;
        std::uint64_t promoted = 0;
        for (unsigned i = 0; i < words_; ++i) {
            const std::uint64_t x = r[i];
            const std::uint64_t low =
                (~(x + bias) & kHigh & laneMask_[i]) >> 7;
            for (std::uint64_t m = low; m; m &= m - 1) {
                const unsigned way =
                    i * 8 + static_cast<unsigned>(std::countr_zero(m)) / 8;
                order[getByte(r, way)] = static_cast<std::uint8_t>(way);
                promoted |= 1ull << way;
            }
            r[i] = x + low * assoc_ - (kOnes & laneMask_[i]) * k;
        }
        fresh_[set] &= ~promoted;
    }

  private:
    static constexpr std::uint64_t kOnes = 0x0101010101010101ull;
    static constexpr std::uint64_t kHigh = 0x8080808080808080ull;

    std::uint64_t *row(unsigned s)
    { return rank_.data() + std::size_t(s) * words_; }
    const std::uint64_t *row(unsigned s) const
    { return rank_.data() + std::size_t(s) * words_; }

    static std::uint8_t
    getByte(const std::uint64_t *r, unsigned w)
    {
        return static_cast<std::uint8_t>(r[w >> 3] >> ((w & 7) * 8));
    }

    static void
    setByte(std::uint64_t *r, unsigned w, std::uint8_t v)
    {
        const unsigned sh = (w & 7) * 8;
        r[w >> 3] = (r[w >> 3] & ~(0xffull << sh)) |
                    (std::uint64_t(v) << sh);
    }

    unsigned words_; //!< 64-bit words per set (8 rank bytes each)
    std::vector<std::uint64_t> rank_;
    std::vector<std::uint64_t> fresh_;
    std::vector<std::uint64_t> laneMask_; //!< valid-lane bytes per word
};

/**
 * Tree pseudo-LRU. Each set keeps assoc-1 tree bits; a 0 bit points
 * left, 1 points right, and victim selection follows the pointers.
 */
class PseudoLruPolicy final : public ReplacementPolicy
{
  public:
    PseudoLruPolicy(unsigned num_sets, unsigned assoc)
        : ReplacementPolicy(num_sets, assoc),
          bits_(static_cast<std::size_t>(num_sets) * (assoc - 1), false)
    {
        if ((assoc & (assoc - 1)) != 0)
            throw ConfigError("pLRU requires power-of-two associativity",
                              {"replacement", "", std::to_string(assoc_)});
    }

    unsigned
    victim(unsigned set) override
    {
        unsigned node = 0;
        unsigned lo = 0, hi = assoc_;
        while (hi - lo > 1) {
            const bool right = bit(set, node);
            const unsigned mid = (lo + hi) / 2;
            node = 2 * node + (right ? 2 : 1);
            if (right)
                lo = mid;
            else
                hi = mid;
        }
        return lo;
    }

    void onFill(unsigned set, unsigned way) override { touch(set, way); }
    void onHit(unsigned set, unsigned way) override { touch(set, way); }

    unsigned
    rank(unsigned set, unsigned way) const override
    {
        // Victim-first traversal of the tree defines the total order:
        // at each node the pointed-to subtree is visited first.
        unsigned pos = 0;
        unsigned found = 0;
        bool seen = false;
        walk(set, 0, 0, assoc_, way, pos, found, seen);
        return found;
    }

    void
    ranks(unsigned set, std::uint8_t *out) const override
    {
        // One victim-first traversal labels every leaf, instead of
        // assoc separate walks through the per-way fallback.
        unsigned pos = 0;
        fillRanks(set, 0, 0, assoc_, pos, out);
    }

    const char *name() const override { return "pLRU"; }

    void
    saveState(SnapshotWriter &w) const override
    {
        w.putVecBool(bits_);
    }

    void
    loadState(SnapshotReader &r) override
    {
        r.getCountOf(bits_.size(), "replacement:pLRU");
        for (std::size_t i = 0; i < bits_.size(); ++i)
            bits_[i] = r.get8() != 0;
    }

  private:
    bool
    bit(unsigned set, unsigned node) const
    {
        return bits_[std::size_t(set) * (assoc_ - 1) + node];
    }

    void
    setBit(unsigned set, unsigned node, bool v)
    {
        bits_[std::size_t(set) * (assoc_ - 1) + node] = v;
    }

    /** Point every node on the path to `way` away from it. */
    void
    touch(unsigned set, unsigned way)
    {
        unsigned node = 0;
        unsigned lo = 0, hi = assoc_;
        while (hi - lo > 1) {
            const unsigned mid = (lo + hi) / 2;
            const bool went_right = way >= mid;
            // Bit points toward the LRU side: opposite of the access.
            setBit(set, node, !went_right);
            node = 2 * node + (went_right ? 2 : 1);
            if (went_right)
                lo = mid;
            else
                hi = mid;
        }
    }

    void
    walk(unsigned set, unsigned node, unsigned lo, unsigned hi,
         unsigned way, unsigned &pos, unsigned &found, bool &seen) const
    {
        if (hi - lo == 1) {
            if (lo == way) {
                found = pos;
                seen = true;
            }
            ++pos;
            return;
        }
        const unsigned mid = (lo + hi) / 2;
        const bool right_first = bit(set, node);
        if (right_first) {
            walk(set, 2 * node + 2, mid, hi, way, pos, found, seen);
            if (!seen)
                walk(set, 2 * node + 1, lo, mid, way, pos, found, seen);
            else
                pos += mid - lo;
        } else {
            walk(set, 2 * node + 1, lo, mid, way, pos, found, seen);
            if (!seen)
                walk(set, 2 * node + 2, mid, hi, way, pos, found, seen);
            else
                pos += hi - mid;
        }
    }

    /** Same victim-first order as walk(), labeling every leaf. */
    void
    fillRanks(unsigned set, unsigned node, unsigned lo, unsigned hi,
              unsigned &pos, std::uint8_t *out) const
    {
        if (hi - lo == 1) {
            out[lo] = static_cast<std::uint8_t>(pos++);
            return;
        }
        const unsigned mid = (lo + hi) / 2;
        if (bit(set, node)) {
            fillRanks(set, 2 * node + 2, mid, hi, pos, out);
            fillRanks(set, 2 * node + 1, lo, mid, pos, out);
        } else {
            fillRanks(set, 2 * node + 1, lo, mid, pos, out);
            fillRanks(set, 2 * node + 2, mid, hi, pos, out);
        }
    }

    std::vector<bool> bits_;
};

/**
 * Not-most-recently-used: protects only the MRU way; victims rotate
 * through the remaining ways.
 */
class NmruPolicy final : public ReplacementPolicy
{
  public:
    NmruPolicy(unsigned num_sets, unsigned assoc, std::uint64_t seed)
        : ReplacementPolicy(num_sets, assoc), rng_(seed),
          mru_(num_sets, 0), cursor_(num_sets, 0)
    {}

    unsigned
    victim(unsigned set) override
    {
        if (assoc_ == 1)
            return 0;
        // Rotate a cursor; skip the MRU way.
        unsigned c = cursor_[set];
        for (unsigned i = 0; i < assoc_; ++i) {
            const unsigned w = (c + i) % assoc_;
            if (w != mru_[set]) {
                cursor_[set] = (w + 1) % assoc_;
                return w;
            }
        }
        return 0; // unreachable for assoc > 1
    }

    void onFill(unsigned set, unsigned way) override { mru_[set] = way; }
    void onHit(unsigned set, unsigned way) override { mru_[set] = way; }

    unsigned
    rank(unsigned set, unsigned way) const override
    {
        const unsigned m = mru_[set];
        if (way == m)
            return assoc_ - 1;
        // Non-MRU ways are ordered by distance from the rotating cursor.
        const unsigned c = cursor_[set];
        unsigned r = 0;
        for (unsigned i = 0; i < assoc_; ++i) {
            const unsigned w = (c + i) % assoc_;
            if (w == m)
                continue;
            if (w == way)
                return r;
            ++r;
        }
        panic("nMRU rank walk failed");
    }

    void
    ranks(unsigned set, std::uint8_t *out) const override
    {
        // One cursor rotation labels every way.
        const unsigned m = mru_[set];
        out[m] = static_cast<std::uint8_t>(assoc_ - 1);
        const unsigned c = cursor_[set];
        unsigned r = 0;
        for (unsigned i = 0; i < assoc_; ++i) {
            const unsigned w = (c + i) % assoc_;
            if (w == m)
                continue;
            out[w] = static_cast<std::uint8_t>(r++);
        }
    }

    const char *name() const override { return "nMRU"; }

    void
    saveState(SnapshotWriter &w) const override
    {
        saveRng(w, rng_);
        w.put64(mru_.size());
        for (const unsigned m : mru_)
            w.put32(m);
        w.put64(cursor_.size());
        for (const unsigned c : cursor_)
            w.put32(c);
    }

    void
    loadState(SnapshotReader &r) override
    {
        loadRng(r, rng_);
        // Both arrays hold a way per set.
        for (std::vector<unsigned> *ways : {&mru_, &cursor_}) {
            r.getCountOf(ways->size(), "replacement:nMRU");
            for (unsigned &w : *ways)
                if ((w = r.get32()) >= assoc_)
                    throw SimError("checkpoint nMRU way out of range",
                                   {"replacement:nMRU", "",
                                    std::to_string(w)});
        }
    }

  private:
    Rng rng_;
    std::vector<unsigned> mru_;
    std::vector<unsigned> cursor_;
};

/** SRRIP with 2-bit re-reference prediction values. */
class RripPolicy final : public ReplacementPolicy
{
  public:
    static constexpr std::uint8_t maxRrpv = 3;

    RripPolicy(unsigned num_sets, unsigned assoc)
        : ReplacementPolicy(num_sets, assoc),
          rrpv_(static_cast<std::size_t>(num_sets) * assoc, maxRrpv)
    {}

    unsigned
    victim(unsigned set) override
    {
        // Find a distant block; age everyone until one exists.
        for (;;) {
            for (unsigned w = 0; w < assoc_; ++w)
                if (at(set, w) == maxRrpv)
                    return w;
            for (unsigned w = 0; w < assoc_; ++w)
                ++at(set, w);
        }
    }

    void
    onFill(unsigned set, unsigned way) override
    {
        // SRRIP inserts with a long re-reference interval.
        at(set, way) = maxRrpv - 1;
    }

    void onHit(unsigned set, unsigned way) override { at(set, way) = 0; }

    void
    onInvalidate(unsigned set, unsigned way) override
    {
        at(set, way) = maxRrpv;
    }

    unsigned
    rank(unsigned set, unsigned way) const override
    {
        // Higher RRPV -> closer to eviction; ties broken by way index
        // (matching the left-to-right victim scan).
        unsigned r = 0;
        for (unsigned w = 0; w < assoc_; ++w) {
            if (w == way)
                continue;
            if (at(set, w) > at(set, way) ||
                (at(set, w) == at(set, way) && w < way)) {
                ++r;
            }
        }
        return r;
    }

    void
    ranks(unsigned set, std::uint8_t *out) const override
    {
        rrip_detail::rrpvRanks(&at(set, 0), assoc_, maxRrpv, out);
    }

    const char *name() const override { return "RRIP"; }

    void
    saveState(SnapshotWriter &w) const override
    {
        w.putVec8(rrpv_);
    }

    void
    loadState(SnapshotReader &r) override
    {
        r.getVec8Into(rrpv_, "replacement:RRIP", maxRrpv);
    }

  private:
    std::uint8_t &at(unsigned s, unsigned w)
    { return rrpv_[std::size_t(s) * assoc_ + w]; }
    const std::uint8_t &at(unsigned s, unsigned w) const
    { return rrpv_[std::size_t(s) * assoc_ + w]; }

    std::vector<std::uint8_t> rrpv_;
};

/**
 * DRRIP: dynamic RRIP via set dueling. A few leader sets always insert
 * SRRIP-style (rrpv = max-1), a few always BRRIP-style (rrpv = max,
 * with a 1/32 chance of max-1); a saturating PSEL counter tracks which
 * leader family misses less and follower sets copy the winner.
 */
class DrripPolicy final : public ReplacementPolicy
{
  public:
    static constexpr std::uint8_t maxRrpv = 3;
    static constexpr int pselMax = 1023;
    static constexpr unsigned duelPeriod = 8; //!< nominal leader spacing

    DrripPolicy(unsigned num_sets, unsigned assoc, std::uint64_t seed)
        : ReplacementPolicy(num_sets, assoc), rng_(seed),
          // Leader spacing clamps to the set count: with the nominal
          // period of 8, a cache of <= duelPeriod/2 sets would contain
          // set 0 (the SRRIP leader) but no set duelPeriod/2 — zero
          // BRRIP leaders, so psel_ could only saturate upward and the
          // duel silently degenerated to static SRRIP on small caches.
          // Clamped, every cache with >= 2 sets has one leader of each
          // family; a single-set cache has no distinct BRRIP leader
          // and degenerates (explicitly, now) to SRRIP.
          duelPeriod_(std::min(duelPeriod, num_sets)),
          rrpv_(static_cast<std::size_t>(num_sets) * assoc, maxRrpv)
    {}

    unsigned
    victim(unsigned set) override
    {
        for (;;) {
            for (unsigned w = 0; w < assoc_; ++w)
                if (at(set, w) == maxRrpv)
                    return w;
            for (unsigned w = 0; w < assoc_; ++w)
                ++at(set, w);
        }
    }

    void
    onFill(unsigned set, unsigned way) override
    {
        // Leader sets vote: a fill means this set missed, so charge
        // the policy family the set belongs to.
        bool use_brrip;
        if (isSrripLeader(set)) {
            psel_ = std::min(psel_ + 1, pselMax);
            use_brrip = false;
        } else if (isBrripLeader(set)) {
            psel_ = std::max(psel_ - 1, 0);
            use_brrip = true;
        } else {
            // Followers copy whichever family has fewer misses; PSEL
            // grows with SRRIP-leader misses, so high PSEL -> BRRIP.
            use_brrip = psel_ > pselMax / 2;
        }

        if (use_brrip) {
            at(set, way) =
                rng_.drawBool(1.0 / 32.0) ? maxRrpv - 1 : maxRrpv;
        } else {
            at(set, way) = maxRrpv - 1;
        }
    }

    void onHit(unsigned set, unsigned way) override { at(set, way) = 0; }

    void
    onInvalidate(unsigned set, unsigned way) override
    {
        at(set, way) = maxRrpv;
    }

    unsigned
    rank(unsigned set, unsigned way) const override
    {
        unsigned r = 0;
        for (unsigned w = 0; w < assoc_; ++w) {
            if (w == way)
                continue;
            if (at(set, w) > at(set, way) ||
                (at(set, w) == at(set, way) && w < way)) {
                ++r;
            }
        }
        return r;
    }

    void
    ranks(unsigned set, std::uint8_t *out) const override
    {
        rrip_detail::rrpvRanks(&at(set, 0), assoc_, maxRrpv, out);
    }

    const char *name() const override { return "DRRIP"; }

    /** Current duel outcome (true = followers use BRRIP). */
    bool followersUseBrrip() const { return psel_ > pselMax / 2; }

    /** Raw PSEL counter (tests watch the duel move). */
    int psel() const { return psel_; }

    void
    saveState(SnapshotWriter &w) const override
    {
        saveRng(w, rng_);
        w.put32(static_cast<std::uint32_t>(psel_));
        w.putVec8(rrpv_);
    }

    void
    loadState(SnapshotReader &r) override
    {
        loadRng(r, rng_);
        psel_ = static_cast<int>(r.get32());
        r.getVec8Into(rrpv_, "replacement:DRRIP", maxRrpv);
    }

  private:
    bool isSrripLeader(unsigned set) const
    { return set % duelPeriod_ == 0; }
    bool isBrripLeader(unsigned set) const
    { return duelPeriod_ >= 2 && set % duelPeriod_ == duelPeriod_ / 2; }

    std::uint8_t &at(unsigned s, unsigned w)
    { return rrpv_[std::size_t(s) * assoc_ + w]; }
    const std::uint8_t &at(unsigned s, unsigned w) const
    { return rrpv_[std::size_t(s) * assoc_ + w]; }

    Rng rng_;
    unsigned duelPeriod_; //!< effective spacing, min(duelPeriod, sets)
    int psel_ = pselMax / 2;
    std::vector<std::uint8_t> rrpv_;
};

/**
 * Uniform random victim selection.
 *
 * victim() draws uniformly; the rank view is a *static seeded per-set
 * permutation*. rank() used to return the way index itself, which made
 * the permutation identical in every set — PInTE's eviction-end walk
 * targets rank 0, so every induced theft under Random landed on way 0
 * of whatever set triggered, a systematic bias no real random-
 * replacement cache exhibits. The per-set permutations (Fisher–Yates
 * over a private splitmix-seeded stream, fixed at construction) spread
 * the walk's targets across ways while keeping ranks a stable
 * permutation, and the victim() RNG stream draws exactly what it drew
 * before the fix. The permutations are derived from configuration
 * (num_sets, assoc, seed), not mutated, so checkpoints still serialize
 * only the victim stream.
 */
class RandomPolicy final : public ReplacementPolicy
{
  public:
    RandomPolicy(unsigned num_sets, unsigned assoc, std::uint64_t seed)
        : ReplacementPolicy(num_sets, assoc), rng_(seed),
          perm_(static_cast<std::size_t>(num_sets) * assoc)
    {
        // A separate stream: consuming rng_ here would shift every
        // victim() draw relative to the pre-fix behavior.
        Rng perm_rng(seed ^ 0x52414e4b53ull); // "RANKS"
        for (unsigned s = 0; s < num_sets; ++s) {
            std::uint8_t *row = perm_.data() + std::size_t(s) * assoc;
            for (unsigned w = 0; w < assoc; ++w)
                row[w] = static_cast<std::uint8_t>(w);
            for (unsigned i = assoc - 1; i > 0; --i)
                std::swap(row[i],
                          row[perm_rng.drawRange(std::uint64_t(i) + 1)]);
        }
    }

    unsigned
    victim(unsigned set) override
    {
        (void)set;
        return static_cast<unsigned>(rng_.drawRange(assoc_));
    }

    void onFill(unsigned, unsigned) override {}
    void onHit(unsigned, unsigned) override {}

    unsigned
    rank(unsigned set, unsigned way) const override
    {
        return perm_[std::size_t(set) * assoc_ + way];
    }

    void
    ranks(unsigned set, std::uint8_t *out) const override
    {
        std::memcpy(out, perm_.data() + std::size_t(set) * assoc_,
                    assoc_);
    }

    const char *name() const override { return "Random"; }

    void
    saveState(SnapshotWriter &w) const override
    {
        saveRng(w, rng_);
    }

    void
    loadState(SnapshotReader &r) override
    {
        loadRng(r, rng_);
    }

  private:
    Rng rng_;
    std::vector<std::uint8_t> perm_; //!< static per-set rank views
};

} // namespace pinte

#endif // PINTE_REPLACEMENT_POLICIES_HH
