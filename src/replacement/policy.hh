/**
 * @file
 * Replacement policy interface and factory.
 *
 * Policies expose, beyond the usual victim/fill/hit hooks, a total
 * eviction-priority order over the ways of a set. PInTE's BLOCK-SELECT
 * state (Fig 4 of the paper) walks blocks from the eviction end of the
 * replacement stack, and the reuse-position histograms of Fig 5/6 record
 * the stack position at which hits land — both need rank introspection.
 */

#ifndef PINTE_REPLACEMENT_POLICY_HH
#define PINTE_REPLACEMENT_POLICY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "common/snapshot.hh"

namespace pinte
{

/**
 * Which replacement algorithm to instantiate (section III-C a).
 * Drrip and Lhd are extensions beyond the paper's four: set-dueling
 * dynamic RRIP (Jaleel et al., ISCA'10) checks whether adaptive
 * insertion survives PInTE contention better than static SRRIP, and
 * LHD (Beckmann et al., NSDI'18-style learned hit density) is the
 * first policy here with no fixed replacement stack at all — its
 * eviction order is a learned ranking recomputed from age/class
 * histograms.
 *
 * Enumerator values are stable across versions: the machine
 * fingerprint embeds the integer value, so append new kinds at the
 * end and never reorder. Registering a kind means extending, in
 * lockstep: toString(), makeReplacementPolicy(), Cache::withPolicy()
 * and the CLI table in sim/options.cc — tests/test_replacement.cc
 * round-trips every enumerator through all four to keep them honest.
 */
enum class ReplacementKind
{
    Lru,
    PseudoLru,
    Nmru,
    Rrip,
    Random,
    Drrip,
    Lhd,
};

/** Number of ReplacementKind enumerators (Lhd is the last). */
constexpr unsigned numReplacementKinds =
    static_cast<unsigned>(ReplacementKind::Lhd) + 1;

/** Printable name for a replacement kind. */
const char *toString(ReplacementKind k);

/**
 * Per-cache replacement state. Way indices are cache-level concepts;
 * the policy only orders them.
 *
 * ## The rank-permutation contract
 *
 * Every policy — stack-shaped or not — exposes its eviction order as
 * a *rank permutation*: at any instant, rank(set, w) over the ways of
 * a set is a permutation of 0..assoc-1, where rank 0 is the next
 * victim (the eviction end) and rank assoc-1 the most protected
 * position. The contract deliberately does not require a replacement
 * *stack*: a learned policy like LHD has no stack positions, only a
 * ranking recomputed from predictions, and the permutation view is
 * what PInTE's BLOCK-SELECT walk, the cache's masked-allocation path
 * and the reuse histograms consume. The obligations are:
 *
 *  - rank() is a permutation of 0..assoc-1 within each set, and
 *    victim() returns the rank-0 way (for policies whose victim()
 *    has side effects, e.g. RRIP aging or Random's RNG draw, the
 *    permutation reflects the order *before* those side effects);
 *  - ranks() writes exactly the same values as per-way rank() — the
 *    bulk form exists so hot paths pay one virtual call, not assoc;
 *  - ranks are stable across const queries: two reads with no
 *    intervening onFill/onHit/onInvalidate observe the same
 *    permutation (so rank() must not consult hidden mutable state).
 *
 * auditSet() verifies the permutation and the bulk/per-way agreement
 * under paranoid mode; PInTE audits every induction site through it.
 */
class ReplacementPolicy
{
  public:
    ReplacementPolicy(unsigned num_sets, unsigned assoc);
    virtual ~ReplacementPolicy() = default;

    /** Choose a victim way in `set`; all ways are assumed valid. */
    virtual unsigned victim(unsigned set) = 0;

    /** A block was filled into (set, way). */
    virtual void onFill(unsigned set, unsigned way) = 0;

    /**
     * A block at (set, way) was accessed (hit) — promote it. PInTE's
     * PROMOTE state reuses this hook so an induced theft updates the
     * stack exactly as a real adversary access would.
     */
    virtual void onHit(unsigned set, unsigned way) = 0;

    /** The block at (set, way) was invalidated. */
    virtual void onInvalidate(unsigned set, unsigned way) { (void)set;
                                                            (void)way; }

    /**
     * Eviction rank of (set, way): 0 = next victim, assoc-1 = most
     * protected. Ranks within a set are a permutation of 0..assoc-1.
     */
    virtual unsigned rank(unsigned set, unsigned way) const = 0;

    /**
     * Write rank(set, w) for every way into out[0..assoc). One
     * virtual call instead of assoc of them — the cache's masked
     * allocation path and PInTE's BLOCK-SELECT walk use this to hoist
     * rank lookups out of their per-way loops. Every built-in
     * overrides it with a single-pass implementation (a copy for
     * policies that store ranks, a counting sort for RRIP-family, one
     * tree walk for pLRU); the base-class fallback loops over rank()
     * and is only for external policies.
     */
    virtual void ranks(unsigned set, std::uint8_t *out) const;

    /**
     * PInTE's PROMOTE sequence for a k-block walk: k times, promote
     * (onHit) the way that is at rank 0 at that moment, writing the
     * promoted ways into order[0..k) in visit order. The default is
     * that loop — one bulk ranks() read per promotion — and is exact
     * for any policy. A stack policy can override it with one pass:
     * there the k promotions are a rotation of the bottom k ranks to
     * the protected end (LruPolicy).
     */
    virtual void promoteLowest(unsigned set, unsigned k,
                               std::uint8_t *order);

    /** Display name. */
    virtual const char *name() const = 0;

    /** Way whose rank is `r` in `set` (inverse of rank()). */
    unsigned wayAtRank(unsigned set, unsigned r) const;

    /**
     * Paranoid-mode audit of one set's metadata against the
     * rank-permutation contract: per-way rank() must be a permutation
     * of 0..assoc-1 and bulk ranks() must agree with it byte for byte
     * (a mismatched ranks() override would silently desynchronize the
     * hot paths from the audited view). Throws InvariantError with
     * the offending set/way; policies with extra state may override
     * and call the base first.
     */
    virtual void auditSet(unsigned set) const;

    /**
     * @name Checkpoint support
     * Serialize every mutable field in a fixed order (geometry is
     * reconstructed from configuration, not stored). The base class
     * has no mutable state, so the defaults are no-ops; every stateful
     * policy overrides both.
     */
    /// @{
    virtual void saveState(SnapshotWriter &w) const { (void)w; }
    virtual void loadState(SnapshotReader &r) { (void)r; }
    /// @}

    unsigned numSets() const { return numSets_; }
    unsigned assoc() const { return assoc_; }

  protected:
    unsigned numSets_;
    unsigned assoc_;
};

/**
 * Build a policy.
 * @param seed used only by stochastic policies (Random, nMRU tiebreak)
 */
std::unique_ptr<ReplacementPolicy>
makeReplacementPolicy(ReplacementKind kind, unsigned num_sets,
                      unsigned assoc, std::uint64_t seed = 1);

} // namespace pinte

#endif // PINTE_REPLACEMENT_POLICY_HH
