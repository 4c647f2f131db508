/**
 * @file
 * Set-associative cache with ownership tracking, theft accounting,
 * inclusion policies, optional prefetcher, way masking and a
 * replacement hook — the integration point the PInTE engine plugs into.
 *
 * Block metadata is stored structure-of-arrays: line tags and owners
 * are contiguous per-set arrays, and the valid/dirty/prefetched flags
 * are one bit per way in per-set 64-bit words (assoc <= 64 is already
 * a constructor invariant). Tag lookup walks only the set's valid
 * bits; victim selection finds an invalid allowed way with a single
 * bitmask operation. Per-access replacement-policy and prefetcher
 * calls dispatch through a switch on the configured kind to the
 * concrete `final` classes (replacement/policies.hh,
 * prefetch/prefetchers.hh), so the compiler can devirtualize and
 * inline them; kinds outside the built-in enums still go through the
 * virtual base.
 */

#ifndef PINTE_CACHE_CACHE_HH
#define PINTE_CACHE_CACHE_HH

#include <memory>
#include <string>
#include <vector>

#include "cache/cache_stats.hh"
#include "cache/memory_level.hh"
#include "common/types.hh"
#include "prefetch/prefetcher.hh"
#include "replacement/policy.hh"

namespace pinte
{

class StatRegistry;

/** Inclusion property between this cache and its upstreams (III-C b). */
enum class InclusionPolicy
{
    NonInclusive, //!< fills everywhere; evictions don't back-invalidate
    Inclusive,    //!< evictions back-invalidate upper levels
    Exclusive,    //!< filled only by upper-level evictions; hits move up
};

/** Printable name for an inclusion policy. */
const char *toString(InclusionPolicy p);

/** Static configuration of one cache. */
struct CacheConfig
{
    std::string name = "cache";
    unsigned numSets = 64;
    unsigned assoc = 8;
    Cycle latency = 4;           //!< hit latency added by this level
    ReplacementKind replacement = ReplacementKind::Lru;
    InclusionPolicy inclusion = InclusionPolicy::NonInclusive;
    PrefetcherKind prefetcher = PrefetcherKind::None;
    unsigned prefetchDegree = 1;
    unsigned numCores = 1;       //!< cores whose stats are tracked
    std::uint64_t seed = 1;      //!< for stochastic replacement

    /** Capacity in bytes. */
    std::uint64_t bytes() const
    { return std::uint64_t(numSets) * assoc * blockSize; }
};

/**
 * Hook invoked after every demand access to a cache completes. The
 * PInTE engine implements this to induce theft evictions; the cache
 * stays unaware of who is pulling the strings, mirroring how the paper
 * integrates into ChampSim's existing replacement calls.
 */
class ReplacementHook
{
  public:
    virtual ~ReplacementHook() = default;

    /**
     * @param cache the cache the access went to
     * @param set the set that was touched
     * @param core the requesting core
     * @param cycle the access's issue cycle (for writeback timing)
     */
    virtual void onAccess(class Cache &cache, unsigned set, CoreId core,
                          Cycle cycle) = 0;
};

/** One cache level. */
class Cache : public MemoryLevel
{
  public:
    /**
     * @param config static parameters
     * @param next downstream level (deeper cache or DRAM), already
     *        constructed; may be null for unit tests, in which case
     *        misses cost `latency` only
     */
    Cache(const CacheConfig &config, MemoryLevel *next);

    // MemoryLevel interface.
    AccessResult access(const MemAccess &req) override;
    const char *levelName() const override { return config_.name.c_str(); }

    /** Register an upstream cache for inclusive back-invalidation. */
    void addUpstream(Cache *upper) { upstreams_.push_back(upper); }

    /** Install the post-access hook (the PInTE engine). */
    void setReplacementHook(ReplacementHook *hook) { hook_ = hook; }

    /**
     * Restrict fills by `core` to the ways set in `mask` (bit w = way w
     * allowed). Models Intel RDT cache allocation for the Fig 10 study.
     */
    void setWayMask(CoreId core, std::uint64_t mask);

    /** @name Introspection used by PInTE, tests and benches. */
    /// @{
    unsigned numSets() const { return config_.numSets; }
    unsigned assoc() const { return config_.assoc; }
    unsigned setIndex(Addr addr) const;
    bool valid(unsigned set, unsigned way) const
    { return (validBits_[set] >> way) & 1; }
    bool dirty(unsigned set, unsigned way) const
    { return (dirtyBits_[set] >> way) & 1; }
    CoreId owner(unsigned set, unsigned way) const
    { return owners_[blockIndex(set, way)]; }
    Addr lineAddr(unsigned set, unsigned way) const
    { return lines_[blockIndex(set, way)] << blockShift; }
    /** Eviction rank of a way: 0 = next victim. */
    unsigned rank(unsigned set, unsigned way) const;
    /**
     * Rank permutation of a whole set into out[0..assoc) — one
     * devirtualized bulk call instead of assoc rank() calls. PInTE's
     * BLOCK-SELECT walk reads the eviction order through this.
     */
    void ranks(unsigned set, std::uint8_t *out) const;
    /** True if `addr`'s line is present and valid. */
    bool probe(Addr addr) const;
    /** Valid blocks currently owned by `core` (occupancy, eq. 6). */
    std::uint64_t occupancy(CoreId core) const { return occupancy_[core]; }
    /// @}

    /** @name Mutation hooks used by the PInTE engine. */
    /// @{
    /** Promote (set, way) as if it were demand-accessed. */
    void promoteWay(unsigned set, unsigned way);
    /**
     * k times, promote whichever way holds rank 0 at that moment;
     * order[0..k) receives the promoted ways in visit order (see
     * ReplacementPolicy::promoteLowest).
     */
    void promoteLowest(unsigned set, unsigned k, std::uint8_t *order);
    /**
     * How many PROMOTEs the PInTE walk may run before it invalidates
     * their ways: assoc, or 1 when a theft writeback from this cache
     * can reach an Inclusive cache below. That cache's allocation may
     * back-invalidate a way of the walked set, which changes the
     * order the walk's next promotion must see.
     */
    unsigned promoteChunk() const
    { return theftWalkReentrant_ ? 1 : config_.assoc; }
    /**
     * Invalidate (set, way), writing back if dirty, and account the
     * eviction as a system-mocked theft against the block's owner.
     */
    void invalidateWayAsTheft(unsigned set, unsigned way, Cycle cycle);
    /// @}

    /** Invalidate a line anywhere in the cache (back-invalidation). */
    bool invalidateLine(Addr addr, Cycle cycle, bool writeback_dirty);

    /** @name Paranoid-mode audits (common/invariant.hh). */
    /// @{
    /**
     * Validate one set: no duplicate valid tags, dirty implies valid,
     * owners in range, replacement ranks a permutation. Throws
     * InvariantError on violation. The PInTE engine calls this on the
     * touched set after every induction when paranoid mode is on.
     */
    void auditSet(unsigned set) const;
    /**
     * Validate the whole cache: every set via auditSet(), per-core
     * occupancy counters against a recount of valid blocks, the
     * pending-fill table's direct-mapped slot consistency, inclusive
     * upstreams' residency (until the first induced theft deliberately
     * breaks inclusion — see invalidateWayAsTheft), and the local stat
     * identities accesses = hits + misses and loads + stores = accesses.
     */
    void audit() const;
    /// @}

    /** Statistics. */
    CacheStats &stats() { return stats_; }
    const CacheStats &stats() const { return stats_; }

    /** Reset statistics (not contents) at the end of warmup. */
    void clearStats() { stats_.clear(); }

    /**
     * Register every per-core counter, derived rate, occupancy view
     * and reuse histogram under `prefix` (e.g. "llc", "l1d0"). The
     * registered readers alias this cache's own stat fields, valid
     * for the cache's lifetime.
     */
    void registerStats(StatRegistry &reg,
                       const std::string &prefix) const;

    /** Static configuration. */
    const CacheConfig &config() const { return config_; }

    /**
     * @name Checkpoint support
     * Serializes the complete mutable state — SoA block metadata,
     * policy and prefetcher state, way masks, occupancy counters, the
     * pending-fill table and every statistic — so a restored cache
     * continues bit-identically (tests/test_checkpoint.cc pins this
     * across the bitwise config matrix).
     */
    /// @{
    void saveState(SnapshotWriter &w) const;
    void loadState(SnapshotReader &r);
    /// @}

  private:
    static constexpr std::uint64_t wayBit(unsigned way)
    { return std::uint64_t(1) << way; }

    std::size_t blockIndex(unsigned set, unsigned way) const
    { return std::size_t(set) * config_.assoc + way; }

    /** Find the way holding `line` in `set`; -1 if absent. */
    int findWay(unsigned set, Addr line) const;

    /** Pick a fill victim honoring way masks; prefers invalid ways. */
    unsigned pickVictim(unsigned set, CoreId core);

    /**
     * Evict (set, way): theft accounting, writeback, back-inval.
     * `for_refill` marks the per-miss evict+fill pair: the policy's
     * onInvalidate is skipped because the immediate onFill on the same
     * way makes it unobservable (see the proof note in evict()).
     */
    void evict(unsigned set, unsigned way, CoreId requester, Cycle cycle,
               bool for_refill = false);

    /** Insert `line` for `core` at (set, way). */
    void fillBlock(unsigned set, unsigned way, Addr line, CoreId core,
                   bool is_write, bool is_prefetch);

    /** Handle a writeback arriving from an upper level. */
    AccessResult handleWriteback(const MemAccess &req);

    /** Issue prefetches proposed by the prefetcher. */
    void runPrefetcher(const MemAccess &req, bool hit);

    /** Bounded map of in-flight fills: line -> data-ready cycle. */
    Cycle pendingReady(Addr line) const;
    void notePending(Addr line, Cycle ready);

    /**
     * Call `f` with the policy downcast to its concrete `final` class
     * (devirtualized dispatch keyed on config_.replacement); falls back
     * to the virtual base for kinds the switch does not know.
     */
    template <typename F> decltype(auto) withPolicy(F &&f);
    template <typename F> decltype(auto) withPolicy(F &&f) const;

    CacheConfig config_;
    MemoryLevel *next_;
    /** next_ is a Cache whose inclusion policy is Exclusive: clean
     *  evictions go down to it too. */
    bool cleanEvictsDown_ = false;
    /** Some cache along the next_ chain is Inclusive, so a writeback
     *  from here can come back as a back-invalidation of this cache. */
    bool theftWalkReentrant_ = false;
    std::vector<Cache *> upstreams_;
    ReplacementHook *hook_ = nullptr;

    /**
     * @name Block metadata, structure-of-arrays
     * Tags and owners are per-(set, way) contiguous arrays indexed by
     * blockIndex(); the boolean planes are per-set bitmasks (bit w =
     * way w). Entries of invalid ways hold stale values — every
     * consumer masks with validBits_ first.
     */
    /// @{
    std::vector<Addr> lines_;
    std::vector<CoreId> owners_;
    std::vector<std::uint64_t> validBits_;
    std::vector<std::uint64_t> dirtyBits_;
    std::vector<std::uint64_t> prefetchedBits_;
    std::uint64_t fullMask_; //!< low `assoc` bits set
    /// @}

    std::unique_ptr<ReplacementPolicy> policy_;
    std::unique_ptr<Prefetcher> prefetcher_;
    std::vector<Addr> prefetchBuf_;

    std::vector<std::uint64_t> wayMasks_;
    std::vector<std::uint64_t> occupancy_;

    /** Small direct-mapped pending-fill table (MSHR merge model). */
    struct Pending
    {
        Addr line = ~Addr(0);
        Cycle ready = 0;
    };
    std::vector<Pending> pending_;

    CacheStats stats_;
    unsigned indexBits_;

    /**
     * An induced theft in an Inclusive cache deliberately skips
     * back-invalidation (the paper's Fig 11 inclusion mechanism), so
     * the hierarchy stops being strictly inclusive from that point on.
     * audit() checks inclusion only while this is false.
     */
    bool inclusionCompromised_ = false;
};

} // namespace pinte

#endif // PINTE_CACHE_CACHE_HH
