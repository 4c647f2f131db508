/**
 * @file
 * The PInTE theft walk against the step-by-step loop it replaced.
 *
 * PInte::onAccess runs a k-block PROMOTE walk as one
 * Cache::promoteLowest call (a single rotation under LRU) followed by
 * k invalidations, or in chunks of one when a theft writeback can
 * come back as a back-invalidation from an inclusive cache below. The
 * reference engine here keeps the previous walk verbatim: one bulk
 * ranks() read per promotion, promote, invalidate, repeat. Both are
 * driven with identical random operation streams and must leave the
 * same cache state, engine counters and writeback stream behind.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "common/invariant.hh"
#include "common/rng.hh"
#include "common/trace_events.hh"
#include "core/pinte.hh"

using namespace pinte;

namespace
{

/** The walk as it stood before promoteLowest(), kept as the oracle. */
class ReferenceWalk : public ReplacementHook
{
  public:
    explicit ReferenceWalk(const PInteConfig &config)
        : config_(config), rng_(config.seed)
    {
    }

    const PInteStats &stats() const { return stats_; }

    void
    onAccess(Cache &cache, unsigned set, CoreId core,
             Cycle cycle) override
    {
        (void)core;
        ++stats_.accessesSeen;

        if (rng_.drawUnit() >= config_.pInduce)
            return;
        ++stats_.triggers;

        const unsigned assoc = cache.assoc();
        std::uint64_t blocks_evict = rng_.drawBetween(0, assoc);
        stats_.requestedEvicts += blocks_evict;
        if (TraceEvents::on())
            TraceEvents::mark("pinte", "trigger", blocks_evict);

        std::uint8_t ranks[64];
        bool ranks_fresh = false;
        unsigned w = 0;
        unsigned stack_rank = 0;
        while (blocks_evict > 0 && w < assoc) {
            unsigned way = 0;
            switch (config_.select) {
              case BlockSelectPolicy::StackEnd: {
                if (!ranks_fresh) {
                    cache.ranks(set, ranks);
                    ranks_fresh = true;
                }
                const unsigned target = config_.promote ? 0 : stack_rank;
                for (unsigned cand = 0; cand < assoc; ++cand) {
                    if (ranks[cand] == target) {
                        way = cand;
                        break;
                    }
                }
                ++stack_rank;
                break;
              }
              case BlockSelectPolicy::RandomValid:
                way = static_cast<unsigned>(rng_.drawRange(assoc));
                break;
            }

            if (config_.promote) {
                cache.promoteWay(set, way);
                ++stats_.promotions;
                ranks_fresh = false; // promotion may reorder the ranks
            }

            if (cache.valid(set, way)) {
                cache.invalidateWayAsTheft(set, way, cycle);
                ++stats_.invalidations;
            }

            --blocks_evict;
            ++w;
        }

        if (Paranoid::on())
            cache.auditSet(set);
    }

  private:
    PInteConfig config_;
    Rng rng_;
    PInteStats stats_;
};

/** Next level that records every request it receives. */
class RecordingLevel : public MemoryLevel
{
  public:
    struct Entry
    {
        Addr addr;
        CoreId core;
        Cycle cycle;
        AccessType type;
        bool operator==(const Entry &) const = default;
    };

    AccessResult
    access(const MemAccess &req) override
    {
        log.push_back({req.addr, req.core, req.cycle, req.type});
        return {req.cycle + 30, false};
    }

    const char *levelName() const override { return "recorder"; }

    std::vector<Entry> log;
};

bool
sameStats(const PInteStats &a, const PInteStats &b)
{
    return a.accessesSeen == b.accessesSeen && a.triggers == b.triggers &&
           a.promotions == b.promotions &&
           a.invalidations == b.invalidations &&
           a.requestedEvicts == b.requestedEvicts;
}

/** First set, way or plane where the two caches differ; "" if none. */
std::string
stateDiff(const Cache &a, const Cache &b)
{
    std::uint8_t ra[64], rb[64];
    for (unsigned s = 0; s < a.numSets(); ++s) {
        a.ranks(s, ra);
        b.ranks(s, rb);
        for (unsigned w = 0; w < a.assoc(); ++w) {
            const std::string at =
                " set " + std::to_string(s) + " way " + std::to_string(w);
            if (ra[w] != rb[w])
                return "rank" + at + ": " + std::to_string(ra[w]) +
                       " vs " + std::to_string(rb[w]);
            if (a.valid(s, w) != b.valid(s, w))
                return "valid" + at;
            if (a.dirty(s, w) != b.dirty(s, w))
                return "dirty" + at;
        }
    }
    return "";
}

const unsigned kAssocs[] = {1, 2, 4, 7, 8, 9, 16, 17, 63, 64};

const ReplacementKind kPolicies[] = {
    ReplacementKind::Lru,    ReplacementKind::PseudoLru,
    ReplacementKind::Nmru,   ReplacementKind::Rrip,
    ReplacementKind::Random, ReplacementKind::Drrip,
    ReplacementKind::Lhd,
};

/**
 * Drive the engine and the reference through one random op stream
 * (loads, stores, writebacks from above, back-invalidations) over a
 * 4-set cache of the given shape, comparing after every op. Returns
 * the set of Blocks_evict values the triggers drew.
 */
std::set<unsigned>
runEquivalence(ReplacementKind kind, unsigned assoc, bool promote,
               BlockSelectPolicy select, std::uint64_t seed)
{
    CacheConfig cc;
    cc.name = "LLC";
    cc.numSets = 4;
    cc.assoc = assoc;
    cc.replacement = kind;
    cc.numCores = 2;
    cc.seed = seed;
    RecordingLevel down_a, down_b;
    Cache a(cc, &down_a), b(cc, &down_b);
    EXPECT_EQ(a.promoteChunk(), assoc);

    PInteConfig pc;
    pc.pInduce = 0.6;
    pc.seed = seed * 31 + 7;
    pc.promote = promote;
    pc.select = select;
    PInte engine(pc);
    ReferenceWalk ref(pc);
    a.setReplacementHook(&engine);
    b.setReplacementHook(&ref);

    const std::string where = std::string(toString(kind)) + " assoc " +
                              std::to_string(assoc) + " promote " +
                              std::to_string(promote) + " " +
                              toString(select);
    std::set<unsigned> ks;
    Rng ops(seed);
    const Addr lines = 4ull * assoc * 3;
    const int n = 800 + 24 * static_cast<int>(assoc);
    for (int i = 0; i < n; ++i) {
        MemAccess req;
        req.addr = ops.drawRange(lines) * blockSize;
        req.core = static_cast<CoreId>(ops.drawRange(2));
        req.cycle = static_cast<Cycle>(i) * 7;
        const std::uint64_t pick = ops.drawRange(16);
        const std::uint64_t before = engine.stats().requestedEvicts;
        const std::uint64_t triggers = engine.stats().triggers;
        if (pick == 0) {
            a.invalidateLine(req.addr, req.cycle, true);
            b.invalidateLine(req.addr, req.cycle, true);
        } else {
            req.type = pick == 1   ? AccessType::Writeback
                       : pick < 8 ? AccessType::Store
                                  : AccessType::Load;
            req.wbDirty = ops.drawRange(2) != 0;
            a.access(req);
            b.access(req);
        }
        if (engine.stats().triggers != triggers)
            ks.insert(static_cast<unsigned>(
                engine.stats().requestedEvicts - before));

        const std::string diff = stateDiff(a, b);
        if (!diff.empty()) {
            ADD_FAILURE() << where << ", op " << i << ": " << diff;
            return ks;
        }
        if (!sameStats(engine.stats(), ref.stats()) ||
            down_a.log.size() != down_b.log.size()) {
            ADD_FAILURE() << where << ", op " << i
                          << ": counters or writeback count differ";
            return ks;
        }
    }
    EXPECT_TRUE(down_a.log == down_b.log) << where;
    EXPECT_EQ(a.stats().perCore[0].mockedThefts,
              b.stats().perCore[0].mockedThefts) << where;
    EXPECT_EQ(a.stats().perCore[1].mockedThefts,
              b.stats().perCore[1].mockedThefts) << where;
    return ks;
}

void
runMatrix()
{
    std::uint64_t seed = 1;
    for (ReplacementKind kind : kPolicies) {
        for (unsigned assoc : kAssocs) {
            if (kind == ReplacementKind::PseudoLru &&
                (assoc & (assoc - 1)) != 0)
                continue; // pLRU needs a power-of-two associativity
            for (bool promote : {true, false}) {
                for (BlockSelectPolicy select :
                     {BlockSelectPolicy::StackEnd,
                      BlockSelectPolicy::RandomValid}) {
                    const std::set<unsigned> ks =
                        runEquivalence(kind, assoc, promote, select, seed++);
                    // Every walk length 0..assoc was exercised.
                    EXPECT_EQ(ks.size(), assoc + 1u)
                        << toString(kind) << " assoc " << assoc;
                    if (::testing::Test::HasFailure())
                        return;
                }
            }
        }
    }
}

/** Turns paranoid mode on for one scope. */
class ParanoidScope
{
  public:
    ParanoidScope() { Paranoid::enable(1); }
    ~ParanoidScope() { Paranoid::disable(); }
};

} // namespace

TEST(TheftWalk, LruRotationEqualsRepeatedTouches)
{
    // promoteLowest(k) on LRU must equal k touch()es of the rank-0 way
    // for every k, including the fresh bits (exposed by onInvalidate,
    // which re-inserts among the fresh group).
    Rng rng(3);
    for (unsigned assoc : kAssocs) {
        auto a = makeReplacementPolicy(ReplacementKind::Lru, 2, assoc);
        auto b = makeReplacementPolicy(ReplacementKind::Lru, 2, assoc);
        std::uint8_t ra[64], rb[64], order[64];
        for (int i = 0; i < 400; ++i) {
            const unsigned set = static_cast<unsigned>(rng.drawRange(2));
            const unsigned way =
                static_cast<unsigned>(rng.drawRange(assoc));
            switch (rng.drawRange(4)) {
              case 0: {
                const auto k =
                    static_cast<unsigned>(rng.drawBetween(0, assoc));
                a->promoteLowest(set, k, order);
                for (unsigned j = 0; j < k; ++j) {
                    const unsigned w = b->wayAtRank(set, 0);
                    ASSERT_EQ(order[j], w) << "assoc " << assoc;
                    b->onHit(set, w);
                }
                break;
              }
              case 1:
                a->onInvalidate(set, way);
                b->onInvalidate(set, way);
                break;
              default:
                a->onHit(set, way);
                b->onHit(set, way);
                break;
            }
            a->ranks(set, ra);
            b->ranks(set, rb);
            for (unsigned w = 0; w < assoc; ++w)
                ASSERT_EQ(ra[w], rb[w]) << "assoc " << assoc << " op " << i;
            a->auditSet(set);
        }
    }
}

TEST(TheftWalk, MatchesStepByStepLoop)
{
    runMatrix();
}

TEST(TheftWalk, MatchesStepByStepLoopUnderParanoid)
{
    ParanoidScope paranoid;
    runMatrix();
}

namespace
{

/** An L2 with one PInTE-walked set above a one-set inclusive LLC. */
struct InclusiveStack
{
    RecordingLevel dram;
    Cache llc;
    Cache l2;

    static CacheConfig
    config(const char *name, InclusionPolicy inclusion)
    {
        CacheConfig c;
        c.name = name;
        c.numSets = 1;
        c.assoc = 4;
        c.inclusion = inclusion;
        return c;
    }

    InclusiveStack()
        : llc(config("LLC", InclusionPolicy::Inclusive), &dram),
          l2(config("L2", InclusionPolicy::NonInclusive), &llc)
    {
        llc.addUpstream(&l2);
        // L2 holds A..D, all dirty; A sits at rank 0.
        for (Addr line = 0; line < 4; ++line) {
            MemAccess st;
            st.addr = line * blockSize;
            st.type = AccessType::Store;
            st.cycle = line * 100;
            l2.access(st);
        }
        // Steal A from the LLC only (a theft skips back-invalidation),
        // then refill that slot with E straight into the LLC. The LLC
        // now holds B, C, D, E with B next in line, and lacks A.
        llc.invalidateWayAsTheft(0, wayOf(llc, 0), 1000);
        MemAccess ld;
        ld.addr = 4 * blockSize;
        ld.cycle = 1100;
        llc.access(ld);
    }

    static unsigned
    wayOf(const Cache &c, Addr line)
    {
        for (unsigned w = 0; w < c.assoc(); ++w)
            if (c.valid(0, w) && c.lineAddr(0, w) == line * blockSize)
                return w;
        ADD_FAILURE() << "line " << line << " not resident";
        return 0;
    }

    std::vector<std::uint8_t>
    l2Ranks() const
    {
        std::vector<std::uint8_t> r(l2.assoc());
        l2.ranks(0, r.data());
        return r;
    }
};

} // namespace

TEST(TheftWalk, InclusiveLowerLevelWalksOneBlockAtATime)
{
    // The first theft of the walk writes dirty A back into the LLC,
    // which lacks A, evicts B to make room and back-invalidates B in
    // the walked L2 set. LRU's onInvalidate moves B to rank 0, and the
    // step-by-step walk promotes it next. A one-pass rotation decided
    // before the writeback would miss that move.
    unsigned biting = 0;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        const PInteConfig pc{1.0, seed};

        InclusiveStack real;
        EXPECT_EQ(real.l2.promoteChunk(), 1u);
        EXPECT_EQ(real.llc.promoteChunk(), 4u);
        PInte engine(pc);
        engine.onAccess(real.l2, 0, 0, 2000);

        InclusiveStack oracle;
        ReferenceWalk ref(pc);
        ref.onAccess(oracle.l2, 0, 0, 2000);

        ASSERT_EQ(engine.stats().requestedEvicts,
                  ref.stats().requestedEvicts);
        EXPECT_TRUE(sameStats(engine.stats(), ref.stats()));
        EXPECT_EQ(stateDiff(real.l2, oracle.l2), "") << "seed " << seed;
        EXPECT_EQ(stateDiff(real.llc, oracle.llc), "") << "seed " << seed;
        EXPECT_TRUE(real.dram.log == oracle.dram.log) << "seed " << seed;

        // The same walk forced through one rotation: same RNG draws,
        // all k promotions first, then the k invalidations.
        InclusiveStack forced;
        Rng rng(seed);
        rng.drawUnit();
        const auto k = static_cast<unsigned>(rng.drawBetween(0, 4));
        ASSERT_EQ(k, engine.stats().requestedEvicts);
        std::uint8_t order[64];
        forced.l2.promoteLowest(0, k, order);
        for (unsigned i = 0; i < k; ++i)
            if (forced.l2.valid(0, order[i]))
                forced.l2.invalidateWayAsTheft(0, order[i], 2000);

        if (k >= 2) {
            EXPECT_NE(forced.l2Ranks(), oracle.l2Ranks()) << "seed " << seed;
            ++biting;
        } else {
            EXPECT_EQ(forced.l2Ranks(), oracle.l2Ranks()) << "seed " << seed;
        }
    }
    EXPECT_GT(biting, 0u);
}
