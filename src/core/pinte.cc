#include "pinte.hh"

#include <algorithm>

#include "common/error.hh"
#include "common/invariant.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/trace_events.hh"

namespace pinte
{

const char *
toString(BlockSelectPolicy p)
{
    switch (p) {
      case BlockSelectPolicy::StackEnd: return "stack-end";
      case BlockSelectPolicy::RandomValid: return "random-valid";
    }
    return "unknown";
}

PInte::PInte(const PInteConfig &config)
    : config_(config), rng_(config.seed)
{
    if (config.pInduce < 0.0 || config.pInduce > 1.0)
        throw ConfigError("P_Induce must lie in [0, 1]",
                          {"pinte", "", std::to_string(config.pInduce)});
}

void
PInte::onAccess(Cache &cache, unsigned set, CoreId core, Cycle cycle)
{
    (void)core;
    ++stats_.accessesSeen;

    // GEN-PROBABILITY: trigger ratio = random / max_random (eq. 2);
    // exit unless the ratio falls below P_Induce.
    if (rng_.drawUnit() >= config_.pInduce)
        return;
    ++stats_.triggers;

    // GEN-EVICT-CNT: Blocks_evict bounded between 0 and associativity.
    const unsigned assoc = cache.assoc();
    std::uint64_t blocks_evict = rng_.drawBetween(0, assoc);
    stats_.requestedEvicts += blocks_evict;
    if (TraceEvents::on())
        TraceEvents::mark("pinte", "trigger", blocks_evict);

    // BLOCK-SELECT .. DECREMENT: walk blocks from the eviction end of
    // the rank permutation (replacement/policy.hh — rank 0 is the next
    // victim under any policy, stack-shaped or learned). Each PROMOTE
    // moves the selected block toward the protected end — the
    // adversary's "insertion" — and INVALIDATE then mocks the theft on
    // valid data. Promoting an already-invalid block models inserting
    // on a previously stolen slot (Fig 2b), so the walk always
    // promotes, but only valid blocks count as thefts.
    //
    // With PROMOTE, each step selects the block at rank 0 as the
    // previous step's promotion left it. Theft invalidation never
    // touches policy state, so the k promotions run first, as one
    // Cache::promoteLowest call, and their ways are invalidated after
    // it in visit order: every writeback still leaves at the same
    // cycle and in the same order. For a stack policy the k
    // promotions are one rotation — the way at original rank i < k
    // ends at rank assoc-k+i and a way at rank j >= k at j-k — which
    // LRU applies in a single SWAR pass; other policies run the
    // per-step loop inside the hook (a policy whose promotion does not
    // reorder, e.g. Random, keeps re-selecting the same already-stolen
    // slot, and only the first selection counts a theft). The one
    // exception is a cache whose theft writebacks can reach an
    // Inclusive cache below it: allocating the written-back line there
    // may back-invalidate a way of this very set mid-walk, and
    // onInvalidate moves that way back toward rank 0, which the next
    // step must see. For such a cache promoteChunk() is 1, and the
    // walk promotes and invalidates one block at a time.
    //
    // Without PROMOTE the permutation is frozen for the whole walk and
    // one snapshot serves it: the walk climbs ranks 0..k-1 itself to
    // reach k distinct blocks instead of re-selecting the same way.
    const auto k = static_cast<unsigned>(blocks_evict);
    const auto steal = [&](unsigned way) {
        if (cache.valid(set, way)) {
            cache.invalidateWayAsTheft(set, way, cycle);
            ++stats_.invalidations;
        }
    };
    std::uint8_t order[64];
    switch (config_.select) {
      case BlockSelectPolicy::StackEnd:
        if (config_.promote) {
            const unsigned chunk = cache.promoteChunk();
            for (unsigned done = 0; done < k;) {
                const unsigned n = std::min(chunk, k - done);
                cache.promoteLowest(set, n, order);
                stats_.promotions += n;
                for (unsigned i = 0; i < n; ++i)
                    steal(order[i]);
                done += n;
            }
        } else {
            std::uint8_t ranks[64];
            cache.ranks(set, ranks);
            for (unsigned way = 0; way < assoc; ++way)
                if (ranks[way] < k)
                    order[ranks[way]] = static_cast<std::uint8_t>(way);
            for (unsigned i = 0; i < k; ++i)
                steal(order[i]);
        }
        break;
      case BlockSelectPolicy::RandomValid:
        for (unsigned i = 0; i < k; ++i) {
            const auto way = static_cast<unsigned>(rng_.drawRange(assoc));
            if (config_.promote) {
                cache.promoteWay(set, way);
                ++stats_.promotions;
            }
            steal(way);
        }
        break;
    }

    // Every induction site is an audit site: promote-then-invalidate
    // is precisely the state mutation most likely to corrupt the
    // replacement stack, so paranoid mode re-validates the touched set
    // before the access that triggered us returns, plus the engine's
    // own counter identities.
    if (Paranoid::on()) {
        cache.auditSet(set);
        if (stats_.triggers > stats_.accessesSeen)
            invariantFail("pinte", "triggers (" +
                              std::to_string(stats_.triggers) +
                              ") exceed accesses seen (" +
                              std::to_string(stats_.accessesSeen) + ")");
        if (stats_.invalidations > stats_.requestedEvicts)
            invariantFail("pinte", "invalidations (" +
                              std::to_string(stats_.invalidations) +
                              ") exceed requested evictions (" +
                              std::to_string(stats_.requestedEvicts) + ")");
        if (config_.promote && stats_.invalidations > stats_.promotions)
            invariantFail("pinte",
                          "more invalidations than promotions with the "
                          "PROMOTE state enabled");
    }
}

const std::vector<double> &
standardPInduceSweep()
{
    static const std::vector<double> sweep = {
        0.001, 0.005, 0.01, 0.025, 0.05, 0.075,
        0.10, 0.20, 0.30, 0.40, 0.55, 0.70,
    };
    return sweep;
}

void
PInte::registerStats(StatRegistry &reg, const std::string &prefix) const
{
    const PInteStats &s = stats_;
    reg.addCounter(prefix + ".accesses_seen", "GEN-PROBABILITY entries",
                   &s.accessesSeen);
    reg.addCounter(prefix + ".triggers", "draws that passed P_Induce",
                   &s.triggers);
    reg.addCounter(prefix + ".promotions", "PROMOTE transitions",
                   &s.promotions);
    reg.addCounter(prefix + ".inductions",
                   "induced theft evictions (INVALIDATE transitions)",
                   &s.invalidations);
    reg.addCounter(prefix + ".requested_evicts",
                   "sum of Blocks_evict draws", &s.requestedEvicts);
    reg.addDerived(prefix + ".trigger_rate",
                   "observed trigger rate (converges to P_Induce)",
                   [&s] { return s.triggerRate(); });
}

} // namespace pinte
