#include "lhd.hh"

#include <algorithm>
#include <cmath>

#include "common/bitops.hh"
#include "common/invariant.hh"
#include "common/logging.hh"
#include "common/snapshot.hh"

namespace pinte
{

namespace
{

/** splitmix64 finalizer — set-index hashing for explorer selection. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

LhdPolicy::LhdPolicy(unsigned num_sets, unsigned assoc,
                     std::uint64_t seed)
    : ReplacementPolicy(num_sets, assoc), seed_(seed),
      birth_(static_cast<std::size_t>(num_sets) * assoc, 0),
      cls_(static_cast<std::size_t>(num_sets) * assoc, 0),
      live_(static_cast<std::size_t>(num_sets) * assoc, 0),
      hitHist_(std::size_t(numClasses) * ageBuckets, 0.0),
      evictHist_(std::size_t(numClasses) * ageBuckets, 0.0),
      density_(std::size_t(numClasses) * ageBuckets, 0.0)
{
    // Coarsen ages so a typical block lifetime — roughly one cache's
    // worth of events (num_sets * assoc fills) — lands mid-range in
    // the bucket array instead of saturating the last bucket.
    const std::uint64_t blocks =
        std::uint64_t(num_sets) * assoc;
    ageShift_ = floorLog2(std::max<std::uint64_t>(1, blocks / 16));
}

bool
LhdPolicy::isExplorer(unsigned set) const
{
    return mix64(seed_ ^ (std::uint64_t(set) << 1)) %
               explorerDivisor == 0;
}

double
LhdPolicy::predictedDensity(unsigned set, unsigned way) const
{
    const std::size_t bi = idx(set, way);
    return density_[histIdx(cls_[bi], ageBucket(now_ - birth_[bi]))];
}

void
LhdPolicy::computeOrder(unsigned set, std::uint8_t *order_out) const
{
    // Precompute the sort keys once; the insertion sort below is
    // deterministic and allocation-free (assoc <= 64).
    //
    // Eviction order, most evictable first:
    //  1. untracked slots (live == 0), by way index — the policy has
    //     no block to protect there;
    //  2. tracked slots. In explorer sets: oldest first (unbiased
    //     lifetime sampling). Elsewhere: lowest predicted hit density
    //     first, ties to the older block, then to the lower way.
    const bool explore = isExplorer(set);
    double key[64];
    std::uint64_t age[64];
    for (unsigned w = 0; w < assoc_; ++w) {
        const std::size_t bi = idx(set, w);
        age[w] = now_ - birth_[bi];
        if (!live_[bi])
            key[w] = -1.0; // below any real density (>= 0)
        else if (explore)
            key[w] = 0.0; // age alone decides among tracked slots
        else
            key[w] = density_[histIdx(cls_[bi],
                                      ageBucket(age[w]))];
    }

    const auto moreEvictable = [&](unsigned a, unsigned b) {
        if (key[a] != key[b])
            return key[a] < key[b];
        if (age[a] != age[b])
            return age[a] > age[b];
        return a < b;
    };

    for (unsigned w = 0; w < assoc_; ++w) {
        unsigned i = w;
        while (i > 0 && moreEvictable(w, order_out[i - 1])) {
            order_out[i] = order_out[i - 1];
            --i;
        }
        order_out[i] = static_cast<std::uint8_t>(w);
    }
}

unsigned
LhdPolicy::victim(unsigned set)
{
    std::uint8_t order[64];
    computeOrder(set, order);
    return order[0];
}

unsigned
LhdPolicy::rank(unsigned set, unsigned way) const
{
    std::uint8_t rs[64];
    ranks(set, rs);
    return rs[way];
}

void
LhdPolicy::ranks(unsigned set, std::uint8_t *out) const
{
    std::uint8_t order[64];
    computeOrder(set, order);
    for (unsigned r = 0; r < assoc_; ++r)
        out[order[r]] = static_cast<std::uint8_t>(r);
}

void
LhdPolicy::tick()
{
    ++now_;
    if (++sinceReconfig_ >= reconfigInterval)
        reconfigure();
}

void
LhdPolicy::recordHit(std::size_t bi)
{
    hitHist_[histIdx(cls_[bi], ageBucket(now_ - birth_[bi]))] += 1.0;
}

void
LhdPolicy::recordEviction(std::size_t bi)
{
    evictHist_[histIdx(cls_[bi], ageBucket(now_ - birth_[bi]))] += 1.0;
}

void
LhdPolicy::onFill(unsigned set, unsigned way)
{
    const std::size_t bi = idx(set, way);
    // A fill over a live slot is an eviction the cache never reported
    // separately (the refill-pair onInvalidate skip, or a PInTE theft
    // that bypassed the policy): sample the departing block first.
    if (live_[bi])
        recordEviction(bi);
    birth_[bi] = now_;
    cls_[bi] = 0;
    live_[bi] = 1;
    tick();
}

void
LhdPolicy::onHit(unsigned set, unsigned way)
{
    const std::size_t bi = idx(set, way);
    if (live_[bi]) {
        recordHit(bi);
        if (cls_[bi] + 1u < numClasses)
            ++cls_[bi];
    } else {
        // PInTE promotes invalid slots (inserting on a previously
        // stolen way, Fig 2b): adopt the slot as a fresh class-0
        // block rather than sample a hit that never happened.
        cls_[bi] = 0;
        live_[bi] = 1;
    }
    birth_[bi] = now_;
    tick();
}

void
LhdPolicy::onInvalidate(unsigned set, unsigned way)
{
    const std::size_t bi = idx(set, way);
    if (live_[bi])
        recordEviction(bi);
    live_[bi] = 0;
    cls_[bi] = 0;
    birth_[bi] = now_;
    // No tick(): the event clock counts accesses (fills and hits), so
    // onInvalidate followed by onFill on the same way stays
    // state-identical to the fill alone — the identity Cache::evict's
    // refill-pair skip relies on.
}

void
LhdPolicy::reconfigure()
{
    // Reverse age scan per class (the NSDI'18 formulation): at bucket
    // a, the density of a block that reached age a is the probability
    // mass of hits at ages >= a over the event-weighted remaining
    // lifetime — ewLifetime accumulates totalEvents once per bucket
    // step, i.e. sum over events of (their age - a + 1) bucket-widths.
    for (unsigned c = 0; c < numClasses; ++c) {
        double hits = 0.0;
        double events = 0.0;
        double ew_lifetime = 0.0;
        for (int a = ageBuckets - 1; a >= 0; --a) {
            const std::size_t i = histIdx(c, static_cast<unsigned>(a));
            hits += hitHist_[i];
            events += hitHist_[i] + evictHist_[i];
            ew_lifetime += events;
            density_[i] = ew_lifetime > 0.0 ? hits / ew_lifetime : 0.0;
        }
    }
    // EWMA decay so the predictor tracks phase changes.
    for (double &h : hitHist_)
        h *= 0.5;
    for (double &h : evictHist_)
        h *= 0.5;
    sinceReconfig_ = 0;
}

void
LhdPolicy::auditSet(unsigned set) const
{
    ReplacementPolicy::auditSet(set); // permutation + bulk/per-way
    for (unsigned w = 0; w < assoc_; ++w) {
        const std::size_t bi = idx(set, w);
        if (birth_[bi] > now_)
            invariantFail("replacement:LHD",
                          "block born at " + std::to_string(birth_[bi]) +
                              ", after the event clock " +
                              std::to_string(now_),
                          set, w);
        if (cls_[bi] >= numClasses)
            invariantFail("replacement:LHD",
                          "hit-count class " + std::to_string(cls_[bi]) +
                              " out of range",
                          set, w);
        if (live_[bi] > 1)
            invariantFail("replacement:LHD",
                          "live flag holds non-boolean value " +
                              std::to_string(live_[bi]),
                          set, w);
    }
    if (sinceReconfig_ >= reconfigInterval)
        invariantFail("replacement:LHD",
                      "reconfiguration overdue: " +
                          std::to_string(sinceReconfig_) +
                          " events since the last one",
                      set);
}

void
LhdPolicy::saveState(SnapshotWriter &w) const
{
    w.put64(now_);
    w.put64(sinceReconfig_);
    w.putVec64(birth_);
    w.putVec8(cls_);
    w.putVec8(live_);
    for (const double h : hitHist_)
        w.putDouble(h);
    for (const double h : evictHist_)
        w.putDouble(h);
    for (const double d : density_)
        w.putDouble(d);
}

void
LhdPolicy::loadState(SnapshotReader &r)
{
    now_ = r.get64();
    sinceReconfig_ = r.get64();
    const std::string comp = "replacement:LHD";
    r.getVec64Into(birth_, comp);
    r.getVec8Into(cls_, comp, numClasses - 1);
    r.getVec8Into(live_, comp);
    for (double &h : hitHist_)
        h = r.getDouble();
    for (double &h : evictHist_)
        h = r.getDouble();
    for (double &d : density_)
        d = r.getDouble();
}

} // namespace pinte
