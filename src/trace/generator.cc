#include "generator.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/error.hh"
#include "common/logging.hh"

namespace pinte
{

namespace
{

/** Bytes per generated instruction. */
constexpr Addr instBytes = 4;

} // namespace

void
TraceSource::saveState(SnapshotWriter &) const
{
    throw SimError("trace source does not support checkpointing",
                   {"trace", "", ""});
}

void
TraceSource::loadState(SnapshotReader &)
{
    throw SimError("trace source does not support checkpointing",
                   {"trace", "", ""});
}

TraceGenerator::TraceGenerator(WorkloadSpec spec, std::uint64_t run_seed)
    : spec_(std::move(spec)), runSeed_(run_seed),
      rng_(spec_.seed * 0x100000001b3ull + run_seed)
{
    spec_.normalizeMix();
    if (spec_.footprintLines == 0)
        throw ConfigError("workload '" + spec_.name +
                              "' has zero footprint",
                          {"generator", "", spec_.name});
    if (spec_.hotLines > spec_.footprintLines)
        spec_.hotLines = spec_.footprintLines;
    if (spec_.phases == 0)
        spec_.phases = 1;
    if (spec_.phases > 1 && spec_.phaseLength == 0)
        throw ConfigError("workload '" + spec_.name +
                              "' has phases of zero length",
                          {"generator", "", spec_.name});
    strideStep_ = spec_.strideLines % spec_.footprintLines;

    // Build the pointer-chase cycle with Sattolo's algorithm: one cycle
    // through every line, so chase reuse distance == footprint.
    const std::size_t n = static_cast<std::size_t>(spec_.footprintLines);
    chaseNext_.resize(n);
    std::vector<std::uint32_t> perm(n);
    for (std::size_t i = 0; i < n; ++i)
        perm[i] = static_cast<std::uint32_t>(i);
    Rng chase_rng(spec_.seed ^ 0xc2b2ae3d27d4eb4full);
    for (std::size_t i = n - 1; i > 0; --i) {
        const std::size_t j = chase_rng.drawRange(i);
        std::swap(perm[i], perm[j]);
    }
    for (std::size_t i = 0; i < n; ++i)
        chaseNext_[perm[i]] = perm[(i + 1) % n];

    // Lay out branch sites: a third loop-like, the rest biased, with a
    // (1 - branchBias) slice of coin-flip sites that no predictor can
    // learn. Each site ends a basic block of blockLen_ instructions.
    Rng site_rng(spec_.seed ^ 0x9e3779b97f4a7c15ull);
    const std::uint32_t nsites = std::max<std::uint32_t>(1,
                                                         spec_.branchSites);
    sites_.resize(nsites);
    for (std::uint32_t i = 0; i < nsites; ++i) {
        BranchSite &s = sites_[i];
        s.ip = spec_.codeBase + (i + 1) * blockLen_ * instBytes - instBytes;
        // Backward target two blocks up (loop shape); forward otherwise.
        const Addr back = (i >= 2 ? s.ip - 2 * blockLen_ * instBytes
                                  : spec_.codeBase);
        s.target = back;
        const double r = site_rng.drawUnit();
        const double random_share = 1.0 - spec_.branchBias;
        if (r < random_share) {
            s.kind = BranchSite::Kind::Random;
        } else if (r < random_share + 0.33) {
            s.kind = BranchSite::Kind::Loop;
        } else {
            s.kind = BranchSite::Kind::Biased;
        }
        s.period = 2 + static_cast<std::uint32_t>(site_rng.drawRange(14));
        s.counter = 0;
        s.biasTaken = site_rng.drawBool(0.7);
    }

    codeEnd_ = spec_.codeBase + Addr{nsites} * blockLen_ * instBytes;

    for (auto &r : recentRegs_)
        r = 1;

    reset();
}

void
TraceGenerator::reset()
{
    rng_.reseed(spec_.seed * 0x100000001b3ull + runSeed_);
    generated_ = 0;
    seqCursor_ = 0;
    strideCursor_ = 0;
    chaseCursor_ = 0;
    siteIdx_ = 0;
    ip_ = spec_.codeBase;
    blockPos_ = 0;
    recentHead_ = 0;
    for (auto &s : sites_)
        s.counter = 0;
    for (auto &r : recentRegs_)
        r = 1;
    syncPhase();
}

void
TraceGenerator::syncPhase()
{
    if (spec_.phases <= 1) {
        phase_ = 0;
        phaseLeft_ = ~std::uint64_t{0};
        return;
    }
    phase_ = static_cast<std::uint32_t>(
        (generated_ / spec_.phaseLength) % spec_.phases);
    phaseLeft_ = spec_.phaseLength - generated_ % spec_.phaseLength;
}

std::uint64_t
TraceGenerator::nextDataLine()
{
    const std::uint32_t ph = phase_;
    // Later phases rotate the mix so phase changes are visible in the
    // run-time metric series (Fig 7 relies on dynamic behavior).
    double hot_frac = spec_.hotFraction;
    double stream_f = spec_.streamFraction;
    double stride_f = spec_.strideFraction;
    double chase_f = spec_.chaseFraction;
    if (ph == 1) {
        hot_frac *= 0.5;
        std::swap(stream_f, chase_f);
    } else if (ph == 2) {
        hot_frac = std::min(1.0, hot_frac * 1.5);
        std::swap(stream_f, stride_f);
    } else if (ph >= 3) {
        hot_frac *= 0.75;
    }

    if (spec_.hotLines > 0 && rng_.drawBool(hot_frac))
        return rng_.drawRange(spec_.hotLines);

    const double r = rng_.drawUnit();
    const std::uint64_t n = spec_.footprintLines;
    if (r < stream_f) {
        if (++seqCursor_ == n)
            seqCursor_ = 0;
        return seqCursor_;
    }
    if (r < stream_f + stride_f) {
        strideCursor_ += strideStep_;
        if (strideCursor_ >= n)
            strideCursor_ -= n;
        return strideCursor_;
    }
    if (r < stream_f + stride_f + chase_f) {
        chaseCursor_ = chaseNext_[chaseCursor_];
        return chaseCursor_;
    }
    return rng_.drawRange(n);
}

void
TraceGenerator::fillBranch(TraceRecord &r)
{
    BranchSite &s = sites_[siteIdx_];
    r.isBranch = true;
    r.ip = s.ip;
    r.branchTarget = s.target;
    switch (s.kind) {
      case BranchSite::Kind::Loop:
        s.counter++;
        r.branchTaken = (s.counter % s.period) != 0;
        break;
      case BranchSite::Kind::Biased:
        r.branchTaken = rng_.drawBool(0.9) ? s.biasTaken : !s.biasTaken;
        break;
      case BranchSite::Kind::Random:
        r.branchTaken = rng_.drawBool(0.5);
        break;
    }
    if (++siteIdx_ == sites_.size())
        siteIdx_ = 0;
    ip_ = r.branchTaken ? s.target
                        : s.ip + instBytes;
}

TraceRecord
TraceGenerator::next()
{
    TraceRecord r;
    r.ip = ip_;

    const bool block_end = (blockPos_ + 1 >= blockLen_);
    const bool is_branch = block_end && rng_.drawBool(
        std::min(1.0, spec_.branchFraction * blockLen_));

    if (is_branch) {
        fillBranch(r);
        blockPos_ = 0;
    } else {
        ip_ += instBytes;
        blockPos_ = block_end ? 0 : blockPos_ + 1;
        // Keep the synthetic code footprint bounded: wrap back to the
        // segment start once past the last branch site.
        if (ip_ >= codeEnd_)
            ip_ = spec_.codeBase;
    }

    // Memory operands.
    if (rng_.drawBool(spec_.loadFraction)) {
        r.loadAddr[r.numLoads++] =
            spec_.dataBase + nextDataLine() * blockSize +
            rng_.drawRange(blockSize / 8) * 8;
        // A small share of instructions carry a second load (gather-ish).
        if (rng_.drawBool(0.08)) {
            r.loadAddr[r.numLoads++] =
                spec_.dataBase + nextDataLine() * blockSize;
        }
    }
    if (rng_.drawBool(spec_.storeFraction)) {
        r.storeAddr[r.numStores++] =
            spec_.dataBase + nextDataLine() * blockSize +
            rng_.drawRange(blockSize / 8) * 8;
    }

    // Register dependencies: destination is pseudo-random; each source
    // follows a recent producer with probability depChain.
    r.dstReg = static_cast<std::uint8_t>(1 + rng_.drawRange(numArchRegs - 1));
    for (int i = 0; i < 2; ++i) {
        if (rng_.drawBool(0.8)) {
            if (rng_.drawBool(spec_.depChain)) {
                r.srcReg[i] = recentRegs_[(recentHead_ + 7) % 8];
            } else {
                r.srcReg[i] = static_cast<std::uint8_t>(
                    1 + rng_.drawRange(numArchRegs - 1));
            }
        }
    }
    recentRegs_[recentHead_] = r.dstReg;
    recentHead_ = (recentHead_ + 1) % 8;

    // Execution latency: mostly single-cycle with a long-latency tail.
    if (rng_.drawBool(spec_.longLatFraction)) {
        r.execLatency = static_cast<std::uint8_t>(8 + rng_.drawRange(8));
    } else {
        r.execLatency = rng_.drawBool(spec_.meanExecLatency - 1.0) ? 2 : 1;
    }

    ++generated_;
    if (--phaseLeft_ == 0)
        syncPhase();
    return r;
}

void
TraceGenerator::saveState(SnapshotWriter &w) const
{
    saveRng(w, rng_);
    w.put64(generated_);
    w.put64(seqCursor_);
    w.put64(strideCursor_);
    w.put64(chaseCursor_);
    w.put32(siteIdx_);
    w.put64(ip_);
    w.put32(blockPos_);
    w.put32(recentHead_);
    for (const std::uint8_t reg : recentRegs_)
        w.put8(reg);
    // Only the loop trip counters mutate after construction; the site
    // layout is rebuilt deterministically from the spec.
    w.put64(sites_.size());
    for (const BranchSite &s : sites_)
        w.put32(s.counter);
}

void
TraceGenerator::loadState(SnapshotReader &r)
{
    // Every cursor indexes a table or wraps by compare, so a value
    // out of range would read or write out of bounds: reject the
    // snapshot before touching any state.
    const auto checked = [&](std::uint64_t v, std::uint64_t bound,
                             const char *what) {
        if (v >= bound)
            throw SimError(std::string("checkpoint generator ") + what +
                               " out of range",
                           {"generator", "", std::to_string(v)});
        return v;
    };
    Rng rng;
    loadRng(r, rng);
    const std::uint64_t generated = r.get64();
    const std::uint64_t n = spec_.footprintLines;
    const std::uint64_t seq = checked(r.get64(), n, "sequential cursor");
    const std::uint64_t stride = checked(r.get64(), n, "stride cursor");
    const std::uint64_t chase = checked(r.get64(), n, "chase cursor");
    const auto site = static_cast<std::uint32_t>(
        checked(r.get32(), sites_.size(), "branch-site index"));
    const Addr ip = r.get64();
    const auto block_pos = static_cast<std::uint32_t>(
        checked(r.get32(), blockLen_, "block position"));
    const auto recent_head = static_cast<std::uint32_t>(
        checked(r.get32(), 8, "register-ring head"));
    std::uint8_t recent[8];
    for (std::uint8_t &reg : recent)
        reg = r.get8();
    const std::uint64_t nsites = r.get64();
    if (nsites != sites_.size())
        throw SimError("checkpoint branch-site count mismatch",
                       {"generator", "", std::to_string(nsites)});
    std::vector<std::uint32_t> counters(sites_.size());
    for (std::uint32_t &c : counters)
        c = r.get32();

    rng_ = rng;
    generated_ = generated;
    seqCursor_ = seq;
    strideCursor_ = stride;
    chaseCursor_ = chase;
    siteIdx_ = site;
    ip_ = ip;
    blockPos_ = block_pos;
    recentHead_ = recent_head;
    std::copy(std::begin(recent), std::end(recent), recentRegs_);
    for (std::size_t i = 0; i < sites_.size(); ++i)
        sites_[i].counter = counters[i];
    syncPhase();
}

VectorTraceSource::VectorTraceSource(std::vector<TraceRecord> records)
    : records_(std::move(records))
{
}

TraceRecord
VectorTraceSource::next()
{
    if (pos_ >= records_.size()) {
        // Wrap like ChampSim does when a trace is shorter than the
        // requested instruction budget.
        pos_ = 0;
        if (records_.empty())
            return TraceRecord{};
    }
    return records_[pos_++];
}

} // namespace pinte
