#include "traced.hh"

#include <algorithm>
#include <cmath>

#include "cache/cache.hh"
#include "core/pinte.hh"
#include "cpu/core.hh"
#include "dram/dram.hh"
#include "trace/generator.hh"

namespace perfbench
{

using namespace pinte;

const char *
layerName(int layer)
{
    switch (layer) {
      case TraceLayer: return "trace";
      case L1iLayer: return "cache.l1i";
      case L1dLayer: return "cache.l1d";
      case L2Layer: return "cache.l2";
      case LlcLayer: return "cache.llc";
      case PinteLayer: return "pinte";
      case DramLayer: return "dram";
    }
    return "unknown";
}

namespace
{

/** The span stack shared by every shim of one traced run. */
struct Tracer
{
    TracedRun &run;
    SpanStack stack;

    void enter(Layer l) { stack.enter(run.layers[l], nowNs()); }
    void exit() { stack.exit(nowNs()); }

    std::uint64_t
    closedSpans() const
    {
        std::uint64_t n = 0;
        for (const LayerTotals &t : run.layers)
            n += t.calls;
        return n;
    }
};

class LevelShim final : public MemoryLevel
{
  public:
    LevelShim(Tracer &t, Layer layer, MemoryLevel &inner)
        : t_(t), layer_(layer), inner_(inner)
    {
    }

    AccessResult
    access(const MemAccess &req) override
    {
        t_.enter(layer_);
        const AccessResult r = inner_.access(req);
        t_.exit();
        t_.run.hits[layer_] += r.hit;
        return r;
    }

    const char *levelName() const override { return inner_.levelName(); }

  private:
    Tracer &t_;
    Layer layer_;
    MemoryLevel &inner_;
};

class DramShim final : public MemoryLevel
{
  public:
    DramShim(Tracer &t, Dram &dram) : t_(t), dram_(dram) {}

    AccessResult
    access(const MemAccess &req) override
    {
        const std::uint64_t before = dram_.stats()[req.core].rowHits;
        t_.enter(DramLayer);
        const AccessResult r = dram_.access(req);
        t_.exit();
        t_.run.dramRowHits += dram_.stats()[req.core].rowHits - before;
        return r;
    }

    const char *levelName() const override { return dram_.levelName(); }

  private:
    Tracer &t_;
    Dram &dram_;
};

class TraceShim final : public TraceSource
{
  public:
    TraceShim(Tracer &t, TraceSource &inner) : t_(t), inner_(inner) {}

    TraceRecord
    next() override
    {
        t_.enter(TraceLayer);
        const TraceRecord r = inner_.next();
        t_.exit();
        return r;
    }

    void
    skip(std::uint64_t n) override
    {
        t_.enter(TraceLayer);
        inner_.skip(n);
        t_.exit();
    }

    void reset() override { inner_.reset(); }
    bool done() const override { return inner_.done(); }
    void saveState(SnapshotWriter &w) const override { inner_.saveState(w); }
    void loadState(SnapshotReader &r) override { inner_.loadState(r); }

  private:
    Tracer &t_;
    TraceSource &inner_;
};

class HookShim final : public ReplacementHook
{
  public:
    HookShim(Tracer &t, PInte &engine) : t_(t), engine_(engine) {}

    void
    onAccess(Cache &cache, unsigned set, CoreId core, Cycle cycle) override
    {
        const PInteStats before = engine_.stats();
        t_.enter(PinteLayer);
        engine_.onAccess(cache, set, core, cycle);
        t_.exit();
        t_.run.pinteTriggers += engine_.stats().triggers - before.triggers;
        t_.run.pinteInvalidations +=
            engine_.stats().invalidations - before.invalidations;
    }

  private:
    Tracer &t_;
    PInte &engine_;
};

/** The configuration adjustments System's constructor makes. */
MachineConfig
wired(MachineConfig m)
{
    m.l1i.numCores = m.l1d.numCores = m.l2.numCores = m.numCores;
    m.llc.numCores = m.numCores;
    m.dram.numCores = m.numCores;
    m.l1i.prefetcher = m.prefetch.l1i;
    m.l1d.prefetcher = m.prefetch.l1d;
    m.l2.prefetcher = m.prefetch.l2;
    m.l2.name = "L2.0";
    m.l1i.name = "L1I.0";
    m.l1d.name = "L1D.0";
    return m;
}

/** One core with its private caches, the LLC, DRAM and PInTE, wired
 *  as System wires them, with a shim at every boundary. */
class TracedMachine
{
  public:
    TracedMachine(const MachineConfig &m, TraceSource &source, Tracer &t)
        : cfg_(wired(m)), dram_(cfg_.dram), dramShim_(t, dram_),
          llc_(cfg_.llc, &dramShim_), llcShim_(t, LlcLayer, llc_),
          l2_(cfg_.l2, &llcShim_), l2Shim_(t, L2Layer, l2_),
          l1i_(cfg_.l1i, &l2Shim_), l1iShim_(t, L1iLayer, l1i_),
          l1d_(cfg_.l1d, &l2Shim_), l1dShim_(t, L1dLayer, l1d_),
          trace_(t, source), engine_(cfg_.pinte), hook_(t, engine_),
          core_(cfg_.core, 0, &trace_, &l1iShim_, &l1dShim_)
    {
        llc_.addUpstream(&l2_);
        l2_.addUpstream(&l1i_);
        l2_.addUpstream(&l1d_);
        if (cfg_.pinte.pInduce > 0.0)
            llc_.setReplacementHook(&hook_);
    }

    Core &core() { return core_; }
    const Cache &llc() const { return llc_; }
    const PInte &engine() const { return engine_; }

    void
    clearAllStats()
    {
        core_.clearStats();
        l1i_.clearStats();
        l1d_.clearStats();
        l2_.clearStats();
        llc_.clearStats();
        dram_.clearStats();
        engine_.clearStats();
    }

  private:
    MachineConfig cfg_;
    Dram dram_;
    DramShim dramShim_;
    Cache llc_;
    LevelShim llcShim_;
    Cache l2_;
    LevelShim l2Shim_;
    Cache l1i_;
    LevelShim l1iShim_;
    Cache l1d_;
    LevelShim l1dShim_;
    TraceShim trace_;
    PInte engine_;
    HookShim hook_;
    Core core_;
};

/**
 * The phase calls System and ExperimentSpec make for a one-core run,
 * each timed into its TracedRun phase.
 */
class Driver
{
  public:
    Driver(TracedMachine &m, Tracer &t) : m_(m), t_(t) {}

    /** System::warmup, detailed mode, one core. */
    void
    warmupDetailed(InstCount n)
    {
        timed(DetailedPhase, [&] { m_.core().runInstructions(n); });
        m_.clearAllStats();
    }

    /** System::warmup, functional-warming mode. */
    void
    warmupFunctional(InstCount n)
    {
        functional(n);
        m_.clearAllStats();
    }

    /** System::runUntilCore0, detailed mode. */
    void
    detailed(InstCount more)
    {
        Core &core = m_.core();
        const InstCount target = core.retired() + more;
        while (core.retired() < target) {
            const InstCount remaining = target - core.retired();
            Cycle quantum = 512;
            if (remaining < 256)
                quantum = remaining < 32 ? 4 : 64;
            timed(DetailedPhase, [&] { core.runCycles(quantum); });
        }
    }

    /** System::runUntilCore0, functional-warming mode. */
    void
    functional(InstCount more)
    {
        constexpr InstCount chunk = 1024;
        for (InstCount done = 0; done < more;) {
            const InstCount step = std::min(chunk, more - done);
            timed(FunctionalPhase,
                  [&] { m_.core().runInstructionsFunctional(step); });
            done += step;
        }
    }

    /** System::fastForwardCore0. */
    void
    skip(InstCount more)
    {
        timed(SkipPhase, [&] { m_.core().skipInstructions(more); });
    }

  private:
    template <typename F>
    void
    timed(Phase p, F &&f)
    {
        const std::uint64_t spans0 = t_.closedSpans();
        const InstCount r0 = m_.core().retired();
        const std::int64_t t0 = nowNs();
        f();
        TracedRun::PhaseTotals &pt = t_.run.phases[p];
        pt.ns += nowNs() - t0;
        pt.instructions += m_.core().retired() - r0;
        pt.spans += t_.closedSpans() - spans0;
    }

    TracedMachine &m_;
    Tracer &t_;
};

/** Counters ExperimentSpec's interval engine windows over. */
struct Window
{
    CoreStats core;
    PerCoreCacheStats llc;
};

/** Per-interval values, as ExperimentSpec records them. */
struct Accum
{
    std::vector<double> ipc, llcMpki, llcMissRate, amat, theftRate;
    std::vector<double> induced;
};

void
record(Accum &acc, const Window &now, const Window &then)
{
    const auto di = now.core.instructions - then.core.instructions;
    const auto dc = now.core.cycles - then.core.cycles;
    const auto dl = now.core.loads - then.core.loads;
    const auto dlat = now.core.totalLoadLatency - then.core.totalLoadLatency;
    const auto da = now.llc.accesses - then.llc.accesses;
    const auto dm = now.llc.misses - then.llc.misses;
    const auto dcaused = (now.llc.theftsCaused + now.llc.mockedThefts) -
                         (then.llc.theftsCaused + then.llc.mockedThefts);
    auto rate = [](std::uint64_t num, std::uint64_t den) {
        return den ? static_cast<double>(num) / static_cast<double>(den)
                   : 0.0;
    };
    acc.ipc.push_back(rate(di, dc));
    acc.llcMpki.push_back(
        di ? static_cast<double>(dm) / (static_cast<double>(di) / 1000.0)
           : 0.0);
    acc.llcMissRate.push_back(rate(dm, da));
    acc.amat.push_back(rate(dlat, dl));
    acc.theftRate.push_back(rate(dcaused, da));
}

/** Mean and 95% half-width, with ExperimentSpec's arithmetic. */
SampledStat
summarize(const std::string &name, const std::vector<double> &vals)
{
    SampledStat s;
    s.name = name;
    const std::size_t n = vals.size();
    if (n == 0)
        return s;
    double sum = 0.0;
    for (const double v : vals)
        sum += v;
    s.mean = sum / static_cast<double>(n);
    if (n > 1) {
        double ss = 0.0;
        for (const double v : vals)
            ss += (v - s.mean) * (v - s.mean);
        s.ci95 = 1.96 * std::sqrt(ss / static_cast<double>(n - 1) /
                                  static_cast<double>(n));
    }
    return s;
}

Outcome
runCell(const Cell &cell, TracedRun &run, Tracer &t)
{
    TraceGenerator gen(cell.spec);
    TracedMachine m(runMachine(cell), gen, t);
    Driver d(m, t);
    const ExperimentParams &p = cell.params;
    const SamplingParams &sp = p.sampling;
    Outcome o;

    const std::int64_t t0 = nowNs();
    if (!sp.enabled()) {
        d.warmupDetailed(p.warmup);
        for (InstCount done = 0; done < p.roi;) {
            const InstCount step =
                std::min<InstCount>(p.sampleEvery, p.roi - done);
            d.detailed(step);
            done += step;
        }
    } else {
        d.warmupFunctional(p.warmup);
        Accum acc;
        std::uint64_t k = 0;
        for (InstCount done = 0; done < p.roi; done += sp.intervalLength,
                       ++k) {
            const InstCount step =
                std::min<InstCount>(sp.intervalLength, p.roi - done);
            if (intervalIsDetailed(sp, k)) {
                const Window then{m.core().stats(),
                                  m.llc().stats().perCore[0]};
                const PInteStats eng = m.engine().stats();
                d.detailed(step);
                const Window now{m.core().stats(),
                                 m.llc().stats().perCore[0]};
                record(acc, now, then);
                const auto dacc =
                    m.engine().stats().accessesSeen - eng.accessesSeen;
                const auto dtrig =
                    m.engine().stats().triggers - eng.triggers;
                acc.induced.push_back(dacc ? static_cast<double>(dtrig) /
                                                 static_cast<double>(dacc)
                                           : 0.0);
                ++o.detailedIntervals;
            } else if (intervalIsDetailed(sp, k + 1)) {
                d.functional(step);
            } else {
                d.skip(step);
            }
        }
        o.sampled = {summarize("ipc", acc.ipc),
                     summarize("llc_mpki", acc.llcMpki),
                     summarize("llc_miss_rate", acc.llcMissRate),
                     summarize("amat", acc.amat),
                     summarize("theft_rate", acc.theftRate)};
        if (cell.pInduce > 0.0)
            o.sampled.push_back(summarize("induced_theft_rate",
                                          acc.induced));
    }
    run.wallNs += nowNs() - t0;
    run.instructions += m.core().retired();

    const CoreStats &cs = m.core().stats();
    const PerCoreCacheStats &llc = m.llc().stats().perCore[0];
    o.ipc = cs.ipc();
    o.amat = cs.amat();
    o.llcMissRate = llc.missRate();
    const double kilo_inst = static_cast<double>(cs.instructions) / 1000.0;
    if (kilo_inst > 0.0)
        o.llcMpki = static_cast<double>(llc.misses) / kilo_inst;
    o.llcAccesses = llc.accesses;
    o.llcMisses = llc.misses;
    if (cell.pInduce > 0.0) {
        o.pinteAccesses = m.engine().stats().accessesSeen;
        o.pinteTriggers = m.engine().stats().triggers;
        o.pinteInvalidations = m.engine().stats().invalidations;
    }
    return o;
}

} // namespace

TracedRun
runTraced(const Workload &w)
{
    TracedRun run;
    Tracer t{run, {}};
    for (const Cell &c : w.cells)
        run.digests.push_back(digest(runCell(c, run, t)));
    run.rootSpans = t.stack.roots();
    return run;
}

} // namespace perfbench
