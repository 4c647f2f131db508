#include "experiment.hh"

#include "common/error.hh"
#include "common/fault.hh"
#include "common/invariant.hh"
#include "common/logging.hh"
#include "common/snapshot.hh"
#include "common/trace_events.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <memory>

#include "sim/watchdog.hh"

namespace pinte
{

namespace
{

/**
 * CPU time consumed by the calling thread, in seconds. Used instead
 * of a wall clock so per-experiment costs are stable whether the
 * campaign runs serially or across a worker pool.
 */
double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** Cumulative counters captured at sample/interval boundaries. */
struct CounterWindow
{
    CoreStats core;
    PerCoreCacheStats llc;

    static CounterWindow
    take(System &sys, unsigned c)
    {
        CounterWindow s;
        s.core = sys.core(c).stats();
        s.llc = sys.llc().stats().perCore[c];
        return s;
    }
};

/** Compute a Sample from the delta between two counter windows. */
Sample
diff(const CounterWindow &now, const CounterWindow &then, System &sys,
     unsigned c)
{
    Sample s;
    const auto di = now.core.instructions - then.core.instructions;
    const auto dc = now.core.cycles - then.core.cycles;
    const auto dl = now.core.loads - then.core.loads;
    const auto dlat =
        now.core.totalLoadLatency - then.core.totalLoadLatency;
    const auto da = now.llc.accesses - then.llc.accesses;
    const auto dm = now.llc.misses - then.llc.misses;
    const auto dsuf = (now.llc.theftsSuffered + now.llc.mockedThefts) -
                      (then.llc.theftsSuffered + then.llc.mockedThefts);
    // Thefts "happening" around this workload: ones it causes plus the
    // system-mocked ones. A PInTE run has no co-runner to steal from,
    // so its theft activity is the induced evictions themselves.
    const auto dcaused =
        (now.llc.theftsCaused + now.llc.mockedThefts) -
        (then.llc.theftsCaused + then.llc.mockedThefts);

    s.instructions = di;
    s.ipc = dc ? static_cast<double>(di) / static_cast<double>(dc) : 0.0;
    s.missRate = da ? static_cast<double>(dm) / static_cast<double>(da)
                    : 0.0;
    s.amat = dl ? static_cast<double>(dlat) / static_cast<double>(dl)
                : 0.0;
    s.interferenceRate =
        da ? static_cast<double>(dsuf) / static_cast<double>(da) : 0.0;
    s.theftRate =
        da ? static_cast<double>(dcaused) / static_cast<double>(da) : 0.0;

    const Cache &llc = sys.llc();
    const double blocks =
        static_cast<double>(llc.numSets()) * llc.assoc();
    s.occupancyFraction = static_cast<double>(llc.occupancy(c)) / blocks;
    return s;
}

/** Per-core metric values collected over the detailed intervals. */
struct IntervalAccum
{
    std::vector<double> ipc;
    std::vector<double> llcMpki;
    std::vector<double> llcMissRate;
    std::vector<double> amat;
    std::vector<double> theftRate;
};

/** Record one detailed interval's metric deltas into `acc`. */
void
recordInterval(IntervalAccum &acc, const CounterWindow &now,
               const CounterWindow &then)
{
    const auto di = now.core.instructions - then.core.instructions;
    const auto dc = now.core.cycles - then.core.cycles;
    const auto dl = now.core.loads - then.core.loads;
    const auto dlat =
        now.core.totalLoadLatency - then.core.totalLoadLatency;
    const auto da = now.llc.accesses - then.llc.accesses;
    const auto dm = now.llc.misses - then.llc.misses;
    const auto dcaused =
        (now.llc.theftsCaused + now.llc.mockedThefts) -
        (then.llc.theftsCaused + then.llc.mockedThefts);

    auto rate = [](std::uint64_t num, std::uint64_t den) {
        return den ? static_cast<double>(num) /
                         static_cast<double>(den)
                   : 0.0;
    };
    acc.ipc.push_back(rate(di, dc));
    acc.llcMpki.push_back(
        di ? static_cast<double>(dm) /
                 (static_cast<double>(di) / 1000.0)
           : 0.0);
    acc.llcMissRate.push_back(rate(dm, da));
    acc.amat.push_back(rate(dlat, dl));
    acc.theftRate.push_back(rate(dcaused, da));
}

/** Mean and 95% confidence half-width of per-interval values. */
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
        const double sem = std::sqrt(
            ss / static_cast<double>(n - 1) / static_cast<double>(n));
        s.ci95 = 1.96 * sem;
    }
    return s;
}

/** splitmix64 finalizer, the interval-selection hash. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Serialize one core's recorded Samples (checkpoint payload). */
void
saveSamples(SnapshotWriter &w, const std::vector<Sample> &samples)
{
    w.put64(samples.size());
    for (const Sample &s : samples) {
        w.putDouble(s.ipc);
        w.putDouble(s.missRate);
        w.putDouble(s.amat);
        w.putDouble(s.interferenceRate);
        w.putDouble(s.theftRate);
        w.putDouble(s.occupancyFraction);
        w.put64(s.instructions);
    }
}

std::vector<Sample>
loadSamples(SnapshotReader &r)
{
    std::vector<Sample> out(r.get64());
    for (Sample &s : out) {
        s.ipc = r.getDouble();
        s.missRate = r.getDouble();
        s.amat = r.getDouble();
        s.interferenceRate = r.getDouble();
        s.theftRate = r.getDouble();
        s.occupancyFraction = r.getDouble();
        s.instructions = r.get64();
    }
    return out;
}

void
saveDoubles(SnapshotWriter &w, const std::vector<double> &v)
{
    w.put64(v.size());
    for (const double d : v)
        w.putDouble(d);
}

std::vector<double>
loadDoubles(SnapshotReader &r)
{
    std::vector<double> out(r.get64());
    for (double &d : out)
        d = r.getDouble();
    return out;
}

/** True if a file exists (resume probe; validation happens on read). */
bool
fileExists(const std::string &path)
{
    if (std::FILE *f = std::fopen(path.c_str(), "rb")) {
        std::fclose(f);
        return true;
    }
    return false;
}

} // namespace

const char *
toString(SampleMode m)
{
    switch (m) {
      case SampleMode::Off: return "off";
      case SampleMode::Periodic: return "periodic";
      case SampleMode::Random: return "random";
    }
    return "unknown";
}

const char *
toString(IsolationMode m)
{
    switch (m) {
      case IsolationMode::Thread: return "thread";
      case IsolationMode::Process: return "process";
      case IsolationMode::Spool: return "spool";
    }
    return "unknown";
}

SampleMode
parseSampleMode(const std::string &text)
{
    if (text == "off")
        return SampleMode::Off;
    if (text == "periodic")
        return SampleMode::Periodic;
    if (text == "random")
        return SampleMode::Random;
    throw ConfigError("unknown sample mode '" + text +
                          "' (expected off, periodic or random)",
                      {"experiment", "", text});
}

bool
intervalIsDetailed(const SamplingParams &sp, std::uint64_t k)
{
    switch (sp.mode) {
      case SampleMode::Off:
        return true;
      case SampleMode::Periodic: {
        const auto period = static_cast<std::uint64_t>(
            std::max(1.0, std::floor(1.0 / sp.detailedFraction + 0.5)));
        return k % period == 0;
      }
      case SampleMode::Random: {
        // 53-bit uniform draw from a stateless hash of (seed, k).
        const std::uint64_t h = mix64(sp.seed ^ mix64(k));
        const double u =
            static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
        return u < sp.detailedFraction;
      }
    }
    return true;
}

RunMetrics
computeRunMetrics(const System &sys, unsigned c)
{
    const StatRegistry &reg = sys.registry();
    const std::string n = std::to_string(c);
    const std::string core = "core" + n;
    const std::string llc = "llc.core" + n;
    const std::string l2 = "l2." + n + ".core" + n;
    const std::string l1d = "l1d." + n + ".core" + n;

    RunMetrics m;
    m.l1dMissRate = reg.value(l1d + ".miss_rate");
    m.l2MissRate = reg.value(l2 + ".miss_rate");
    m.l2InterferenceRate = reg.value(l2 + ".contention_rate");
    const std::uint64_t pf_issued =
        reg.counter(l1d + ".prefetch_issued") +
        reg.counter(l2 + ".prefetch_issued");
    const std::uint64_t pf_missed =
        reg.counter(l1d + ".prefetch_misses") +
        reg.counter(l2 + ".prefetch_misses");
    m.prefetchMissRate =
        pf_issued ? static_cast<double>(pf_missed) /
                        static_cast<double>(pf_issued)
                  : 0.0;

    m.ipc = reg.value(core + ".ipc");
    m.amat = reg.value(core + ".amat");
    m.branchAccuracy = reg.value(core + ".branch_accuracy");
    m.missRate = reg.value(llc + ".miss_rate");
    m.interferenceRate = reg.value(llc + ".contention_rate");
    // As in diff(): a PInTE run's theft activity is the induced
    // evictions; a pair run's is what the workload steals from peers.
    const std::uint64_t accesses = reg.counter(llc + ".accesses");
    const std::uint64_t caused = reg.counter(llc + ".thefts_caused") +
                                 reg.counter(llc + ".mocked_thefts");
    m.theftRate = accesses ? static_cast<double>(caused) /
                                 static_cast<double>(accesses)
                           : 0.0;
    m.llcAccesses = accesses;
    m.llcMisses = reg.counter(llc + ".misses");

    const double kilo_inst =
        static_cast<double>(reg.counter(core + ".instructions")) /
        1000.0;
    if (kilo_inst > 0.0) {
        m.l2Mpki = static_cast<double>(reg.counter(l2 + ".misses")) /
                   kilo_inst;
        m.llcMpki = static_cast<double>(m.llcMisses) / kilo_inst;
    }
    const std::uint64_t wb = reg.counter(llc + ".writeback_misses");
    const double alloc_misses =
        static_cast<double>(m.llcMisses + wb);
    if (alloc_misses > 0.0)
        m.llcWbShare = static_cast<double>(wb) / alloc_misses;

    m.llcOccupancyFraction = reg.value(llc + ".occupancy_fraction");
    return m;
}

RunMetrics
computeRunMetricsLegacy(const System &sys, unsigned c)
{
    RunMetrics m;
    const CoreStats &core = sys.core(c).stats();
    const PerCoreCacheStats &llc = sys.llc().stats().perCore[c];
    const PerCoreCacheStats &l2 = sys.l2(c).stats().perCore[c];
    const PerCoreCacheStats &l1d = sys.l1d(c).stats().perCore[c];

    m.l1dMissRate = l1d.missRate();
    m.l2MissRate = l2.missRate();
    m.l2InterferenceRate = l2.contentionRate();
    const std::uint64_t pf_issued = l1d.prefetchIssued +
                                    l2.prefetchIssued;
    const std::uint64_t pf_missed = l1d.prefetchMisses +
                                    l2.prefetchMisses;
    m.prefetchMissRate =
        pf_issued ? static_cast<double>(pf_missed) /
                        static_cast<double>(pf_issued)
                  : 0.0;

    m.ipc = core.ipc();
    m.amat = core.amat();
    m.branchAccuracy = core.branchAccuracy();
    m.missRate = llc.missRate();
    m.interferenceRate = llc.contentionRate();
    m.theftRate = llc.accesses
                      ? static_cast<double>(llc.theftsCaused +
                                            llc.mockedThefts) /
                            static_cast<double>(llc.accesses)
                      : 0.0;
    m.llcAccesses = llc.accesses;
    m.llcMisses = llc.misses;

    const double kilo_inst =
        static_cast<double>(core.instructions) / 1000.0;
    if (kilo_inst > 0.0) {
        m.l2Mpki = static_cast<double>(l2.misses) / kilo_inst;
        m.llcMpki = static_cast<double>(llc.misses) / kilo_inst;
    }
    const double alloc_misses =
        static_cast<double>(llc.misses + llc.writebackMisses);
    if (alloc_misses > 0.0)
        m.llcWbShare =
            static_cast<double>(llc.writebackMisses) / alloc_misses;

    const Cache &cache = sys.llc();
    m.llcOccupancyFraction =
        static_cast<double>(cache.occupancy(c)) /
        (static_cast<double>(cache.numSets()) * cache.assoc());
    return m;
}

ExperimentSpec &
ExperimentSpec::workload(const WorkloadSpec &spec)
{
    if (mixMode_)
        throw ConfigError("ExperimentSpec: workload() cannot follow mix()",
                          {"experiment", "", spec.name});
    if (!workloads_.empty())
        throw ConfigError("ExperimentSpec: primary workload already set "
                          "(use secondTrace() or mix() for co-runners)",
                          {"experiment", "", spec.name});
    workloads_.push_back(spec);
    return *this;
}

ExperimentSpec &
ExperimentSpec::mix(const std::vector<WorkloadSpec> &specs)
{
    if (!workloads_.empty() || mixMode_ || pairMode_)
        throw ConfigError("ExperimentSpec: mix() replaces all workloads "
                          "and cannot follow workload()/secondTrace()",
                          {"experiment", "", ""});
    if (pinteSet_)
        throw ConfigError("ExperimentSpec: pinte() does not combine "
                          "with mix()",
                          {"experiment", "", ""});
    workloads_ = specs;
    mixMode_ = true;
    return *this;
}

ExperimentSpec &
ExperimentSpec::secondTrace(const WorkloadSpec &peer)
{
    if (mixMode_ || pairMode_)
        throw ConfigError("ExperimentSpec: secondTrace() requires exactly "
                          "one prior workload() and no mix()",
                          {"experiment", "", peer.name});
    if (workloads_.size() != 1)
        throw ConfigError("ExperimentSpec: call workload() before "
                          "secondTrace()",
                          {"experiment", "", peer.name});
    if (pinteSet_)
        throw ConfigError("ExperimentSpec: pinte() does not combine with "
                          "secondTrace() — the 2nd trace is the "
                          "contention source",
                          {"experiment", "", peer.name});
    workloads_.push_back(peer);
    pairMode_ = true;
    return *this;
}

ExperimentSpec &
ExperimentSpec::pinte(double p_induce)
{
    if (pairMode_ || mixMode_)
        throw ConfigError("ExperimentSpec: pinte() does not combine with "
                          "secondTrace()/mix()",
                          {"experiment", "", ""});
    if (p_induce < 0.0 || p_induce > 1.0)
        throw ConfigError("ExperimentSpec: P_Induce out of [0, 1]: " +
                              std::to_string(p_induce),
                          {"experiment", "", std::to_string(p_induce)});
    pInduce_ = p_induce;
    pinteSet_ = true;
    return *this;
}

ExperimentSpec &
ExperimentSpec::scope(PInteScope s)
{
    scope_ = s;
    scopeSet_ = true;
    return *this;
}

ExperimentSpec &
ExperimentSpec::dramComplement(double factor)
{
    if (factor < 0.0)
        throw ConfigError("ExperimentSpec: DRAM complement factor must "
                          "be >= 0",
                          {"experiment", "", std::to_string(factor)});
    dramFactor_ = factor;
    return *this;
}

ExperimentSpec &
ExperimentSpec::params(const ExperimentParams &p)
{
    params_ = p;
    return *this;
}

std::string
ExperimentSpec::contentionLabel(std::size_t core) const
{
    if (pairMode_)
        return workloads_[1 - core].name;
    if (mixMode_)
        return "mix-of-" + std::to_string(workloads_.size());
    if (!pinteSet_)
        return "isolation";
    std::string label =
        scopeSet_ ? "pinte[" + std::string(toString(scope_)) + "]@" +
                        std::to_string(pInduce_)
                  : "pinte@" + std::to_string(pInduce_);
    if (dramFactor_ > 0.0)
        label += "+dram";
    return label;
}

RunResult
ExperimentSpec::run() const
{
    return runAll().front();
}

std::vector<RunResult>
ExperimentSpec::runAll(const std::function<void(System &)> &onFinish,
                       const TraceStores &traces,
                       unsigned producers) const
{
    if (workloads_.empty())
        throw ConfigError("ExperimentSpec: at least one workload required",
                          {"experiment", "", ""});
    if ((scopeSet_ || dramFactor_ > 0.0) && !pinteSet_)
        throw ConfigError("ExperimentSpec: scope()/dramComplement() "
                          "require pinte()",
                          {"experiment", "", ""});

    const SamplingParams &sp = params_.sampling;
    if (sp.enabled()) {
        if (sp.intervalLength == 0)
            throw ConfigError("ExperimentSpec: sampling interval length "
                              "must be > 0",
                              {"experiment", "", "0"});
        if (!(sp.detailedFraction > 0.0) || sp.detailedFraction > 1.0)
            throw ConfigError(
                "ExperimentSpec: detailed fraction out of (0, 1]: " +
                    std::to_string(sp.detailedFraction),
                {"experiment", "", std::to_string(sp.detailedFraction)});
        if (params_.sampleIntervalCycles)
            throw ConfigError(
                "ExperimentSpec: the cycle-based time-series sampler "
                "does not combine with interval sampling (functional "
                "phases have no meaningful cycle flow)",
                {"experiment", "", ""});
    }
    if (!params_.checkpointPath.empty() && params_.sampleIntervalCycles)
        throw ConfigError(
            "ExperimentSpec: checkpointing does not combine with the "
            "time-series sampler (StatSampler state is not serialized)",
            {"experiment", "", params_.checkpointPath});

    MachineConfig machine = machine_;
    machine.numCores = static_cast<unsigned>(workloads_.size());
    if (pinteSet_) {
        machine.pinte.pInduce = pInduce_;
        machine.pinte.seed =
            0x5157 + params_.runSeed * 0x9e3779b9ull;
        if (scopeSet_)
            machine.pinteScope = scope_;
        if (dramFactor_ > 0.0)
            machine.dram.contentionExtra =
                static_cast<Cycle>(pInduce_ * dramFactor_);
    } else {
        machine.pinte.pInduce = 0.0;
    }

    std::vector<std::unique_ptr<TraceSource>> gens;
    std::vector<TraceSource *> sources;
    for (std::size_t i = 0; i < workloads_.size(); ++i) {
        WorkloadSpec s = coreWorkload(i);
        std::unique_ptr<TraceSource> src;
        if (i < traces.size() && traces[i]) {
            if (!(traces[i]->spec() == s))
                throw ConfigError("trace store realizes '" +
                                      traces[i]->spec().name +
                                      "', not core " + std::to_string(i) +
                                      "'s workload",
                                  {"experiment", "", s.name});
            src = std::make_unique<TraceReplay>(traces[i]);
        } else {
            src = std::make_unique<TraceGenerator>(s);
        }
        if (i < producers)
            src = std::make_unique<TracePump>(std::move(src));
        sources.push_back(src.get());
        gens.push_back(std::move(src));
    }
    System sys(machine, sources);

    if (faultInjected("job"))
        throw SimError("injected fault: job", {"experiment", "", ""});

    // Checkpoints are keyed on everything that shapes the run: a
    // snapshot taken under different scale/sampling parameters or a
    // different workload set must be rejected, not resumed into.
    std::string ckpt_key;
    if (!params_.checkpointPath.empty()) {
        ckpt_key = machine.fingerprint() + "|w" +
                   std::to_string(params_.warmup) + "|r" +
                   std::to_string(params_.roi) + "|s" +
                   std::to_string(params_.sampleEvery) + "|seed" +
                   std::to_string(params_.runSeed);
        if (sp.enabled())
            ckpt_key += "|sm" + std::string(toString(sp.mode)) + "|il" +
                        std::to_string(sp.intervalLength) + "|df" +
                        std::to_string(sp.detailedFraction) + "|ss" +
                        std::to_string(sp.seed);
        for (const auto &wl : workloads_)
            ckpt_key += "|" + wl.name;
    }

    const double t0 = threadCpuSeconds();
    const unsigned n = sys.numCores();
    std::vector<RunResult> results(n);
    for (unsigned i = 0; i < n; ++i) {
        results[i].workload = workloads_[i].name;
        results[i].contention = contentionLabel(i);
        results[i].reuse = Histogram(sys.llc().assoc());
    }

    // ROI progress, serialized into checkpoints alongside the machine
    // state so a resumed run continues exactly where it stopped.
    InstCount done = 0;
    std::uint64_t interval_idx = 0;
    InstCount detailed_instr = 0;
    std::uint64_t detailed_intervals = 0;
    std::vector<IntervalAccum> accum(n);
    std::vector<double> induced;

    bool resumed = false;
    if (!params_.checkpointPath.empty() &&
        fileExists(params_.checkpointPath)) {
        SnapshotReader r(
            readSnapshotFile(params_.checkpointPath, ckpt_key));
        done = r.get64();
        interval_idx = r.get64();
        detailed_instr = r.get64();
        detailed_intervals = r.get64();
        for (unsigned i = 0; i < n; ++i)
            results[i].samples = loadSamples(r);
        for (unsigned i = 0; i < n; ++i) {
            accum[i].ipc = loadDoubles(r);
            accum[i].llcMpki = loadDoubles(r);
            accum[i].llcMissRate = loadDoubles(r);
            accum[i].amat = loadDoubles(r);
            accum[i].theftRate = loadDoubles(r);
        }
        induced = loadDoubles(r);
        sys.loadState(r);
        if (!r.exhausted())
            throw SimError("checkpoint has trailing bytes",
                           {"snapshot", params_.checkpointPath,
                            std::to_string(r.remaining())});
        resumed = true;
        inform("resumed " + workloads_[0].name + " at " +
               std::to_string(done) + "/" + std::to_string(params_.roi) +
               " ROI instructions from " + params_.checkpointPath);
    }

    if (!resumed) {
        TraceEvents::Span span("run", "warmup " + workloads_[0].name);
        // A sampled run warms functionally — that phase is exactly
        // the functional-warming workload the mode was built for.
        if (sp.enabled())
            sys.setExecMode(ExecMode::FunctionalWarming);
        sys.warmup(params_.warmup);
        sys.setExecMode(ExecMode::Detailed);
    }

    // Sampling baselines right after warmup's clearAllStats, so every
    // interval delta accumulates from zero and the column sums equal
    // the end-of-run counters exactly (the conservation identity
    // tests/test_observability.cc pins).
    sys.startSampling(params_.sampleIntervalCycles);

    if (faultInjected("hang")) {
        // Simulate a wedged job: no instruction progress, forever.
        // Only the watchdog (--job-timeout) can break this loop.
        for (;;)
            JobWatchdog::heartbeat(0);
    }

    std::vector<CounterWindow> prev;
    for (unsigned i = 0; i < n; ++i)
        prev.push_back(CounterWindow::take(sys, i));
    PInteStats eng_prev =
        sys.pinte() ? sys.pinte()->stats() : PInteStats{};

    // Checkpoints are written at step/interval boundaries only: the
    // recorded progress state and the machine state are consistent
    // there by construction (prev windows equal the live counters).
    InstCount since_ckpt = 0;
    auto maybeCheckpoint = [&](InstCount step) {
        if (params_.checkpointPath.empty() ||
            params_.checkpointEvery == 0)
            return;
        since_ckpt += step;
        if (since_ckpt < params_.checkpointEvery || done >= params_.roi)
            return;
        since_ckpt = 0;
        SnapshotWriter w;
        w.put64(done);
        w.put64(interval_idx);
        w.put64(detailed_instr);
        w.put64(detailed_intervals);
        for (unsigned i = 0; i < n; ++i)
            saveSamples(w, results[i].samples);
        for (unsigned i = 0; i < n; ++i) {
            saveDoubles(w, accum[i].ipc);
            saveDoubles(w, accum[i].llcMpki);
            saveDoubles(w, accum[i].llcMissRate);
            saveDoubles(w, accum[i].amat);
            saveDoubles(w, accum[i].theftRate);
        }
        saveDoubles(w, induced);
        sys.saveState(w);
        writeSnapshotFile(params_.checkpointPath, ckpt_key, w.bytes());
    };

    {
        TraceEvents::Span span("run", "measure " + workloads_[0].name);
        if (sp.enabled()) {
            // Interval engine: fast-forward functionally between the
            // detailed intervals the schedule selects; measure only
            // inside detailed intervals.
            while (done < params_.roi) {
                const InstCount step = std::min<InstCount>(
                    sp.intervalLength, params_.roi - done);
                if (intervalIsDetailed(sp, interval_idx)) {
                    sys.setExecMode(ExecMode::Detailed);
                    for (unsigned i = 0; i < n; ++i)
                        prev[i] = CounterWindow::take(sys, i);
                    if (sys.pinte())
                        eng_prev = sys.pinte()->stats();
                    sys.runUntilCore0(step);
                    for (unsigned i = 0; i < n; ++i) {
                        const CounterWindow now =
                            CounterWindow::take(sys, i);
                        recordInterval(accum[i], now, prev[i]);
                        results[i].samples.push_back(
                            diff(now, prev[i], sys, i));
                        prev[i] = now;
                    }
                    if (sys.pinte()) {
                        const PInteStats &e = sys.pinte()->stats();
                        const auto dacc =
                            e.accessesSeen - eng_prev.accessesSeen;
                        const auto dtrig =
                            e.triggers - eng_prev.triggers;
                        induced.push_back(
                            dacc ? static_cast<double>(dtrig) /
                                       static_cast<double>(dacc)
                                 : 0.0);
                        eng_prev = e;
                    }
                    detailed_instr += step;
                    ++detailed_intervals;
                } else if (intervalIsDetailed(sp, interval_idx + 1)) {
                    // Warm window: the interval right before a
                    // detailed one runs functionally so caches,
                    // predictors and PInTE counters are warm when
                    // measurement starts.
                    sys.setExecMode(ExecMode::FunctionalWarming);
                    sys.runUntilCore0(step);
                } else {
                    // Everything else is pure fast-forward: the trace
                    // advances, the machine sees nothing. This is
                    // where the interval engine's speedup comes from.
                    sys.fastForwardCore0(step);
                }
                done += step;
                ++interval_idx;
                maybeCheckpoint(step);
            }
            sys.setExecMode(ExecMode::Detailed);
        } else {
            while (done < params_.roi) {
                const InstCount step = std::min<InstCount>(
                    params_.sampleEvery, params_.roi - done);
                sys.runUntilCore0(step);
                done += step;
                for (unsigned i = 0; i < n; ++i) {
                    const CounterWindow now = CounterWindow::take(sys, i);
                    results[i].samples.push_back(
                        diff(now, prev[i], sys, i));
                    prev[i] = now;
                }
                maybeCheckpoint(step);
            }
        }
    }
    sys.finishSampling();

    // End-of-run conservation audit: even at a sparse sweep interval,
    // every run finishes with a full structural + stat-identity check
    // before its metrics are published.
    if (Paranoid::on()) {
        sys.audit();
        sys.auditStats();
    }
    if (onFinish)
        onFinish(sys);

    for (unsigned i = 0; i < n; ++i) {
        results[i].metrics = computeRunMetrics(sys, i);
        results[i].reuse.merge(sys.llc().stats().reuse[i]);
    }
    if (sys.pinte())
        results[0].pinte = sys.pinte()->stats();

    if (sp.enabled()) {
        for (unsigned i = 0; i < n; ++i) {
            SampledStats &ss = results[i].sampled;
            ss.mode = sp.mode;
            ss.intervalLength = sp.intervalLength;
            ss.detailedFraction = sp.detailedFraction;
            ss.intervals = interval_idx;
            ss.detailedIntervals = detailed_intervals;
            ss.detailedInstructions = detailed_instr;
            ss.totalInstructions = done;
            ss.stats.push_back(summarize("ipc", accum[i].ipc));
            ss.stats.push_back(summarize("llc_mpki", accum[i].llcMpki));
            ss.stats.push_back(
                summarize("llc_miss_rate", accum[i].llcMissRate));
            ss.stats.push_back(summarize("amat", accum[i].amat));
            ss.stats.push_back(
                summarize("theft_rate", accum[i].theftRate));
            if (i == 0 && sys.pinte())
                ss.stats.push_back(
                    summarize("induced_theft_rate", induced));
        }
    }

    // Machine-global observability payloads ride on core 0's result:
    // the recorded time series (if sampling was on) and every log2
    // histogram the components registered.
    results[0].timeseries = sys.timeseries();
    for (const auto &e : sys.registry().entries()) {
        if (e->kind != StatRegistry::Kind::Log2)
            continue;
        HistogramData h;
        h.path = e->path;
        h.counts = e->log2->counts();
        h.total = e->log2->total();
        results[0].histograms.push_back(std::move(h));
    }

    double cpu = threadCpuSeconds() - t0;
    // A pumped trace is produced on its producer thread, which
    // started after t0: that CPU time is this run's too.
    for (const auto &g : gens)
        if (auto *pump = dynamic_cast<TracePump *>(g.get()))
            cpu += pump->producerCpuSeconds();
    for (auto &r : results)
        r.cpuSeconds = cpu;
    return results;
}

WorkloadSpec
ExperimentSpec::coreWorkload(std::size_t core) const
{
    // Each trace gets a private address space (ChampSim offsets
    // physical pages per cpu the same way); without this, identical
    // zoo addresses would alias in the shared LLC instead of
    // contending for it.
    WorkloadSpec s = workloads_.at(core);
    s.dataBase += 0x800000000ull * core;
    s.codeBase += 0x40000000ull * core;
    return s;
}

RunOutcome
ExperimentSpec::tryRun(const TraceStores &traces, unsigned producers) const
{
    auto all = tryRunAll(traces, producers);
    return {std::move(all.front().result)};
}

std::vector<RunOutcome>
ExperimentSpec::tryRunAll(const TraceStores &traces,
                          unsigned producers) const
{
    // Labels for the placeholder cells a faulted job leaves behind;
    // computed up-front because the fault may hit before runAll()
    // assigns them.
    auto placeholders = [&](const RunError &err) {
        const std::size_t n = std::max<std::size_t>(workloads_.size(), 1);
        std::vector<RunOutcome> out(n);
        for (std::size_t i = 0; i < n; ++i) {
            RunResult &r = out[i].result;
            r.workload = i < workloads_.size() ? workloads_[i].name
                                               : std::string("?");
            r.contention = workloads_.empty() ? std::string("?")
                                              : contentionLabel(i);
            r.error = err;
        }
        return out;
    };

    try {
        auto results = runAll({}, traces, producers);
        std::vector<RunOutcome> out(results.size());
        for (std::size_t i = 0; i < results.size(); ++i)
            out[i].result = std::move(results[i]);
        return out;
    } catch (const Error &e) {
        return placeholders(RunError::from(e));
    } catch (const std::exception &e) {
        return placeholders(RunError::from(e));
    }
}

} // namespace pinte
