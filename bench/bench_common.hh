/**
 * @file
 * Shared experiment-campaign driver for the table/figure benches.
 *
 * Most of the paper's evaluation draws on the same three experiment
 * families: every zoo workload in isolation, every workload under the
 * 12-point P_Induce sweep, and every unique workload pair under the
 * 2nd-Trace method. Each bench binary builds the campaign it needs via
 * these helpers and then reduces it to one table or figure.
 *
 * All three families execute on the parallel campaign runner
 * (sim/runner.hh): every experiment is an independent simulation, so
 * a campaign spreads across `--jobs=N` worker threads while results
 * come back in submission order — the reduction a bench prints is
 * byte-identical whatever N is. Per-experiment costs stay meaningful
 * under concurrency because RunResult::cpuSeconds is per-thread CPU
 * time, not wall time.
 */

#ifndef PINTE_BENCH_BENCH_COMMON_HH
#define PINTE_BENCH_BENCH_COMMON_HH

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/crg.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "sim/campaign.hh"
#include "sim/experiment.hh"
#include "sim/options.hh"
#include "sim/runner.hh"
#include "sim/sink.hh"

namespace pinte::bench
{

/** Command-line options shared by all benches. */
struct BenchOptions
{
    bool fullZoo = false;          //!< --full: 49 workloads, else 12
    ExperimentParams params;       //!< --roi=N, --warmup=N
    bool quiet = false;            //!< --quiet: suppress progress
    unsigned jobs = 0;             //!< --jobs=N: 0 = all host cores
    double jobTimeout = 0.0;       //!< --job-timeout=S: 0 = off
    ReportFormat format = ReportFormat::Table; //!< --format=FMT
    std::string outPath;           //!< --out=FILE, empty = stdout

    /** --resume=FILE: completed-run journal, shared by every family. */
    std::shared_ptr<RunJournal> journal;

    /**
     * Campaign failure ledger: quarantined cells recorded by
     * campaignCell()/campaignCellAll(). Shared across copies of the
     * options so every family of a bench feeds one count.
     */
    std::shared_ptr<std::atomic<std::size_t>> failures =
        std::make_shared<std::atomic<std::size_t>>(0);

    /**
     * Parse argv; unknown flags are fatal.
     * @param default_full whether this bench wants the 49-entry zoo
     *        when neither --full nor --small is given (benches whose
     *        result is a population statistic default to full; sweeps
     *        with a x25 or x15 run multiplier default to small)
     */
    static BenchOptions
    parse(int argc, char **argv, bool default_full = false)
    {
        BenchOptions o;
        o.fullZoo = default_full;
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            if (a == "--full") {
                o.fullZoo = true;
            } else if (a == "--small") {
                o.fullZoo = false;
            } else if (a == "--quiet") {
                o.quiet = true;
            } else if (a.rfind("--jobs=", 0) == 0) {
                o.jobs = static_cast<unsigned>(
                    parseCount("--jobs", a.substr(7)));
            } else if (a.rfind("--job-timeout=", 0) == 0) {
                o.jobTimeout = parseReal("--job-timeout", a.substr(14));
            } else if (a.rfind("--resume=", 0) == 0) {
                o.journal = std::make_shared<RunJournal>(a.substr(9));
            } else if (a.rfind("--roi=", 0) == 0) {
                o.params.roi = parseCount("--roi", a.substr(6));
            } else if (a.rfind("--warmup=", 0) == 0) {
                o.params.warmup = parseCount("--warmup", a.substr(9));
            } else if (a.rfind("--format=", 0) == 0) {
                o.format = parseReportFormat(a.substr(9));
            } else if (a.rfind("--out=", 0) == 0) {
                o.outPath = a.substr(6);
            } else {
                throw ConfigError(
                    "unknown bench option: " + a +
                        " (use --full/--small/--quiet/--jobs=N/"
                        "--job-timeout=S/--resume=FILE/"
                        "--roi=N/--warmup=N/--format=table|json|csv/"
                        "--out=FILE)",
                    {"bench", "", a});
            }
        }
        return o;
    }

    std::vector<WorkloadSpec>
    zoo() const
    {
        return fullZoo ? pinte::fullZoo() : smallZoo();
    }

    /** A worker pool sized by --jobs (default: all host cores),
     *  with the --job-timeout hang watchdog armed. */
    Runner
    runner() const
    {
        Runner r(jobs);
        r.jobTimeout(jobTimeout);
        return r;
    }

    /**
     * The bench's report destination per --format/--out. Machine
     * formats (sink->wantsAllRuns()) additionally capture every
     * campaign run, not just the reduction tables.
     */
    Report
    report(const char *tool, const MachineConfig &machine) const
    {
        return Report(format, outPath,
                      {tool, machine.fingerprint(), params});
    }
};

/**
 * Run one fault-isolated campaign cell (all cores of one experiment)
 * through runCell(): served from the --resume journal when already
 * completed, otherwise tryRun — a fault becomes a quarantined failed()
 * placeholder and a failure-ledger increment instead of killing the
 * campaign — with a fresh success journaled durably before returning.
 */
inline std::vector<RunResult>
campaignCellAll(const BenchOptions &opt, const ExperimentSpec &spec)
{
    std::vector<RunResult> results = runCell(spec, opt.journal.get());
    if (results.front().failed())
        opt.failures->fetch_add(1, std::memory_order_relaxed);
    return results;
}

/** Single-core campaignCellAll(): returns core 0's result. */
inline RunResult
campaignCell(const BenchOptions &opt, const ExperimentSpec &spec)
{
    return std::move(campaignCellAll(opt, spec).front());
}

/**
 * Finish a bench: publish the report (atomically, for --out),
 * summarizing quarantined failures first, and return the process exit
 * code — nonzero when any campaign cell failed, so scripted campaigns
 * cannot mistake a partial population for a complete one.
 */
inline int
campaignExit(const BenchOptions &opt, Report &rep)
{
    const std::size_t failed = opt.failures->load();
    if (failed) {
        rep->note("");
        rep->note("WARNING: " + std::to_string(failed) +
                  " campaign cell(s) failed and were excluded from "
                  "the reductions above");
    }
    rep.close();
    if (failed)
        std::fprintf(stderr, "bench: %zu campaign cell(s) failed\n",
                     failed);
    return failed ? 1 : 0;
}

/**
 * main() shim shared by every bench: run `fn`, converting an escaped
 * library exception into the one-line `fatal:` UX (and exit code 1)
 * the old process-killing fatal() provided.
 */
inline int
guardedMain(int (*fn)(int, char **), int argc, char **argv)
{
    try {
        return fn(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 1;
    }
}

/**
 * Progress ticker on stderr (tables go to stdout).
 *
 * Exactly one writer: the meter is only ever ticked from the thread
 * that launched the campaign (Runner invokes the tick callback on the
 * calling thread, never on a worker), so lines cannot interleave.
 * Terminal output is additionally rate-limited to ~10 updates/s so a
 * many-thousand-job campaign does not spend its time rewriting `\r`
 * lines.
 */
class ProgressMeter
{
  public:
    ProgressMeter(const BenchOptions &opt, const char *what,
                  std::size_t total)
        : quiet_(opt.quiet), what_(what), total_(total)
    {
    }

    /** Report `done` completed experiments (monotonic). */
    void
    tick(std::size_t done)
    {
        if (quiet_)
            return;
        if (isatty(fileno(stderr))) {
            const auto now = std::chrono::steady_clock::now();
            if (done != total_ && printed_ &&
                now - last_ < std::chrono::milliseconds(100))
                return;
            last_ = now;
            printed_ = true;
            std::fprintf(stderr, "\r%s: %zu/%zu", what_, done, total_);
            if (done == total_)
                std::fprintf(stderr, "\n");
        } else if (done == total_) {
            // Redirected runs get one completion line per family, not
            // a carriage-return ticker.
            std::fprintf(stderr, "[%s: %zu experiments]\n", what_,
                         total_);
        }
    }

    /** Adapter for Runner's progress callback. */
    Runner::Tick
    asTick()
    {
        return [this](std::size_t done) { tick(done); };
    }

  private:
    bool quiet_;
    const char *what_;
    std::size_t total_;
    bool printed_ = false;
    std::chrono::steady_clock::time_point last_{};
};

/** Results of the three experiment families over one zoo. */
struct Campaign
{
    std::vector<WorkloadSpec> zoo;

    /** isolation[w]: workload w alone. */
    std::vector<RunResult> isolation;

    /** pinte[w][k]: workload w under standardPInduceSweep()[k]. */
    std::vector<std::vector<RunResult>> pinte;

    /**
     * secondTrace[w]: runs of workload w, one per peer it was paired
     * with (every unique pair contributes a run to both sides).
     */
    std::vector<std::vector<RunResult>> secondTrace;

    /** CPU seconds of each pair experiment (Table I). */
    std::vector<double> pairCpu;
};

/**
 * Feed every run of the campaign's populated families into `sink`.
 * No-op for sinks that only want the bench's reduction tables.
 */
inline void
emitAllRuns(const Campaign &c, ReportSink &sink)
{
    if (!sink.wantsAllRuns())
        return;
    for (const auto &r : c.isolation)
        sink.run(r);
    for (const auto &family : c.pinte)
        for (const auto &r : family)
            sink.run(r);
    for (const auto &family : c.secondTrace)
        for (const auto &r : family)
            sink.run(r);
}

/**
 * The isolation family, memoized per process.
 *
 * Benches that need both the isolation baseline and a sweep (and
 * ablations that re-baseline per machine variant) hit this with the
 * same effective configuration several times; the family is computed
 * once per distinct (zoo, machine, params) key and shared. The key
 * normalizes the knobs runIsolation itself overrides (core count,
 * P_Induce), so engine variants that cannot affect an isolation run
 * share one baseline.
 *
 * @return a reference valid for the life of the process
 */
inline const std::vector<RunResult> &
isolationBaseline(const std::vector<WorkloadSpec> &zoo,
                  MachineConfig machine, const BenchOptions &opt)
{
    machine.numCores = 1;
    // With no engine (pInduce 0), none of the PInTE knobs can reach
    // the simulation — reset them all so variant machines that differ
    // only in engine configuration map to one cache entry.
    machine.pinte = PInteConfig{};
    machine.pinte.pInduce = 0.0;
    machine.pinteScope = PInteScope::LlcOnly;

    std::string key = machine.fingerprint();
    key += "|warmup=" + std::to_string(opt.params.warmup);
    key += "|roi=" + std::to_string(opt.params.roi);
    key += "|sample=" + std::to_string(opt.params.sampleEvery);
    key += "|zoo=";
    for (const auto &spec : zoo)
        key += spec.name + ",";

    static std::mutex mutex;
    static std::map<std::string, std::vector<RunResult>> cache;
    {
        std::lock_guard<std::mutex> g(mutex);
        const auto it = cache.find(key);
        if (it != cache.end())
            return it->second;
    }

    ProgressMeter meter(opt, "isolation", zoo.size());
    auto results = opt.runner().map(
        zoo.size(),
        [&](std::size_t i) {
            return campaignCell(opt, ExperimentSpec(machine)
                                         .workload(zoo[i])
                                         .params(opt.params));
        },
        meter.asTick());

    std::lock_guard<std::mutex> g(mutex);
    return cache.emplace(key, std::move(results)).first->second;
}

/** Run the isolation family. */
inline void
runIsolationFamily(Campaign &c, const MachineConfig &machine,
                   const BenchOptions &opt)
{
    c.isolation = isolationBaseline(c.zoo, machine, opt);
}

/** Run the 12-point PInTE sweep family. */
inline void
runPInteFamily(Campaign &c, const MachineConfig &machine,
               const BenchOptions &opt)
{
    const auto &sweep = standardPInduceSweep();
    const std::size_t n = c.zoo.size();
    const std::size_t k = sweep.size();

    ProgressMeter meter(opt, "pinte-sweep", n * k);
    auto flat = opt.runner().map(
        n * k,
        [&](std::size_t idx) {
            return campaignCell(opt, ExperimentSpec(machine)
                                         .workload(c.zoo[idx / k])
                                         .pinte(sweep[idx % k])
                                         .params(opt.params));
        },
        meter.asTick());

    c.pinte.assign(n, {});
    for (std::size_t i = 0; i < n; ++i)
        c.pinte[i].assign(
            std::make_move_iterator(flat.begin() + i * k),
            std::make_move_iterator(flat.begin() + (i + 1) * k));
}

/** Run every unique pair (the 2nd-Trace family). */
inline void
runPairFamily(Campaign &c, const MachineConfig &machine,
              const BenchOptions &opt)
{
    const std::size_t n = c.zoo.size();
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    pairs.reserve(n * (n - 1) / 2);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i + 1; j < n; ++j)
            pairs.emplace_back(i, j);

    ProgressMeter meter(opt, "2nd-trace pairs", pairs.size());
    auto results = opt.runner().map(
        pairs.size(),
        [&](std::size_t t) {
            return campaignCellAll(
                opt, ExperimentSpec(machine)
                         .workload(c.zoo[pairs[t].first])
                         .secondTrace(c.zoo[pairs[t].second])
                         .params(opt.params));
        },
        meter.asTick());

    // Scatter in submission order: identical to the serial nested
    // loop, so downstream per-workload pools see the same run order.
    c.secondTrace.assign(n, {});
    c.pairCpu.clear();
    for (std::size_t t = 0; t < pairs.size(); ++t) {
        c.pairCpu.push_back(results[t][0].cpuSeconds);
        c.secondTrace[pairs[t].first].push_back(
            std::move(results[t][0]));
        c.secondTrace[pairs[t].second].push_back(
            std::move(results[t][1]));
    }
}

/** Pool one sample metric from a set of runs into a flat vector. */
template <typename Getter>
inline std::vector<double>
poolSamples(const std::vector<RunResult> &runs, Getter get)
{
    std::vector<double> out;
    for (const auto &r : runs) {
        if (r.failed())
            continue;
        for (const auto &s : r.samples)
            out.push_back(get(s));
    }
    return out;
}

/**
 * Pool the LLC reuse histograms of two run families restricted to the
 * CRG contention-rate groups both families cover (section III-E):
 * comparing a whole PInTE sweep against whole-pair pools would weight
 * the mixtures by incomparable contention levels.
 *
 * @return {pinte pooled, 2nd-trace pooled}; falls back to unrestricted
 *         pooling when the families share no group
 */
inline std::pair<Histogram, Histogram>
crgMatchedReuse(const std::vector<RunResult> &pinte_runs,
                const std::vector<RunResult> &trace_runs,
                unsigned buckets, double gran = 0.10)
{
    std::set<int> pg, tg;
    for (const auto &r : pinte_runs)
        if (!r.failed())
            pg.insert(crgGroup(r.metrics.interferenceRate, gran));
    for (const auto &r : trace_runs)
        if (!r.failed())
            tg.insert(crgGroup(r.metrics.interferenceRate, gran));
    std::set<int> both;
    for (int g : pg)
        if (tg.count(g))
            both.insert(g);

    Histogram hp(buckets), ht(buckets);
    const bool restrict_groups = !both.empty();
    for (const auto &r : pinte_runs)
        if (!r.failed() &&
            (!restrict_groups ||
             both.count(crgGroup(r.metrics.interferenceRate, gran))))
            hp.merge(r.reuse);
    for (const auto &r : trace_runs)
        if (!r.failed() &&
            (!restrict_groups ||
             both.count(crgGroup(r.metrics.interferenceRate, gran))))
            ht.merge(r.reuse);
    return {std::move(hp), std::move(ht)};
}

} // namespace pinte::bench

#endif // PINTE_BENCH_BENCH_COMMON_HH
