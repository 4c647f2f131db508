/**
 * @file
 * pintebench: the benchmark's measuring process.
 *
 *   pintebench run       --workload W --seed N --seconds T [--quick]
 *   pintebench trace     --workload W --seed N --seconds T [--quick]
 *   pintebench setup     --workload W --seed N [--spool DIR]
 *   pintebench reference --workload W --seed N [--quick]
 *
 * `run` repeats the untraced ExperimentSpec runs of a workload for T
 * seconds; `trace` alternates untraced runs with runs of the shimmed
 * machine and derives the per-layer metrics; `setup` times only the
 * set-up; `reference` prints the values the stored references hold.
 * Each prints one JSON object on stdout; perfbench/run.py turns it into
 * the benchmark's metrics and checks it.
 */

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/json.hh"
#include "sim/shard_queue.hh"
#include "spans.hh"
#include "traced.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

struct Args
{
    std::string mode;
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 1.0;
    bool quick = false;
    std::string spool;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "pintebench: %s\n"
                 "usage: pintebench run|trace|setup|reference "
                 "--workload W --seed N [--seconds T] [--quick] "
                 "[--spool DIR]\n",
                 why.c_str());
    std::exit(2);
}

Args
parse(int argc, char **argv)
{
    if (argc < 2)
        usage("missing mode");
    Args a;
    a.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string k = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + k);
            return argv[++i];
        };
        if (k == "--workload")
            a.workload = value();
        else if (k == "--seed")
            a.seed = std::stoull(value());
        else if (k == "--seconds")
            a.seconds = std::stod(value());
        else if (k == "--spool")
            a.spool = value();
        else if (k == "--quick")
            a.quick = true;
        else
            usage("unknown argument " + k);
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

double
seconds(std::int64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

/** key: [numbers] */
void
numbers(pinte::JsonWriter &w, const std::string &key,
        const std::vector<double> &v)
{
    w.key(key);
    w.beginArray();
    for (const double x : v)
        w.value(x);
    w.endArray();
}

/** key: [hex digests] */
void
digests(pinte::JsonWriter &w, const std::string &key,
        const std::vector<std::uint64_t> &v)
{
    w.key(key);
    w.beginArray();
    for (const std::uint64_t d : v)
        w.value(hex64(d));
    w.endArray();
}

/**
 * One set-up: every cell's trace generator and machine built once, and
 * the spool directory created when `spool` is set. Measured where a
 * user pays it, right before a run, not in a warm loop.
 */
double
measureSetup(const Workload &w, const std::string &spool)
{
    // Hand the previous run's freed heap back to the kernel, so every
    // set-up faults its memory in as a fresh process would, instead of
    // reusing whatever the last run happened to leave mapped.
    malloc_trim(0);
    const std::int64_t t0 = nowNs();
    for (const Cell &c : w.cells)
        buildCell(c);
    if (!spool.empty())
        pinte::Spool created(spool);
    const double s = seconds(nowNs() - t0);
    if (!spool.empty())
        std::filesystem::remove_all(spool);
    return s;
}

/** One untraced repetition of every cell. */
struct Untraced
{
    double wall = 0.0;
    double cpu = 0.0; //!< Σ cell cpu_seconds, as reports carry them
    std::vector<std::uint64_t> digests;
    std::vector<pinte::SampledStat> sampled; //!< first cell's
};

Untraced
runUntraced(const Workload &w)
{
    Untraced u;
    const std::int64_t t0 = nowNs();
    std::vector<pinte::RunResult> results;
    for (const Cell &c : w.cells)
        results.push_back(c.experiment().run());
    u.wall = seconds(nowNs() - t0);
    for (const pinte::RunResult &r : results) {
        u.cpu += r.cpuSeconds;
        u.digests.push_back(digest(outcomeOf(r)));
    }
    u.sampled = results.front().sampled.stats;
    return u;
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** Per-layer metrics of one traced repetition. */
std::map<std::string, double>
layerMetrics(const TracedRun &run, double edge_ns, bool &shares_ok)
{
    std::vector<LayerTotals> totals(run.layers.begin(), run.layers.end());
    const Attribution a =
        attribute(totals, run.rootSpans, run.wallNs, edge_ns);
    const double inst = static_cast<double>(run.instructions);
    std::map<std::string, double> m;
    double share_sum = a.leftoverShare;
    for (int l = 0; l < NumLayers; ++l) {
        const std::string p = layerName(l);
        const LayerSelf &s = a.layers[static_cast<std::size_t>(l)];
        const double calls = static_cast<double>(s.calls);
        m[p + ".calls_per_inst"] = ratio(calls, inst);
        m[p + ".self_ns_per_call"] = ratio(s.selfNs, calls);
        m[p + ".self_share"] = s.share;
        share_sum += s.share;
        if (l >= L1iLayer && l <= LlcLayer)
            m[p + ".hit_ratio"] = ratio(
                static_cast<double>(run.hits[static_cast<std::size_t>(l)]),
                calls);
    }
    const double pinte_calls =
        static_cast<double>(run.layers[PinteLayer].calls);
    const double triggers = static_cast<double>(run.pinteTriggers);
    m["pinte.trigger_ratio"] = ratio(triggers, pinte_calls);
    m["pinte.invalidations_per_trigger"] =
        ratio(static_cast<double>(run.pinteInvalidations), triggers);
    m["dram.row_hit_ratio"] =
        ratio(static_cast<double>(run.dramRowHits),
              static_cast<double>(run.layers[DramLayer].calls));
    m["cpu.self_ns_per_inst"] = ratio(a.leftoverNs, inst);
    m["cpu.self_share"] = a.leftoverShare;

    static const char *phase_names[NumPhases] = {"skip", "functional",
                                                 "detailed"};
    double ns_per_inst[NumPhases];
    for (int p = 0; p < NumPhases; ++p) {
        const TracedRun::PhaseTotals &pt =
            run.phases[static_cast<std::size_t>(p)];
        const double ns = static_cast<double>(pt.ns) -
                          2.0 * edge_ns * static_cast<double>(pt.spans);
        m[std::string("interval.") + phase_names[p] + "_share"] =
            ratio(ns, a.correctedWallNs);
        ns_per_inst[p] = ratio(ns, static_cast<double>(pt.instructions));
    }
    m["interval.detailed_ns_per_inst"] = ns_per_inst[DetailedPhase];
    // Functional cost relative to detailed cost on the same stream: 0 on
    // workloads with no functional phase, about 0.9 on `sampled` today.
    m["interval.functional_cost_ratio"] =
        ratio(ns_per_inst[FunctionalPhase], ns_per_inst[DetailedPhase]);
    shares_ok = share_sum > 1.0 - 1e-9 && share_sum < 1.0 + 1e-9;
    return m;
}

int
modeRun(const Args &a, const Workload &w)
{
    std::vector<double> setup, wall, cpu;
    std::vector<std::uint64_t> run_digests;
    Untraced last;
    const std::int64_t t0 = nowNs();
    while (wall.size() < 3 || seconds(nowNs() - t0) < a.seconds) {
        setup.push_back(measureSetup(w, ""));
        last = runUntraced(w);
        wall.push_back(last.wall);
        cpu.push_back(last.cpu);
        run_digests.push_back(digestCells(last.digests));
    }
    pinte::JsonWriter j(std::cout, 0);
    j.beginObject();
    j.member("workload", w.name);
    j.member("instructions", w.instructions());
    numbers(j, "setup_s", setup);
    numbers(j, "wall_s", wall);
    numbers(j, "cpu_s", cpu);
    digests(j, "digests", run_digests);
    j.key("sampled");
    j.beginObject();
    for (const pinte::SampledStat &s : last.sampled)
        numbers(j, s.name, {s.mean, s.ci95});
    j.endObject();
    j.endObject();
    return 0;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

int
modeTrace(const Args &a, const Workload &w)
{
    std::vector<double> untraced_wall, untraced_cpu, traced_wall;
    std::vector<std::uint64_t> untraced_digests, traced_digests;
    std::vector<TracedRun> runs;
    const std::int64_t t0 = nowNs();
    // Alternate the two kinds so drift on the host hits both alike.
    while (runs.size() < 3 || seconds(nowNs() - t0) < a.seconds) {
        const Untraced u = runUntraced(w);
        untraced_wall.push_back(u.wall);
        untraced_cpu.push_back(u.cpu);
        untraced_digests.push_back(digestCells(u.digests));

        const std::int64_t s0 = nowNs();
        runs.push_back(runTraced(w));
        traced_wall.push_back(seconds(nowNs() - s0));
        traced_digests.push_back(digestCells(runs.back().digests));
    }

    std::uint64_t spans = 0;
    for (const LayerTotals &t : runs.front().layers)
        spans += t.calls;
    const double edge_ns = edgeCostNs(1e9 * median(traced_wall),
                                      1e9 * median(untraced_wall), spans);
    std::map<std::string, std::vector<double>> metrics;
    std::uint64_t share_errors = 0;
    for (const TracedRun &run : runs) {
        bool ok = true;
        for (const auto &[k, v] : layerMetrics(run, edge_ns, ok))
            metrics[k].push_back(v);
        share_errors += !ok;
    }
    pinte::JsonWriter j(std::cout, 0);
    j.beginObject();
    j.member("workload", w.name);
    j.member("edge_ns", edge_ns);
    numbers(j, "untraced_wall_s", untraced_wall);
    numbers(j, "untraced_cpu_s", untraced_cpu);
    numbers(j, "traced_wall_s", traced_wall);
    digests(j, "untraced_digests", untraced_digests);
    digests(j, "traced_digests", traced_digests);
    digests(j, "cell_digests", runs.front().digests);
    j.member("share_sum_errors", share_errors);
    j.key("layers");
    j.beginObject();
    for (const auto &[k, v] : metrics)
        numbers(j, k, v);
    j.endObject();
    j.endObject();
    return 0;
}

int
modeReference(const Workload &w)
{
    const Untraced u = runUntraced(w);
    pinte::JsonWriter j(std::cout, 0);
    j.beginObject();
    j.member("digest", hex64(digestCells(u.digests)));
    if (!u.sampled.empty()) {
        // The full-detailed values the sampled estimates must contain.
        Cell full = w.cells.front();
        full.params.sampling = {};
        const pinte::RunResult r = full.experiment().run();
        j.member("ipc", r.metrics.ipc);
        j.member("llc_mpki", r.metrics.llcMpki);
        j.member("induced_theft_rate", r.pinte.triggerRate());
    }
    j.endObject();
    return 0;
}

int
modeSetup(const Args &a, const Workload &w)
{
    pinte::JsonWriter j(std::cout, 0);
    j.beginObject();
    j.member("instructions", w.instructions());
    j.member("setup_s", measureSetup(w, a.spool));
    j.endObject();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Args a = parse(argc, argv);
        const Workload w = resolveWorkload(a.workload, a.seed, a.quick);
        if (a.mode == "run")
            return modeRun(a, w);
        if (a.mode == "trace")
            return modeTrace(a, w);
        if (a.mode == "reference")
            return modeReference(w);
        if (a.mode == "setup")
            return modeSetup(a, w);
        usage("unknown mode " + a.mode);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "pintebench: %s\n", e.what());
        return 1;
    }
}
