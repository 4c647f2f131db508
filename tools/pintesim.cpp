/**
 * @file
 * pintesim — command-line driver for the PInTE simulator.
 *
 * Runs a single workload (or a pair) on a configurable machine and
 * emits results through a report sink: aligned text (default), the
 * versioned pinte-report JSON schema, or CSV. Everything the library
 * exposes — replacement, inclusion, prefetch and branch-prediction
 * choices, PInTE probability, scope and the DRAM complement — is
 * reachable from here. Options accept both `--flag value` and
 * `--flag=value`; unknown flags and malformed values exit nonzero
 * listing the alternatives.
 *
 * Examples:
 *   pintesim --list
 *   pintesim -w 450.soplex --sweep
 *   pintesim -w 450.soplex -p 0.2 --policy rrip --inclusion exclusive
 *   pintesim -w 450.soplex --pair 470.lbm
 *   pintesim -w 429.mcf -p 0.3 --dram-complement 60 --format=json
 *   pintesim -w 450.soplex --sweep --format=csv --out sweep.csv
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "analysis/sensitivity.hh"
#include "common/error.hh"
#include "common/invariant.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/trace_events.hh"
#include "sim/broker.hh"
#include "sim/campaign.hh"
#include "sim/experiment.hh"
#include "sim/journal.hh"
#include "sim/options.hh"
#include "sim/report.hh"
#include "sim/sink.hh"
#include "sim/spool_wait.hh"
#include "sim/watchdog.hh"
#include "sim/worker_proc.hh"

using namespace pinte;

namespace
{

void
usage()
{
    std::printf(
        "usage: pintesim [options]   (--flag value or --flag=value)\n"
        "  -w, --workload NAME   zoo workload (see --list)\n"
        "  -p, --pinduce P       PInTE probability of induction [0,1]\n"
        "      --sweep           run the standard 12-point P sweep\n"
        "      --pair NAME       2nd-Trace co-run instead of PInTE\n"
        "      --isolation       no contention at all\n"
        "      --isolation=K     campaign backend for --sweep: thread\n"
        "                        (in-process pool, default), process\n"
        "                        (fork-isolated workers: crashes and\n"
        "                        hard hangs become quarantined cells),\n"
        "                        or spool (durable file-queue broker\n"
        "                        with --jobs forked workers: broker and\n"
        "                        workers all survive SIGKILL; requires\n"
        "                        --spool)\n"
        "      --max-retries N   process/spool backend: attempts per\n"
        "                        cell (process) or shard (spool)\n"
        "                        before quarantine (default 1; only\n"
        "                        worker-level losses are retried)\n"
        "      --spool DIR       spool directory of a spool campaign\n"
        "                        (created if absent; shared by broker\n"
        "                        and workers)\n"
        "      --worker          run as a spool worker: claim and\n"
        "                        execute shards from --spool until the\n"
        "                        campaign completes (all simulation\n"
        "                        parameters come from the spool's\n"
        "                        campaign document, not the CLI)\n"
        "      --shard-size N    spool backend: cells per shard\n"
        "                        (default 1 — loss granularity of one\n"
        "                        cell)\n"
        "      --lease-ttl S     spool backend: reclaim a shard whose\n"
        "                        worker made no progress for S seconds\n"
        "                        (default 30)\n");
    std::printf(
        "      --policy K        llc replacement: %s\n"
        "      --llc-policy K    alias of --policy\n"
        "      --policies LIST   comma-separated replacement-policy\n"
        "                        grid for --sweep: per policy, an\n"
        "                        isolation baseline plus the standard\n"
        "                        12-point P sweep, then a per-policy\n"
        "                        contention-class table with deltas\n"
        "                        against the first policy (thread\n"
        "                        backend only)\n",
        replacementValidValues().c_str());
    std::printf(
        "      --inclusion K     llc inclusion: non inclusive exclusive\n"
        "      --prefetch SSS    prefetch string (000, NN0, NNN, NNI)\n"
        "      --predictor K     bimodal gshare perceptron hashed\n"
        "      --scope K         pinte scope: llc l2 l2+llc\n"
        "      --dram-complement F  add P*F cycles to DRAM accesses\n"
        "      --warmup N        warmup instructions (default 20000)\n"
        "      --roi N           region of interest (default 60000)\n"
        "      --sample N        sample period (default 3000)\n"
        "      --sample-interval N  snapshot every registered counter\n"
        "                        every N cycles into the report's\n"
        "                        time-series section (0 = off)\n"
        "      --sample-mode K   interval engine schedule: off\n"
        "                        periodic random (default off); when\n"
        "                        on, the ROI alternates detailed and\n"
        "                        functional-warming intervals and the\n"
        "                        report carries mean±CI estimates\n"
        "      --sample-interval-length N  instructions per interval\n"
        "                        (default 10000)\n"
        "      --sample-detailed-fraction F  share of intervals run\n"
        "                        detailed, (0,1] (default 0.1)\n"
        "      --sampling-seed N seed of the random interval schedule\n"
        "      --checkpoint FILE architectural checkpoint file: resume\n"
        "                        from it when present, then rewrite it\n"
        "                        every --checkpoint-every instructions\n"
        "      --checkpoint-every N  checkpoint cadence in ROI\n"
        "                        instructions (default roi/10)\n"
        "      --trace-events FILE  write a chrome://tracing JSON\n"
        "                        event trace of the run to FILE\n"
        "      --seed N          run seed (PInTE RNG stream)\n"
        "      --jobs N          worker threads (or processes) for\n"
        "                        --sweep (default: all cores)\n"
        "      --job-timeout S   fail a job stalled for S seconds\n"
        "      --paranoid[=N]    audit machine invariants every N\n"
        "                        cycles (default 4096) and at end of "
        "run\n"
        "      --resume FILE     journal completed runs in FILE and\n"
        "                        serve already-journaled runs from it\n"
        "      --format FMT      output format: table json csv\n"
        "      --out FILE        write the report to FILE\n"
        "      --json            shorthand for --format=json\n"
        "      --report          full machine statistics dump of the\n"
        "                        very run the other flags describe\n"
        "                        (seed, pair, sampling, checkpoint);\n"
        "                        not with campaign flags (--sweep,\n"
        "                        --policies, --isolation=process|spool,\n"
        "                        --worker, --resume)\n"
        "      --list            list zoo workloads and exit\n"
        "      --help            this text\n");
}

} // namespace

namespace
{

/**
 * Everything a sweep cell's identity depends on, in a form that
 * round-trips through the spool's campaign document: the raw CLI
 * strings for enum-valued machine knobs (so the worker re-parses
 * exactly what the broker's user typed) plus the numeric scale
 * parameters. pintesim keeps these flags here and nowhere else: every
 * run mode builds its machine with sweepMachine() and its cells with
 * sweepCell(). A spool worker rebuilds its machine, cell grid and
 * journal keys from this alone; the machine fingerprint and per-cell
 * key checks then prove the reconstruction is exact.
 */
struct SweepConfig
{
    std::string workload = "450.soplex";
    std::string policy;    //!< --policy, empty = machine default
    std::string inclusion; //!< --inclusion
    std::string prefetch;  //!< --prefetch
    std::string predictor; //!< --predictor
    std::string scope;     //!< --scope, empty = not set
    double dramFactor = 0.0;
    ExperimentParams params;
    double jobTimeout = 0.0;
    double leaseTtl = 30.0;
};

/** The machine a SweepConfig describes. */
MachineConfig
sweepMachine(const SweepConfig &sc)
{
    MachineConfig m = MachineConfig::scaled();
    if (!sc.policy.empty())
        m.llc.replacement = parseReplacement(sc.policy);
    if (!sc.inclusion.empty())
        m.llc.inclusion = parseInclusion(sc.inclusion);
    if (!sc.prefetch.empty())
        m.prefetch = PrefetchConfig::parse(sc.prefetch.c_str());
    if (!sc.predictor.empty())
        m.core.predictor = parsePredictor(sc.predictor);
    return m;
}

/** One cell of the campaign `sc` describes on `machine`: induction
 *  probability `p`, or the isolation baseline when `p` is empty. */
ExperimentSpec
sweepCell(const MachineConfig &machine, const WorkloadSpec &spec,
          const SweepConfig &sc, std::optional<double> p)
{
    ExperimentSpec e(machine);
    e.workload(spec).params(sc.params);
    if (!p)
        return e;
    e.pinte(*p);
    if (!sc.scope.empty())
        e.scope(parsePInteScope(sc.scope));
    if (sc.dramFactor > 0.0)
        e.dramComplement(sc.dramFactor);
    return e;
}

/** The standard 12-point P sweep of `sc` on `machine`. */
std::vector<ExperimentSpec>
sweepCells(const MachineConfig &machine, const WorkloadSpec &spec,
           const SweepConfig &sc)
{
    std::vector<ExperimentSpec> cells;
    for (const double p : standardPInduceSweep())
        cells.push_back(sweepCell(machine, spec, sc, p));
    return cells;
}

std::string
sweepConfigToJson(const SweepConfig &sc)
{
    std::ostringstream os;
    {
        JsonWriter w(os, -1); // one line: the campaign document's spec
        w.beginObject();
        w.member("workload", sc.workload);
        w.member("policy", sc.policy);
        w.member("inclusion", sc.inclusion);
        w.member("prefetch", sc.prefetch);
        w.member("predictor", sc.predictor);
        w.member("scope", sc.scope);
        w.member("dram_factor", sc.dramFactor);
        w.member("warmup", static_cast<std::uint64_t>(sc.params.warmup));
        w.member("roi", static_cast<std::uint64_t>(sc.params.roi));
        w.member("sample_every",
                 static_cast<std::uint64_t>(sc.params.sampleEvery));
        w.member("sample_interval_cycles",
                 sc.params.sampleIntervalCycles);
        w.member("sample_mode", toString(sc.params.sampling.mode));
        w.member("sample_interval_length",
                 static_cast<std::uint64_t>(
                     sc.params.sampling.intervalLength));
        w.member("sample_detailed_fraction",
                 sc.params.sampling.detailedFraction);
        w.member("sampling_seed", sc.params.sampling.seed);
        w.member("run_seed", sc.params.runSeed);
        w.member("job_timeout", sc.jobTimeout);
        w.member("lease_ttl", sc.leaseTtl);
        w.endObject();
    }
    return os.str();
}

SweepConfig
sweepConfigFromJson(const JsonValue &v)
{
    SweepConfig sc;
    sc.workload = v.at("workload").asString();
    sc.policy = v.at("policy").asString();
    sc.inclusion = v.at("inclusion").asString();
    sc.prefetch = v.at("prefetch").asString();
    sc.predictor = v.at("predictor").asString();
    sc.scope = v.at("scope").asString();
    sc.dramFactor = v.at("dram_factor").asDouble();
    sc.params.warmup = v.at("warmup").asU64();
    sc.params.roi = v.at("roi").asU64();
    sc.params.sampleEvery = v.at("sample_every").asU64();
    sc.params.sampleIntervalCycles =
        v.at("sample_interval_cycles").asU64();
    sc.params.sampling.mode =
        parseSampleMode(v.at("sample_mode").asString());
    sc.params.sampling.intervalLength =
        v.at("sample_interval_length").asU64();
    sc.params.sampling.detailedFraction =
        v.at("sample_detailed_fraction").asDouble();
    sc.params.sampling.seed = v.at("sampling_seed").asU64();
    sc.params.runSeed = v.at("run_seed").asU64();
    sc.jobTimeout = v.at("job_timeout").asDouble();
    sc.leaseTtl = v.at("lease_ttl").asDouble();
    return sc;
}

/**
 * Spool worker entry (`pintesim --worker --spool DIR`): rebuild the
 * campaign from the spool's document, verify this binary derives the
 * same machine fingerprint and cell keys (config-skew fencing), then
 * claim and execute shards until the campaign completes.
 */
int
spoolWorkerMain(const std::string &spool_dir)
{
    Spool spool(spool_dir);
    if (!spool.hasCampaign()) {
        // A hand-started worker may beat the broker to the spool: wait
        // for the campaign document rather than failing the race. Its
        // rename into the spool root wakes the wait at once.
        SpoolWaiter waiter(spool_dir);
        while (!spool.hasCampaign()) {
            if (spool.complete())
                return 0;
            waiter.wait(spoolWallClock() + 0.2);
        }
    }
    std::string err;
    const JsonValue doc = parseJson(spool.readCampaign(), &err);
    if (!err.empty() || !doc.isObject())
        throw ConfigError("spool campaign document unparseable: " + err,
                          {"pintesim", spool_dir, ""});
    const SweepConfig sc = sweepConfigFromJson(doc.at("spec"));
    const MachineConfig machine = sweepMachine(sc);
    const std::string fp = machine.fingerprint();
    if (doc.at("fingerprint").asString() != fp)
        throw ConfigError(
            "campaign fingerprint mismatch: this build derives " + fp +
                ", campaign carries " +
                doc.at("fingerprint").asString(),
            {"pintesim", spool_dir, fp});
    const std::vector<ExperimentSpec> cells =
        sweepCells(machine, findWorkload(sc.workload), sc);
    std::vector<std::string> keys;
    for (const ExperimentSpec &cell : cells)
        keys.push_back(cellKey(cell));
    const JsonValue &docCells = doc.at("cells");
    if (docCells.array.size() != keys.size())
        throw ConfigError("campaign cell count mismatch",
                          {"pintesim", spool_dir, ""});
    for (std::size_t k = 0; k < keys.size(); ++k)
        if (docCells.array[k].asString() != keys[k])
            throw ConfigError("campaign cell key mismatch at index " +
                                  std::to_string(k),
                              {"pintesim", spool_dir, keys[k]});

    // Whatever shards this worker claims, cells that replay one stream
    // share it through a store that lives as long as the worker. A
    // hand-started worker cannot see its siblings, so it pumps
    // nothing: it leaves every other CPU to them.
    std::vector<std::size_t> all(cells.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    const std::vector<TraceStores> traces = sharedTraces(cells, all);

    SpoolWorkerOptions wopt;
    wopt.leaseTtl = sc.leaseTtl;
    wopt.fingerprint = fp;
    runSpoolWorker(
        spool_dir, keys,
        [&](std::size_t k) {
            JobWatchdog::Scope watchdog(sc.jobTimeout);
            return cells[k].tryRun(traces[k], 0).result;
        },
        wopt);
    return 0;
}

int
pinteMain(int argc, char **argv)
{
    // Workload, machine knobs and scale: everything a campaign cell's
    // identity depends on, stored once.
    SweepConfig sc;
    std::optional<double> pinduce;
    std::optional<std::string> pair;
    bool isolation = false, sweep = false;
    bool report = false;
    unsigned jobs = 0;
    IsolationMode iso_mode = IsolationMode::Thread;
    std::uint32_t max_retries = 1;
    bool retries_set = false;
    bool worker_mode = false;
    std::string spool_dir;
    std::size_t shard_size = 1;
    std::vector<ReplacementKind> grid_policies; // --policies grid
    std::string resume_path;
    ReportFormat format = ReportFormat::Table;
    std::string out_path;
    std::string trace_path;
    ExperimentParams &params = sc.params;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        std::optional<std::string> inline_val;
        if (a.rfind("--", 0) == 0) {
            const auto eq = a.find('=');
            if (eq != std::string::npos) {
                inline_val = a.substr(eq + 1);
                a = a.substr(0, eq);
            }
        }
        auto need = [&]() -> std::string {
            if (inline_val)
                return *inline_val;
            if (i + 1 >= argc)
                fatal("missing value for " + a);
            return argv[++i];
        };
        auto flag = [&]() {
            if (inline_val)
                fatal("option " + a + " takes no value");
        };
        // A machine knob is kept as typed (the spool campaign document
        // carries it so); building the machine rejects a bad value at
        // its flag.
        auto machineFlag = [&](std::string &knob) {
            knob = need();
            sweepMachine(sc);
        };

        if (a == "-w" || a == "--workload") {
            sc.workload = need();
        } else if (a == "-p" || a == "--pinduce") {
            pinduce = parseProbability(need());
        } else if (a == "--sweep") {
            flag();
            sweep = true;
        } else if (a == "--pair") {
            pair = need();
        } else if (a == "--isolation") {
            // Bare --isolation is the historical no-contention run
            // mode; with an inline value it selects the campaign
            // backend instead (--isolation=thread|process).
            if (inline_val)
                iso_mode = parseIsolation(*inline_val);
            else
                isolation = true;
        } else if (a == "--max-retries") {
            max_retries = parseRetries(a, need());
            retries_set = true;
        } else if (a == "--worker") {
            flag();
            worker_mode = true;
        } else if (a == "--spool") {
            spool_dir = need();
        } else if (a == "--shard-size") {
            shard_size =
                static_cast<std::size_t>(parseCount(a, need()));
        } else if (a == "--lease-ttl") {
            sc.leaseTtl = static_cast<double>(parseTimeout(a, need()));
        } else if (a == "--policy" || a == "--llc-policy") {
            machineFlag(sc.policy);
        } else if (a == "--policies") {
            grid_policies = parseReplacementList(need());
        } else if (a == "--inclusion") {
            machineFlag(sc.inclusion);
        } else if (a == "--prefetch") {
            machineFlag(sc.prefetch);
        } else if (a == "--predictor") {
            machineFlag(sc.predictor);
        } else if (a == "--scope") {
            sc.scope = need();
            parsePInteScope(sc.scope); // reject a bad value here
        } else if (a == "--dram-complement") {
            sc.dramFactor = parseReal(a, need());
        } else if (a == "--warmup") {
            params.warmup = parseCount(a, need());
        } else if (a == "--roi") {
            params.roi = parseCount(a, need());
        } else if (a == "--sample") {
            params.sampleEvery = parseCount(a, need());
        } else if (a == "--sample-interval") {
            params.sampleIntervalCycles = parseCount(a, need());
        } else if (a == "--sample-mode") {
            params.sampling.mode = parseSampleMode(need());
        } else if (a == "--sample-interval-length") {
            params.sampling.intervalLength = parseCount(a, need());
        } else if (a == "--sample-detailed-fraction") {
            params.sampling.detailedFraction = parseReal(a, need());
        } else if (a == "--sampling-seed") {
            params.sampling.seed = parseCount(a, need());
        } else if (a == "--checkpoint") {
            params.checkpointPath = need();
        } else if (a == "--checkpoint-every") {
            params.checkpointEvery = parseCount(a, need());
        } else if (a == "--trace-events") {
            trace_path = need();
        } else if (a == "--seed") {
            params.runSeed = parseCount(a, need());
        } else if (a == "--jobs") {
            jobs = parseCount32(a, need());
        } else if (a == "--job-timeout") {
            sc.jobTimeout =
                static_cast<double>(parseTimeout(a, need()));
        } else if (a == "--paranoid") {
            // Value is optional: a bare --paranoid must not consume
            // the next positional argument.
            Paranoid::enable(parseParanoidInterval(
                a, inline_val ? *inline_val : ""));
        } else if (a == "--resume") {
            resume_path = need();
        } else if (a == "--format") {
            format = parseReportFormat(need());
        } else if (a == "--out") {
            out_path = need();
        } else if (a == "--json") {
            flag();
            format = ReportFormat::Json;
        } else if (a == "--report") {
            flag();
            report = true;
        } else if (a == "--list") {
            flag();
            for (const auto &s : fullZoo())
                std::printf("%-16s %-14s footprint %5llu KB\n",
                            s.name.c_str(), toString(s.klass),
                            static_cast<unsigned long long>(
                                s.footprintLines * blockSize / 1024));
            return 0;
        } else if (a == "--help" || a == "-h") {
            usage();
            return 0;
        } else {
            usage();
            fatal("unknown option: " + a);
        }
    }

    // The dump is the live machine of one run. A campaign has one
    // machine per cell, and a journal keeps only their RunResults.
    // --sweep is named last: the other campaign flags need it, and the
    // error should name the more specific one.
    const std::pair<bool, const char *> campaign_flags[] = {
        {!grid_policies.empty(), "--policies"},
        {iso_mode == IsolationMode::Process, "--isolation=process"},
        {iso_mode == IsolationMode::Spool, "--isolation=spool"},
        {worker_mode, "--worker"},
        {!resume_path.empty(), "--resume"},
        {sweep, "--sweep"},
    };
    for (const auto &[set, name] : campaign_flags)
        if (report && set)
            throw ConfigError(std::string("--report dumps the machine of "
                                          "one run and does not "
                                          "combine with ") +
                                  name,
                              {"options", name, ""});

    if (worker_mode) {
        // A spool worker takes its whole configuration from the
        // campaign document; the CLI only locates the spool.
        if (spool_dir.empty())
            throw ConfigError("--worker requires --spool",
                              {"options", "--worker", ""});
        return spoolWorkerMain(spool_dir);
    }
    if (!grid_policies.empty()) {
        if (!sweep)
            throw ConfigError("--policies is a --sweep policy grid; "
                              "add --sweep",
                              {"options", "--policies", ""});
        if (iso_mode != IsolationMode::Thread)
            throw ConfigError(
                "--policies runs on the thread backend only (the "
                "process and spool campaign documents carry a single "
                "machine fingerprint, and the grid needs one machine "
                "per policy)",
                {"options", "--policies", ""});
    }
    if (iso_mode == IsolationMode::Process && !sweep)
        throw ConfigError("--isolation=process is a campaign backend "
                          "and requires --sweep",
                          {"options", "--isolation", "process"});
    if (iso_mode == IsolationMode::Spool) {
        if (!sweep)
            throw ConfigError("--isolation=spool is a campaign "
                              "backend and requires --sweep",
                              {"options", "--isolation", "spool"});
        if (spool_dir.empty())
            throw ConfigError("--isolation=spool requires --spool",
                              {"options", "--isolation", "spool"});
        if (!params.checkpointPath.empty())
            throw ConfigError("--checkpoint does not compose with "
                              "--isolation=spool (checkpoints are "
                              "per-process artifacts)",
                              {"options", "--checkpoint", ""});
    } else if (!spool_dir.empty()) {
        throw ConfigError("--spool requires --isolation=spool or "
                          "--worker",
                          {"options", "--spool", spool_dir});
    }
    if (retries_set && iso_mode != IsolationMode::Process &&
        iso_mode != IsolationMode::Spool)
        throw ConfigError("--max-retries is only meaningful with "
                          "--isolation=process or --isolation=spool "
                          "(the thread backend never retries)",
                          {"options", "--max-retries", ""});

    // A checkpoint path without an explicit cadence defaults to ten
    // checkpoints across the ROI.
    if (!params.checkpointPath.empty() && params.checkpointEvery == 0)
        params.checkpointEvery = std::max<InstCount>(1, params.roi / 10);

    const WorkloadSpec spec = findWorkload(sc.workload);
    const MachineConfig machine = sweepMachine(sc);

    // Arm event tracing for the rest of the process; the guard writes
    // the collected trace on every exit path (including exceptions
    // unwinding to main) and downgrades a write failure to a warning
    // so the report itself still publishes.
    struct TraceWriter
    {
        std::string path;
        ~TraceWriter()
        {
            if (path.empty())
                return;
            try {
                TraceEvents::write(path);
            } catch (const std::exception &e) {
                warn(std::string("event trace not written: ") +
                     e.what());
            }
        }
    } trace_writer;
    if (!trace_path.empty()) {
        trace_writer.path = trace_path;
        TraceEvents::arm();
    }

    // Single runs execute on this thread; arm the hang watchdog here
    // (sweep workers re-arm per job via the Runner).
    if (sc.jobTimeout > 0.0)
        JobWatchdog::arm(sc.jobTimeout);

    Report rep(format, out_path,
               {"pintesim", machine.fingerprint(), params});
    auto emit = [&](const RunResult &r) { rep->run(r); };

    // One run: a 2nd-Trace pair, or one cell of the sweep grid. With
    // --report the sink gets the whole machine of that very run in
    // place of its RunResults.
    if (pair || isolation || !sweep) {
        const ExperimentSpec cell =
            pair ? ExperimentSpec(machine)
                       .workload(spec)
                       .secondTrace(findWorkload(*pair))
                       .params(params)
                 : sweepCell(machine, spec, sc,
                             isolation ? std::nullopt : pinduce);
        if (report)
            cell.runAll(
                [&](System &sys) { emitMachineReport(sys, rep.sink()); });
        else
            for (const RunResult &r : cell.runAll())
                emit(r);
        rep.close();
        return 0;
    }

    // The sweep's 12 configurations — or, with --policies, per policy
    // an isolation baseline (cell 0) plus the sweep on that policy's
    // machine — are independent, fault-isolated cells: a faulting
    // cell becomes a quarantined "failed" row while every other cell
    // completes. Per-policy machine fingerprints keep the grid's cell
    // keys distinct in a shared journal.
    std::vector<ExperimentSpec> cells;
    if (grid_policies.empty())
        cells = sweepCells(machine, spec, sc);
    for (const ReplacementKind kind : grid_policies) {
        MachineConfig m = machine;
        m.llc.replacement = kind;
        cells.push_back(sweepCell(m, spec, sc, std::nullopt));
        for (ExperimentSpec &cell : sweepCells(m, spec, sc))
            cells.push_back(std::move(cell));
    }

    std::unique_ptr<RunJournal> journal;
    if (!resume_path.empty())
        journal = std::make_unique<RunJournal>(resume_path);
    ProcOptions popt;
    popt.workers = jobs;
    popt.jobTimeout = sc.jobTimeout;
    popt.maxRetries = max_retries;
    BrokerOptions bopt;
    bopt.spool = spool_dir;
    bopt.workers =
        jobs ? jobs : std::max(1u, std::thread::hardware_concurrency());
    bopt.leaseTtl = sc.leaseTtl;
    bopt.maxRetries = max_retries;
    bopt.shardSize = shard_size;
    std::vector<RunResult> results;
    for (auto &cell : runCampaign(cells, iso_mode, popt, journal.get(),
                                  bopt, sweepConfigToJson(sc)))
        results.push_back(std::move(cell.front()));

    std::size_t failed = 0;
    if (grid_policies.empty()) {
        for (const RunResult &r : results) {
            failed += r.failed();
            emit(r);
        }
        rep.close();
        if (failed)
            std::fprintf(stderr,
                         "pintesim: %zu of %zu sweep jobs failed\n",
                         failed, results.size());
        return failed ? 1 : 0;
    }

    // Each policy's sweep samples are weighted against that same
    // policy's isolation run (a policy competes with itself unloaded,
    // not with another policy's baseline), pooled into one contention
    // curve and classified, with deltas against the first policy.
    const std::size_t per_policy = results.size() / grid_policies.size();
    std::vector<PolicyCurve> grid;
    for (std::size_t pol = 0; pol < grid_policies.size(); ++pol) {
        const char *pname = replacementCliName(grid_policies[pol]);
        const RunResult &iso = results[pol * per_policy];
        PolicyCurve curve;
        curve.policy = pname;
        for (std::size_t idx = 0; idx < per_policy; ++idx) {
            const RunResult &r = results[pol * per_policy + idx];
            failed += r.failed();
            // Policy-qualified contention labels keep the grid's rows
            // apart in the one shared report.
            RunResult tagged = r;
            tagged.contention = std::string(pname) + ":" + tagged.contention;
            emit(tagged);
            if (idx == 0 || r.failed() || iso.failed())
                continue;
            const std::size_t n =
                std::min(r.samples.size(), iso.samples.size());
            for (std::size_t s = 0; s < n; ++s)
                curve.weightedIpc.push_back(
                    weightedIpc(r.samples[s].ipc, iso.samples[s].ipc));
        }
        grid.push_back(std::move(curve));
    }
    rep.close();

    const auto table = classifyPolicyGrid(grid);
    std::printf("policy grid: %s, TPL %.0f%% (deltas vs %s)\n",
                spec.name.c_str(), defaultTpl * 100,
                table.empty() ? "-" : table.front().policy.c_str());
    std::printf("  %-8s %-6s %10s %8s %6s\n", "policy", "class",
                "sensitive", "delta", "shift");
    for (const auto &row : table)
        std::printf("  %-8s %-6s %9.1f%% %+7.1f%% %+6d\n",
                    row.policy.c_str(), toString(row.cls),
                    row.sensitiveFraction * 100, row.deltaFraction * 100,
                    row.classShift);
    if (failed)
        std::fprintf(stderr, "pintesim: %zu of %zu grid jobs failed\n",
                     failed, results.size());
    return failed ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Library errors are typed exceptions; keep the one-line fatal UX
    // (and exit code) the old process-killing fatal() provided.
    try {
        return pinteMain(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 1;
    }
}
