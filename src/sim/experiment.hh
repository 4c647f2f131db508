/**
 * @file
 * The experiment runner: isolation, PInTE and 2nd-Trace runs with
 * warmup, region-of-interest accounting and periodic sampling.
 *
 * This is the layer every bench and example drives. It mirrors the
 * paper's methodology (section III-B): warm the caches, simulate a
 * region of interest, and sample run-time metrics every fixed number of
 * instructions (the paper uses 10M; the reproduction scale is set in
 * ExperimentParams).
 */

#ifndef PINTE_SIM_EXPERIMENT_HH
#define PINTE_SIM_EXPERIMENT_HH

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hh"
#include "common/histogram.hh"
#include "common/stats.hh"
#include "core/pinte.hh"
#include "sim/machine.hh"
#include "trace/trace_store.hh"
#include "trace/workload.hh"
#include "trace/zoo.hh"

namespace pinte
{

/**
 * How the interval engine schedules detailed execution across the ROI.
 * Off runs everything detailed (the classic mode and the default).
 * Periodic runs every (1/detailedFraction)-th interval detailed;
 * Random draws each interval independently with a hash of
 * (seed, interval index), so the schedule is stateless and identical
 * on resume from a checkpoint.
 */
enum class SampleMode
{
    Off,
    Periodic,
    Random,
};

/** Printable name for a sample mode. */
const char *toString(SampleMode m);

/** Parse "off" / "periodic" / "random"; throws ConfigError otherwise. */
SampleMode parseSampleMode(const std::string &text);

/**
 * How a campaign executes its cells (pintesim --isolation;
 * runCampaign, sim/campaign.hh).
 *
 * Thread (the default) runs cells on the in-process Runner pool:
 * cheapest, with cooperative fault isolation — a cell that *throws*
 * is quarantined, but a cell that segfaults, is OOM-killed, or hangs
 * outside a watchdog heartbeat takes the whole campaign down.
 * Process forks one worker per job slot (sim/worker_proc.hh) and
 * ships cells over a CRC-framed pipe: any worker death becomes a
 * quarantined cell with its signal/exit code and attempt history in
 * the report, and --job-timeout upgrades to a hard SIGTERM->SIGKILL
 * deadline enforced by the parent.
 * Spool runs the campaign through a durable file-queue broker
 * (sim/broker.hh): shards of cells are published to a --spool
 * directory, claimed by independent worker processes under expiring
 * leases, and merged as results stream back — both the broker and any
 * worker can be SIGKILLed at any instant and the campaign resumes
 * from the spool alone.
 */
enum class IsolationMode
{
    Thread,
    Process,
    Spool,
};

/** Printable name for an isolation mode ("thread" / "process" /
 *  "spool"). */
const char *toString(IsolationMode m);

/** Interval-engine schedule parameters (ExperimentParams::sampling). */
struct SamplingParams
{
    SampleMode mode = SampleMode::Off;

    /** Instructions (core 0) per interval. */
    InstCount intervalLength = 10000;

    /**
     * Share of intervals run in detailed mode, (0, 1]. The rest
     * fast-forward in functional-warming mode (caches, predictors and
     * PInTE engines stay warm; timing is skipped).
     */
    double detailedFraction = 0.1;

    /** Seed of the stateless interval-selection hash (Random mode). */
    std::uint64_t seed = 1;

    bool enabled() const { return mode != SampleMode::Off; }
};

/**
 * Decide whether interval `k` of a sampled run executes detailed.
 * Pure function of (params, k): resuming a checkpointed run or
 * re-running the same config reproduces the exact schedule. Interval
 * 0 is always detailed in Periodic mode (anchor); Random mode draws
 * from a splitmix64 hash so the long-run detailed share converges to
 * detailedFraction.
 */
bool intervalIsDetailed(const SamplingParams &sp, std::uint64_t k);

/** One periodic sample of run-time metrics (Fig 7's five metrics). */
struct Sample
{
    double ipc = 0.0;
    double missRate = 0.0;          //!< LLC demand miss rate
    double amat = 0.0;              //!< cycles, seen by demand loads
    double interferenceRate = 0.0;  //!< thefts suffered / LLC accesses
    double theftRate = 0.0;         //!< thefts caused / LLC accesses
    double occupancyFraction = 0.0; //!< share of LLC owned at sample end
    InstCount instructions = 0;
};

/** Aggregate metrics over a run's region of interest. */
struct RunMetrics
{
    double ipc = 0.0;
    double missRate = 0.0;
    double amat = 0.0;
    double interferenceRate = 0.0;
    double theftRate = 0.0;
    /** Contention rate observed at the private L2 (nonzero only when
     *  a PInTE engine is scoped there). */
    double l2InterferenceRate = 0.0;
    double branchAccuracy = 1.0;
    double l1dMissRate = 0.0;
    double l2MissRate = 0.0;
    /** Share of issued prefetches (L1D+L2) that missed and went
     *  downstream — the case study's prefetcher pressure metric. */
    double prefetchMissRate = 0.0;
    double l2Mpki = 0.0;
    double llcMpki = 0.0;
    /** Share of LLC allocations caused by writebacks (Fig 6b). */
    double llcWbShare = 0.0;
    double llcOccupancyFraction = 0.0;
    std::uint64_t llcAccesses = 0;
    std::uint64_t llcMisses = 0;
};

/**
 * Why a run failed, in plain data (so it serializes into reports and
 * the resume journal). An empty message means the run succeeded.
 *
 * The process-failure fields (schema v5) are filled only for cells a
 * process-isolated campaign quarantined at the worker level — a
 * crash, a hard timeout kill, or a corrupt result frame. `attempts`
 * is the number of attempts consumed (bounded by --max-retries) and
 * `attemptLog` carries one line per attempt, so a quarantined cell's
 * report records the full retry history; both stay zero/empty for
 * in-process failures, whose v5 documents keep the v2 error shape.
 */
struct RunError
{
    std::string kind;      //!< "config", "trace", "sim", "timeout"
                           //!< or "worker" (process-level loss)
    std::string component; //!< subsystem that raised the error
    std::string path;      //!< offending file, if any
    std::string message;   //!< the full human-readable description

    int signal = 0;   //!< terminating signal of the last attempt
    int exitCode = 0; //!< exit code, when the worker exited instead
    std::uint32_t attempts = 0;          //!< attempts consumed
    std::vector<std::string> attemptLog; //!< one line per attempt

    /**
     * Spool-loss provenance (schema v6): the shard a spool campaign
     * quarantined this cell with and the fencing token the shard held
     * when its retry budget ran out. The pair appears together and
     * only on cells lost at the broker level under --isolation=spool
     * (`shard` non-empty); every other failure leaves both at their
     * defaults and serializes without them.
     */
    std::string shard;              //!< losing shard id, or empty
    std::uint32_t fencingToken = 0; //!< shard token at quarantine

    /** Capture a typed simulator error. */
    static RunError
    from(const Error &e)
    {
        RunError r;
        r.kind = toString(e.kind());
        r.component = e.component();
        r.path = e.path();
        r.message = e.what();
        return r;
    }

    /** Capture a generic exception (kind "sim"). */
    static RunError
    from(const std::exception &e)
    {
        RunError r;
        r.kind = "sim";
        r.message = e.what();
        return r;
    }
};

/**
 * One log2-bucketed histogram exported from the StatRegistry into a
 * report (schema v3): LLC miss latency, MSHR/ROB occupancy. `counts`
 * holds bucket populations in Log2Histogram bucket order (bucket 0 =
 * value 0, bucket b >= 1 = values in [2^(b-1), 2^b)); `total` is the
 * observation count, always equal to the sum of `counts`.
 */
struct HistogramData
{
    std::string path;                  //!< registry path
    std::vector<std::uint64_t> counts; //!< per-bucket populations
    std::uint64_t total = 0;           //!< observations recorded
};

/** One extrapolated statistic of a sampled run, with its error bar. */
struct SampledStat
{
    std::string name;  //!< e.g. "ipc", "llc_mpki"
    double mean = 0.0; //!< mean over detailed intervals
    double ci95 = 0.0; //!< 95% confidence half-width (1.96 * SEM)
};

/**
 * Whole-run estimates of a sampled (interval-engine) run: each metric
 * is measured per detailed interval and extrapolated as mean +/- 95%
 * CI over those intervals. Empty (enabled() false) when the run
 * executed fully detailed, in which case reports omit the section and
 * schema v4 output is field-identical to v3.
 */
struct SampledStats
{
    SampleMode mode = SampleMode::Off;
    InstCount intervalLength = 0;
    double detailedFraction = 0.0;
    std::uint64_t intervals = 0;          //!< total ROI intervals
    std::uint64_t detailedIntervals = 0;  //!< intervals run detailed
    InstCount detailedInstructions = 0;   //!< instructions measured
    InstCount totalInstructions = 0;      //!< whole ROI (core 0)
    std::vector<SampledStat> stats;

    bool enabled() const { return mode != SampleMode::Off; }
};

/** Everything one run produces. */
struct RunResult
{
    std::string workload;
    std::string contention; //!< "isolation", "pinte@p", or peer name
    RunMetrics metrics;
    /**
     * Interval-engine estimates with error bars; enabled() only when
     * the run used a sampled schedule. When enabled, `metrics` mixes
     * functional and detailed phases (its cycle-derived fields are not
     * meaningful) and `sampled` carries the reportable numbers.
     */
    SampledStats sampled;
    std::vector<Sample> samples;
    Histogram reuse{16};    //!< LLC reuse positions (0 = MRU end)
    PInteStats pinte;
    /**
     * Per-interval counter deltas recorded during the ROI; empty
     * unless ExperimentParams::sampleIntervalCycles was set. The
     * machine-global series lives on core 0's result only (one
     * machine, one series).
     */
    StatTimeseries timeseries;
    /**
     * Log2 histograms captured at end of run, in registration order.
     * Machine-global, carried on core 0's result only.
     */
    std::vector<HistogramData> histograms;
    /**
     * CPU time this experiment consumed, measured on the executing
     * thread (CLOCK_THREAD_CPUTIME_ID). Thread CPU time rather than
     * wall time so the Table I / motivation cost ratios measure
     * simulation work, not scheduler interleaving, when a campaign
     * runs experiments concurrently (sim/runner.hh).
     */
    double cpuSeconds = 0.0;
    /**
     * Failure marker: non-empty message means this run faulted and
     * its metrics/samples are placeholders (zeroed), not data.
     * Reductions must skip failed() cells explicitly.
     */
    RunError error;

    /** True when this cell is a quarantined failure, not a result. */
    bool failed() const { return !error.message.empty(); }
};

/**
 * The outcome of one fault-isolated job: either a real result or a
 * quarantined failure, never a torn half-result. This is what
 * ExperimentSpec::tryRun()/tryRunAll() return; campaigns collect
 * outcomes and complete every healthy job regardless of how many
 * siblings fault.
 */
struct RunOutcome
{
    RunResult result;

    bool ok() const { return !result.failed(); }
    const RunError &error() const { return result.error; }
};

/** Scale parameters shared by all experiments. */
struct ExperimentParams
{
    /**
     * Warmup must reach steady state (every resident line touched at
     * least once) or compulsory misses masquerade as contention
     * effects: in pair runs the faster core keeps executing while the
     * slower one warms, so an under-warmed isolation baseline would
     * bias every comparison. 60K covers the slowest-walking zoo
     * footprints. (Paper: 500M of a 1B trace.)
     */
    InstCount warmup = 60000;
    InstCount roi = 60000;         //!< paper: 470M-500M
    InstCount sampleEvery = 3000;  //!< paper: 10M
    std::uint64_t runSeed = 0;     //!< perturbs the PInTE RNG stream
    /**
     * Period, in cycles, of the StatRegistry time-series sampler
     * (pintesim --sample-interval). 0 (the default) disables
     * sampling; reports then carry no timeseries section and are
     * field-identical to schema v2 output.
     */
    std::uint64_t sampleIntervalCycles = 0;

    /**
     * Interval-engine schedule (pintesim --sample-mode). Off runs the
     * whole ROI detailed; Periodic/Random alternate functional
     * fast-forward with detailed intervals and extrapolate whole-run
     * metrics with confidence intervals (RunResult::sampled).
     */
    SamplingParams sampling;

    /**
     * Architectural checkpoint file for intra-run resume (pintesim
     * --checkpoint). When set, the ROI loop writes a snapshot every
     * `checkpointEvery` instructions (at step boundaries), and a run
     * that finds a valid snapshot at this path resumes from it
     * instead of re-warming. Empty disables checkpointing. Mutually
     * exclusive with sampleIntervalCycles: the time-series sampler is
     * not serialized.
     */
    std::string checkpointPath;
    InstCount checkpointEvery = 0;
};

/**
 * Builder describing one experiment: a machine, one or more
 * workloads, and the contention source (none, a PInTE engine, a
 * 2nd-Trace peer, or an N-way mix).
 *
 * This is the single entry point that replaced the six near-duplicate
 * run* functions; every combination shares one warmup -> sampled-ROI
 * engine, so isolation, PInTE and 2nd-Trace runs are guaranteed to
 * follow the same methodology. Examples:
 *
 *   ExperimentSpec(machine).workload(w).run();               // isolation
 *   ExperimentSpec(machine).workload(w).pinte(0.3).run();    // PInTE
 *   ExperimentSpec(machine).workload(w).pinte(0.3)
 *       .scope(PInteScope::L2AndLlc).dramComplement().run();
 *   ExperimentSpec(machine).workload(a).secondTrace(b).runAll();
 *   ExperimentSpec(machine).mix({a, b, c, d}).runAll();
 */
class ExperimentSpec
{
  public:
    explicit ExperimentSpec(MachineConfig machine)
        : machine_(std::move(machine))
    {
    }

    /** Set the workload under study (core 0). */
    ExperimentSpec &workload(const WorkloadSpec &spec);

    /**
     * Run an N-workload mix, one core each, sharing the LLC and DRAM
     * — the "more than two workloads will need to be run
     * concurrently" escalation of section II. Each workload gets a
     * private address space; replaces any workload() call.
     */
    ExperimentSpec &mix(const std::vector<WorkloadSpec> &specs);

    /**
     * Add a 2nd-Trace co-runner sharing the LLC: the paper's
     * reference method PInTE is validated against. Requires exactly
     * one workload() and no pinte().
     */
    ExperimentSpec &secondTrace(const WorkloadSpec &peer);

    /**
     * Install a PInTE engine inducing at probability `p_induce`. The
     * engine RNG is seeded from ExperimentParams::runSeed.
     */
    ExperimentSpec &pinte(double p_induce);

    /**
     * Install the engine at the requested scope (section IV-B's
     * "independent PInTE module" beyond the LLC). L2 scopes reach
     * core-bound workloads whose traffic the LLC engine never sees.
     * Only meaningful together with pinte().
     */
    ExperimentSpec &scope(PInteScope s);

    /**
     * Add the section IV-B DRAM complement: every DRAM access pays an
     * extra `p_induce * factor` cycles, modeling the off-chip
     * contention a real co-runner would add. Addresses the DRAM-bound
     * disagreement cases of Fig 8 / Table II. Requires pinte().
     * A factor of 0 disables the complement (useful as a sweep
     * endpoint); negative factors are rejected.
     */
    ExperimentSpec &dramComplement(double factor = 60.0);

    /** Set warmup/ROI/sampling scale parameters. */
    ExperimentSpec &params(const ExperimentParams &p);

    /** Execute and return core 0's result (the workload under study). */
    RunResult run() const;

    /**
     * Execute and return one result per core. `onFinish`, when set,
     * is called once with the live machine after the ROI, its
     * time-series sampler and the paranoid audit have finished and
     * before the results are read out; pintesim --report dumps the
     * whole machine from there. Core i replays `traces[i]` when that
     * entry exists and is set, and runs a live generator otherwise;
     * the store must realize coreWorkload(i). The stream is the same
     * either way. Neither argument is part of the spec: cell keys and
     * journals never see them.
     */
    std::vector<RunResult>
    runAll(const std::function<void(System &)> &onFinish = {},
           const TraceStores &traces = {}) const;

    /**
     * Fault-isolated run(): any Error (or std::exception) raised by
     * the job is captured into the outcome's RunError instead of
     * propagating, with workload/contention labels filled in so the
     * failed cell stays addressable in reports. `traces` as for
     * runAll().
     */
    RunOutcome tryRun(const TraceStores &traces = {}) const;

    /** Fault-isolated runAll(): one outcome per core. */
    std::vector<RunOutcome> tryRunAll(const TraceStores &traces = {}) const;

    /**
     * The spec core `core`'s trace is generated from: workload
     * `core` moved into that core's private address space. Its
     * stream depends on nothing else — no run seed, no P_Induce — so
     * cells with equal core workloads read equal streams.
     */
    WorkloadSpec coreWorkload(std::size_t core) const;

    /**
     * The contention label core `core`'s RunResult will carry
     * ("isolation", "pinte[scope]@p", peer name, ...). Exposed so
     * campaigns can compute a run's journal key before executing it.
     */
    std::string
    contention(std::size_t core = 0) const
    {
        return contentionLabel(core);
    }

    /** Workloads configured so far (one per core). */
    const std::vector<WorkloadSpec> &
    workloads() const
    {
        return workloads_;
    }

    /** The machine this spec will run on (as configured, numCores
     *  not yet derived from the workload count). */
    const MachineConfig &
    machineConfig() const
    {
        return machine_;
    }

    /** The scale parameters this spec will run with. */
    const ExperimentParams &
    experimentParams() const
    {
        return params_;
    }

  private:
    std::string contentionLabel(std::size_t core) const;

    MachineConfig machine_;
    std::vector<WorkloadSpec> workloads_;
    ExperimentParams params_;
    double pInduce_ = 0.0;
    PInteScope scope_ = PInteScope::LlcOnly;
    double dramFactor_ = 0.0;
    bool pinteSet_ = false;
    bool scopeSet_ = false;
    bool pairMode_ = false;
    bool mixMode_ = false;
};

/**
 * Aggregate metrics for core `c` of a finished run, read through the
 * System's stat registry (the source of truth every report format
 * shares). Bit-identical to computeRunMetricsLegacy() by
 * construction: registry counters alias the same stat fields and the
 * derived views apply the same formulas.
 */
RunMetrics computeRunMetrics(const System &sys, unsigned c);

/**
 * The pre-registry aggregation reading component stat structs
 * directly. Kept (and exercised by tests/test_sinks.cc) as the
 * reference the registry-derived computation is verified against.
 */
RunMetrics computeRunMetricsLegacy(const System &sys, unsigned c);

/** Weighted IPC (eq. 1): contention IPC over isolation IPC. */
inline double
weightedIpc(double ipc_contention, double ipc_isolation)
{
    return ipc_isolation > 0.0 ? ipc_contention / ipc_isolation : 0.0;
}

/** Relative error in percent (eq. 4), 2nd-Trace vs PInTE. */
inline double
relativeErrorPct(double second_trace, double pinte)
{
    return pinte != 0.0 ? 100.0 * (second_trace - pinte) / pinte : 0.0;
}

} // namespace pinte

#endif // PINTE_SIM_EXPERIMENT_HH
