/**
 * @file
 * Failure-model tests: trace validation at open time, per-job
 * quarantine in campaigns, crash-safe artifact writes, deterministic
 * fault injection, the cooperative hang watchdog, and journal-based
 * checkpoint/resume.
 *
 * The PINTE_INJECT_FAULT plan is parsed once per process, so this
 * binary arms exactly one injection ("report-write:2", set from a
 * global constructor before any site is hit) and the injection test
 * is registered first so it owns hits 1..3 of that site.
 */

#include <gtest/gtest.h>

#include "expect_error.hh"

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/atomic_file.hh"
#include "common/error.hh"
#include "common/fault.hh"
#include "common/json.hh"
#include "sim/experiment.hh"
#include "sim/journal.hh"
#include "sim/options.hh"
#include "sim/runner.hh"
#include "sim/sink.hh"
#include "sim/watchdog.hh"
#include "trace/trace_io.hh"
#include "trace/zoo.hh"

namespace pinte
{
namespace
{

// Latched before main(), and therefore before the first
// faultInjected() call anywhere in this process.
const bool faultEnvArmed = [] {
    ::setenv("PINTE_INJECT_FAULT", "report-write:2", 1);
    return true;
}();

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + "pinte_faults_" + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::string s((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
    return s;
}

bool
exists(const std::string &path)
{
    std::ifstream in(path);
    return in.good();
}

/** Write `content` through an AtomicFile and commit. */
void
atomicWrite(const std::string &path, const std::string &content)
{
    AtomicFile f(path);
    f.stream() << content;
    f.commit();
}

TEST(FaultInjection, ReportWriteFiresOnSecondCommitOnly)
{
    ASSERT_TRUE(faultEnvArmed);
    const std::string path = tempPath("inject.txt");
    std::remove(path.c_str());

    // Hit 1: passes.
    atomicWrite(path, "first");
    EXPECT_EQ(slurp(path), "first");

    // Hit 2: the armed fault fires after the temp is fully written;
    // the destination must keep its previous content and the temp
    // must not survive the writer.
    EXPECT_ERROR(atomicWrite(path, "second"), SimError,
                 "injected fault: report-write");
    EXPECT_EQ(slurp(path), "first");
    EXPECT_FALSE(exists(path + ".tmp"));

    // Hit 3: a fault fires exactly once, not "from the nth hit on".
    atomicWrite(path, "third");
    EXPECT_EQ(slurp(path), "third");
    std::remove(path.c_str());
}

TEST(AtomicWrite, UncommittedWriterLeavesNothingBehind)
{
    const std::string path = tempPath("uncommitted.txt");
    std::remove(path.c_str());
    {
        AtomicFile f(path);
        f.stream() << "partial content that must never be published";
    }
    EXPECT_FALSE(exists(path));
    EXPECT_FALSE(exists(path + ".tmp"));
}

TEST(AtomicWrite, CommitPublishesExactContentAndRemovesTemp)
{
    const std::string path = tempPath("committed.txt");
    atomicWrite(path, "exact payload\n");
    EXPECT_EQ(slurp(path), "exact payload\n");
    EXPECT_FALSE(exists(path + ".tmp"));
    std::remove(path.c_str());
}

/** A tiny but valid on-disk trace to corrupt in various ways. */
std::string
makeValidTrace(const std::string &name, std::size_t records = 16)
{
    const std::string path = tempPath(name);
    std::vector<TraceRecord> recs(records);
    writeTrace(path, recs);
    return path;
}

// On-disk header layout (trace_io.cc): u64 magic, u32 version,
// u32 record size, u64 count — 24 bytes, then the records.
constexpr long headerBytes = 24;
constexpr long versionOffset = 8;

TEST(TraceFaults, WrongVersionRejectedAtOpen)
{
    const std::string path = makeValidTrace("wrong_version.trc");
    {
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(versionOffset);
        const std::uint32_t bogus = traceVersion + 7;
        f.write(reinterpret_cast<const char *>(&bogus), sizeof(bogus));
    }
    EXPECT_ERROR(FileTraceSource src(path), TraceError,
                 "unsupported trace version");
    std::remove(path.c_str());
}

TEST(TraceFaults, TruncatedDataRejectedAtOpen)
{
    // The header declares 16 records but the file carries fewer
    // bytes: open must fail immediately, not thousands of reads in.
    const std::string path = makeValidTrace("truncated.trc");
    const std::string whole = slurp(path);
    ASSERT_GT(whole.size(), static_cast<std::size_t>(headerBytes));
    {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f.write(whole.data(),
                static_cast<std::streamsize>(whole.size() - 10));
    }
    EXPECT_ERROR(FileTraceSource src(path), TraceError,
                 "truncated trace");
    std::remove(path.c_str());
}

TEST(TraceFaults, FileShorterThanHeaderRejected)
{
    const std::string path = tempPath("short.trc");
    {
        std::ofstream f(path, std::ios::binary);
        f << "1234";
    }
    EXPECT_ERROR(FileTraceSource src(path), TraceError,
                 "trace read failed (header)");
    std::remove(path.c_str());
}

TEST(TraceFaults, CorruptMagicRejected)
{
    const std::string path = makeValidTrace("corrupt_magic.trc");
    {
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(0);
        const std::uint64_t bogus = 0xdeadbeefdeadbeefull;
        f.write(reinterpret_cast<const char *>(&bogus), sizeof(bogus));
    }
    EXPECT_ERROR(FileTraceSource src(path), TraceError,
                 "not a pinte trace");
    std::remove(path.c_str());
}

TEST(Watchdog, ProgressKeepsAnArmedJobAlive)
{
    JobWatchdog::Scope guard(0.05);
    // Runs well past the limit in wall time, but every heartbeat
    // reports fresh instruction progress, so no stall accrues.
    for (std::uint64_t i = 0; i < 5; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        JobWatchdog::heartbeat(i);
    }
}

TEST(Watchdog, StallRaisesTimeoutError)
{
    JobWatchdog::Scope guard(0.05);
    JobWatchdog::heartbeat(1);
    const auto start = std::chrono::steady_clock::now();
    EXPECT_ERROR(
        while (true) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            JobWatchdog::heartbeat(1); // no progress
        },
        TimeoutError, "no instruction progress");
    const double waited = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    EXPECT_GE(waited, 0.05);
    EXPECT_LT(waited, 5.0);
}

TEST(Watchdog, ZeroTimeoutRejectedAtParse)
{
    // --job-timeout=0 would fire on the first stalled heartbeat, not
    // disable the watchdog; the driver rejects it up front and points
    // at the way to actually disable it.
    EXPECT_ERROR(parseTimeout("--job-timeout", "0"), ConfigError,
                 "must be a positive number of seconds");
    EXPECT_ERROR(parseTimeout("--job-timeout", "0"), ConfigError,
                 "omit the flag to disable");
    EXPECT_ERROR(parseTimeout("--job-timeout", "-3"), ConfigError,
                 "non-negative integer");
    EXPECT_ERROR(parseTimeout("--job-timeout", "1.5"), ConfigError,
                 "non-negative integer");
    EXPECT_EQ(parseTimeout("--job-timeout", "1"), 1u);
    EXPECT_EQ(parseTimeout("--job-timeout", "900"), 900u);
}

TEST(Watchdog, DistinguishesStarvationFromSlowProgress)
{
    // The stall clock measures wall time since the last *observed
    // progress*, not total job runtime: a slow-but-progressing job
    // outlives many limits, while heartbeat starvation (same
    // instruction count over and over) accrues a stall and fires.
    JobWatchdog::Scope guard(0.25);
    JobWatchdog::heartbeat(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    JobWatchdog::heartbeat(2); // progress: stall clock resets
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    // 300ms of runtime exceeds the 250ms limit, but only ~150ms have
    // passed since the last progress — the job survives.
    JobWatchdog::heartbeat(2);
    EXPECT_ERROR(
        while (true) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            JobWatchdog::heartbeat(2); // starved: no new instructions
        },
        TimeoutError, "no instruction progress");
}

TEST(Watchdog, DisarmedHeartbeatIsFree)
{
    JobWatchdog::disarm();
    for (int i = 0; i < 3; ++i)
        JobWatchdog::heartbeat(0); // never throws while disarmed
}

/** Campaign fixture: a P_Induce sweep over one workload. */
ExperimentParams
quickParams()
{
    ExperimentParams p;
    p.warmup = 2000;
    p.roi = 4000;
    p.sampleEvery = 2000;
    return p;
}

std::vector<ExperimentSpec>
sweepSpecs(std::size_t poisoned = ~0ull)
{
    const WorkloadSpec w = findWorkload("450.soplex");
    const std::vector<double> points = {0.0, 0.1, 0.2, 0.3, 0.4, 0.5};
    std::vector<ExperimentSpec> specs;
    for (std::size_t i = 0; i < points.size(); ++i) {
        MachineConfig machine = MachineConfig::scaled();
        if (i == poisoned)
            machine.llc.numSets = 77; // not a power of two
        ExperimentSpec spec(machine);
        spec.workload(w).params(quickParams());
        if (points[i] > 0.0)
            spec.pinte(points[i]);
        specs.push_back(spec);
    }
    return specs;
}

void
expectSameSimulation(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.contention, b.contention);
    EXPECT_EQ(a.metrics.ipc, b.metrics.ipc);
    EXPECT_EQ(a.metrics.missRate, b.metrics.missRate);
    EXPECT_EQ(a.metrics.amat, b.metrics.amat);
    EXPECT_EQ(a.metrics.llcAccesses, b.metrics.llcAccesses);
    EXPECT_EQ(a.metrics.llcMisses, b.metrics.llcMisses);
    ASSERT_EQ(a.samples.size(), b.samples.size());
    for (std::size_t i = 0; i < a.samples.size(); ++i)
        EXPECT_EQ(a.samples[i].ipc, b.samples[i].ipc);
    ASSERT_EQ(a.reuse.size(), b.reuse.size());
    for (std::size_t i = 0; i < a.reuse.size(); ++i)
        EXPECT_EQ(a.reuse.at(i), b.reuse.at(i));
    EXPECT_EQ(a.pinte.triggers, b.pinte.triggers);
    EXPECT_EQ(a.pinte.invalidations, b.pinte.invalidations);
    // cpuSeconds deliberately excluded: it measures the machine, not
    // the simulation.
}

TEST(Quarantine, OnePoisonedCellDoesNotSinkTheCampaign)
{
    const std::size_t poisoned = 3;
    const std::vector<ExperimentSpec> healthy = sweepSpecs();
    const std::vector<ExperimentSpec> specs = sweepSpecs(poisoned);

    // The healthy sweep is the reference the quarantined campaign's
    // surviving cells must match exactly.
    std::vector<RunOutcome> reference;
    for (const ExperimentSpec &s : healthy)
        reference.push_back(s.tryRun());

    for (unsigned jobs : {1u, 4u}) {
        const Runner runner(jobs);
        const std::vector<RunOutcome> outcomes = runner.map(
            specs.size(),
            [&](std::size_t i) { return specs[i].tryRun(); });

        ASSERT_EQ(outcomes.size(), specs.size());
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            if (i == poisoned) {
                EXPECT_TRUE(outcomes[i].result.failed());
                EXPECT_FALSE(outcomes[i].ok());
                EXPECT_EQ(outcomes[i].result.error.kind, "config");
                EXPECT_NE(outcomes[i].result.error.message.find(
                              "power of 2"),
                          std::string::npos)
                    << outcomes[i].result.error.message;
                // The failed cell stays addressable in reports.
                EXPECT_EQ(outcomes[i].result.workload, "450.soplex");
            } else {
                ASSERT_TRUE(outcomes[i].ok())
                    << outcomes[i].result.error.message;
                expectSameSimulation(outcomes[i].result,
                                     reference[i].result);
            }
        }
    }
}

TEST(Quarantine, RunnerAggregatesEveryUnquarantinedFailure)
{
    // Without tryRun() quarantine, the Runner still refuses to drop
    // failures silently: all of them come back in one MultiJobError.
    try {
        Runner(4).forEach(8, [&](std::size_t i) {
            if (i % 2 == 1)
                throw std::runtime_error("odd job " +
                                         std::to_string(i));
        });
        FAIL() << "expected MultiJobError";
    } catch (const MultiJobError &e) {
        ASSERT_EQ(e.failures().size(), 4u);
        EXPECT_EQ(e.totalJobs(), 8u);
        for (std::size_t k = 0; k < 4; ++k) {
            EXPECT_EQ(e.failures()[k].first, 2 * k + 1);
            EXPECT_EQ(e.failures()[k].second,
                      "odd job " + std::to_string(2 * k + 1));
        }
    }
}

TEST(Journal, InterruptedThenResumedMatchesUninterrupted)
{
    const std::string path = tempPath("resume.jsonl");
    std::remove(path.c_str());

    const std::vector<ExperimentSpec> specs = sweepSpecs();

    // Uninterrupted baseline.
    std::vector<RunResult> baseline;
    for (const ExperimentSpec &s : specs)
        baseline.push_back(s.tryRun().result);

    // "Interrupted" campaign: completes (and journals) only the first
    // three cells before dying.
    {
        RunJournal journal(path);
        for (std::size_t i = 0; i < 3; ++i)
            journal.record(cellKey(specs[i]), baseline[i]);
        EXPECT_EQ(journal.size(), 3u);
    }

    // Resume: journal hits are served without re-simulation, misses
    // run fresh, and the final population matches the baseline
    // field-for-field (cpuSeconds excluded).
    RunJournal journal(path);
    EXPECT_EQ(journal.size(), 3u);
    std::size_t served = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::string key = cellKey(specs[i]);
        RunResult r;
        if (const RunResult *hit = journal.find(key)) {
            r = *hit;
            ++served;
        } else {
            r = specs[i].tryRun().result;
            journal.record(key, r);
        }
        expectSameSimulation(r, baseline[i]);
    }
    EXPECT_EQ(served, 3u);
    EXPECT_EQ(journal.size(), specs.size());
    std::remove(path.c_str());
}

TEST(Journal, TornTrailingLineIsSkippedNotFatal)
{
    const std::string path = tempPath("torn.jsonl");
    std::remove(path.c_str());

    const ExperimentSpec spec = sweepSpecs().front();
    const RunResult r = spec.tryRun().result;
    ASSERT_FALSE(r.failed());
    {
        RunJournal journal(path);
        journal.record(cellKey(spec), r);
    }
    {
        // A SIGKILL mid-append leaves a torn final line.
        std::ofstream f(path, std::ios::app | std::ios::binary);
        f << "{\"key\": \"half-writ";
    }
    RunJournal journal(path);
    EXPECT_EQ(journal.size(), 1u);
    const RunResult *hit = journal.find(cellKey(spec));
    ASSERT_NE(hit, nullptr);
    expectSameSimulation(*hit, r);
    std::remove(path.c_str());
}

TEST(Journal, TornTailIsTruncatedBeforeAppend)
{
    const std::string path = tempPath("torn_append.jsonl");
    std::remove(path.c_str());

    const std::vector<ExperimentSpec> specs = sweepSpecs();
    const RunResult first = specs[0].tryRun().result;
    const RunResult second = specs[1].tryRun().result;
    ASSERT_FALSE(first.failed());
    ASSERT_FALSE(second.failed());
    {
        RunJournal journal(path);
        journal.record(cellKey(specs[0]), first);
    }
    {
        // A SIGKILL mid-append leaves a torn, newline-less tail.
        std::ofstream f(path, std::ios::app | std::ios::binary);
        f << "{\"key\": \"half-writ";
    }
    {
        // The reopened journal must truncate the torn tail before
        // appending: without that, the next record glues onto the
        // torn bytes, the combined line parses as garbage, and the
        // record is silently lost on the following reload.
        RunJournal journal(path);
        EXPECT_EQ(journal.size(), 1u);
        journal.record(cellKey(specs[1]), second);
    }
    RunJournal journal(path);
    EXPECT_EQ(journal.size(), 2u);
    const RunResult *hit0 = journal.find(cellKey(specs[0]));
    const RunResult *hit1 = journal.find(cellKey(specs[1]));
    ASSERT_NE(hit0, nullptr);
    ASSERT_NE(hit1, nullptr);
    expectSameSimulation(*hit0, first);
    expectSameSimulation(*hit1, second);
    std::remove(path.c_str());
}

TEST(Journal, FailedRunsAreNeverJournaled)
{
    const std::string path = tempPath("nofail.jsonl");
    std::remove(path.c_str());

    RunResult failed;
    failed.workload = "w";
    failed.contention = "isolation";
    failed.error.kind = "sim";
    failed.error.component = "experiment";
    failed.error.message = "boom";
    {
        RunJournal journal(path);
        journal.record("some-key", failed);
        EXPECT_EQ(journal.size(), 0u);
    }
    RunJournal journal(path);
    // A resumed campaign must retry the failed cell.
    EXPECT_EQ(journal.find("some-key"), nullptr);
    std::remove(path.c_str());
}

/**
 * Fork a writer that opens an AtomicFile on `path`, stages `partial`
 * (flushed to the OS, never committed), signals readiness over a
 * pipe, and parks until the parent SIGKILLs it. Models a campaign
 * worker dying mid-report or mid-checkpoint write.
 */
void
killMidAtomicWrite(const std::string &path, const std::string &partial)
{
    int ready[2];
    ASSERT_EQ(::pipe(ready), 0);
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::close(ready[0]);
        AtomicFile f(path);
        f.stream() << partial;
        f.stream().flush();
        const char byte = 'w';
        if (::write(ready[1], &byte, 1) != 1)
            std::_Exit(9);
        for (;;)
            ::pause(); // hold the temp open until SIGKILL lands
    }
    ::close(ready[1]);
    char byte = 0;
    ASSERT_EQ(::read(ready[0], &byte, 1), 1);
    ::close(ready[0]);
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    ASSERT_EQ(WTERMSIG(status), SIGKILL);
}

TEST(CrashDurability, KilledMidReportWriteLeavesNoPartialReport)
{
    // These tests exercise real SIGKILL durability, not the injected
    // report-write fault the suite arms via the environment.
    armFault("");
    const std::string path = tempPath("killed_report.json");
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());

    killMidAtomicWrite(path, "{\"schema_version\": 5, \"runs\": [");
    // The dead writer never reached commit(): nothing was published;
    // only the staging temp holds the torn bytes, so no reader can
    // ever observe a half-written document at the report path.
    EXPECT_FALSE(exists(path));
    EXPECT_TRUE(exists(path + ".tmp"));

    // A rerun reopens the same destination and must publish a
    // complete, valid document over the wreckage — the fresh
    // AtomicFile truncates the stale temp and commit() renames it
    // into place.
    ReportMeta meta;
    meta.tool = "test_faults";
    meta.fingerprint = "fp";
    meta.params = quickParams();
    const ExperimentSpec spec = sweepSpecs().front();
    const RunResult r = spec.tryRun().result;
    ASSERT_FALSE(r.failed());
    {
        Report rep(ReportFormat::Json, path, meta);
        rep->run(r);
        rep.close();
    }
    std::string error;
    const JsonValue doc = parseJson(slurp(path), &error);
    ASSERT_EQ(error, "");
    EXPECT_EQ(doc.at("schema_version").asU64(),
              static_cast<std::uint64_t>(reportSchemaVersion));
    EXPECT_EQ(doc.at("runs").array.size(), 1u);
    EXPECT_FALSE(exists(path + ".tmp"));
    std::remove(path.c_str());
}

TEST(CrashDurability, KilledMidCheckpointWritePreservesPriorSnapshot)
{
    armFault("");
    const std::string path = tempPath("killed_ckpt.bin");
    std::remove(path.c_str());
    const std::string good = "PNTC good checkpoint payload\n";
    atomicWrite(path, good);

    killMidAtomicWrite(path, good.substr(0, 9));
    // The prior snapshot survives bitwise: a resume sees either the
    // old checkpoint or a new complete one, never a torn hybrid.
    EXPECT_EQ(slurp(path), good);

    // The next successful writer replaces the snapshot and clears the
    // dead writer's staging temp.
    atomicWrite(path, "PNTC newer checkpoint\n");
    EXPECT_EQ(slurp(path), "PNTC newer checkpoint\n");
    EXPECT_FALSE(exists(path + ".tmp"));
    std::remove(path.c_str());
}

TEST(Watchdog, BlindSpotDetectionWaitsForTheNextHeartbeat)
{
    // The cooperative watchdog only *observes* the stall clock inside
    // heartbeat(): a job wedged in a syscall, a tight non-simulating
    // loop, or foreign-library code never calls it, and so can never
    // time out in thread mode. The stall is charged — and the
    // TimeoutError raised — only at the next heartbeat, however late
    // it arrives. Campaigns that need a hard wall-clock guarantee use
    // the process backend, where the parent enforces the deadline
    // from outside with SIGTERM-then-SIGKILL (sim/worker_proc.hh).
    JobWatchdog::Scope guard(0.05);
    JobWatchdog::heartbeat(1);
    // Wedged for 3x the limit with no heartbeat: nothing can fire.
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    // The very next heartbeat pays for the whole stall at once.
    EXPECT_ERROR(JobWatchdog::heartbeat(1), TimeoutError,
                 "no instruction progress");
}

} // namespace
} // namespace pinte
