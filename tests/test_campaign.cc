/**
 * @file
 * The one campaign path (sim/campaign.hh): cellKey() reproduces the
 * journal keys earlier releases wrote and keeps the two orders of a
 * pair apart, runCampaign() resumes a half-journaled sweep on every
 * backend without simulating a journaled cell again, and it resolves
 * every core of multi-core cells on threads (the process and spool
 * backends refuse them).
 *
 * "Not simulated again" is proven with the `job` fault site, which
 * fails the nth simulation job one executor starts (common/fault.hh).
 * With 6 of 12 cells journaled and job:7 armed, a campaign that runs
 * only its 6 pending cells never reaches the 7th job; one that re-ran
 * a journaled cell would quarantine a cell and fail the comparison.
 * Each backend therefore runs its cells through a single executor: a
 * Runner of one thread, one forked worker, one in-process spool
 * worker.
 */

#include <gtest/gtest.h>

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hh"
#include "common/fault.hh"
#include "common/json.hh"
#include "sim/campaign.hh"
#include "sim/journal.hh"
#include "sim/options.hh"
#include "sim/shard_queue.hh"
#include "sim/sink.hh"
#include "trace/trace_pump.hh"

#include "expect_error.hh"

namespace pinte
{
namespace
{

struct FaultScope
{
    explicit FaultScope(const char *spec) { armFault(spec); }
    ~FaultScope() { armFault(""); }
};

std::string
scratch(const std::string &name)
{
    const std::string path =
        ::testing::TempDir() + "pinte_campaign_" + name;
    std::filesystem::remove_all(path);
    return path;
}

ExperimentParams
quickParams()
{
    ExperimentParams p;
    p.warmup = 2000;
    p.roi = 4000;
    p.sampleEvery = 2000;
    return p;
}

/** The standard 12-point sweep of 416.gamess, as pintesim builds it. */
std::vector<ExperimentSpec>
sweep()
{
    std::vector<ExperimentSpec> cells;
    for (const double p : standardPInduceSweep()) {
        ExperimentSpec e(MachineConfig::scaled());
        e.workload(findWorkload("416.gamess")).params(quickParams()).pinte(p);
        cells.push_back(e);
    }
    return cells;
}

/** Serialized result with cpu_seconds zeroed: bitwise comparison. */
std::string
canonical(RunResult r)
{
    r.cpuSeconds = 0.0;
    std::ostringstream os;
    {
        JsonWriter w(os, 0);
        writeRunJson(w, r);
    }
    return os.str();
}

TEST(CellKey, ReproducesTheKeysEarlierReleasesJournaled)
{
    ExperimentParams sampled;
    sampled.warmup = 2000;
    sampled.roi = 8000;
    sampled.sampleEvery = 2000;
    sampled.runSeed = 3;
    sampled.sampling.mode = SampleMode::Periodic;
    sampled.sampling.intervalLength = 1000;
    sampled.sampling.detailedFraction = 0.25;
    sampled.sampling.seed = 9007199254740993ull;
    ExperimentParams plain;
    plain.warmup = 2000;
    plain.roi = 8000;
    plain.sampleEvery = 2000;
    const WorkloadSpec soplex = findWorkload("450.soplex");
    const WorkloadSpec mcf = findWorkload("429.mcf");

    // pintesim --sweep --inclusion exclusive --scope l2
    // --dram-complement 30 --sample-mode periodic, at P = 0.2.
    MachineConfig exclusive = MachineConfig::scaled();
    exclusive.llc.inclusion = parseInclusion("exclusive");
    ExperimentSpec swept(exclusive);
    swept.workload(soplex).params(sampled).pinte(0.2);
    swept.scope(parsePInteScope("l2")).dramComplement(30.0);
    EXPECT_EQ(cellKey(swept),
              "cores=1;core=128,4,4,12,12,3,12;l1i=16x4@1r0i0d1s1;"
              "l1d=16x4@4r0i0d2s1;l2=32x8@12r0i0d4s1;"
              "llc=64x16@38r0i2d1s1;dram=2,16,32,22,22,22,4,2,8,0;"
              "pf=000;pinte=0.000000,20823,1,0,llc-only|w2000|r8000|"
              "s2000|seed3|smperiodic|il1000|df0.250000|"
              "ss9007199254740993|450.soplex|pinte[l2-only]@0.200000+dram");

    // pintesim --sweep --policies ...: the rrip machine's third point.
    MachineConfig rrip = MachineConfig::scaled();
    rrip.llc.replacement = parseReplacement("rrip");
    ExperimentSpec grid(rrip);
    grid.workload(soplex).params(plain).pinte(standardPInduceSweep()[2]);
    EXPECT_EQ(cellKey(grid),
              "cores=1;core=128,4,4,12,12,3,12;l1i=16x4@1r0i0d1s1;"
              "l1d=16x4@4r0i0d2s1;l2=32x8@12r0i0d4s1;"
              "llc=64x16@38r3i0d1s1;dram=2,16,32,22,22,22,4,2,8,0;"
              "pf=000;pinte=0.000000,20823,1,0,llc-only|w2000|r8000|"
              "s2000|seed0|450.soplex|pinte@0.010000");

    // A bench isolation-family cell.
    ExperimentSpec isolated(MachineConfig::scaled());
    isolated.workload(mcf).params(plain);
    EXPECT_EQ(cellKey(isolated),
              "cores=1;core=128,4,4,12,12,3,12;l1i=16x4@1r0i0d1s1;"
              "l1d=16x4@4r0i0d2s1;l2=32x8@12r0i0d4s1;"
              "llc=64x16@38r0i0d1s1;dram=2,16,32,22,22,22,4,2,8,0;"
              "pf=000;pinte=0.000000,20823,1,0,llc-only|w2000|r8000|"
              "s2000|seed0|429.mcf|isolation");

    // Core 1 of a bench 2nd-Trace pair cell: core-1 keys carry a
    // marker, so earlier releases' core-1 entries re-simulate once.
    ExperimentSpec pair(MachineConfig::scaled());
    pair.workload(mcf).secondTrace(findWorkload("470.lbm")).params(plain);
    EXPECT_EQ(cellKey(pair, 1),
              "cores=2;core=128,4,4,12,12,3,12;l1i=16x4@1r0i0d1s1;"
              "l1d=16x4@4r0i0d2s1;l2=32x8@12r0i0d4s1;"
              "llc=64x16@38r0i0d1s1;dram=2,16,32,22,22,22,4,2,8,0;"
              "pf=000;pinte=0.000000,20823,1,0,llc-only|w2000|r8000|"
              "s2000|seed0|470.lbm|429.mcf|core1");
}

/**
 * Journal the even cells of a fresh sweep, then resume the sweep on
 * `backend` with job:7 armed: the result must equal the fresh run and
 * the journal must end up holding all twelve cells.
 */
void
expectHalfJournaledResume(IsolationMode backend)
{
    const std::vector<ExperimentSpec> cells = sweep();
    std::vector<RunResult> fresh;
    for (const ExperimentSpec &c : cells)
        fresh.push_back(c.tryRun().result);

    const std::string root = scratch(toString(backend));
    std::filesystem::create_directories(root);
    RunJournal journal(root + "/journal.jsonl");
    for (std::size_t i = 0; i < cells.size(); i += 2)
        journal.record(cellKey(cells[i]), fresh[i]);
    ASSERT_EQ(journal.size(), 6u);

    ProcOptions proc;
    proc.workers = 1;
    BrokerOptions broker;
    broker.spool = root + "/spool";
    broker.pollInterval = 0.02; // workers = 0: this process plays one
    std::vector<std::string> keys;
    for (const ExperimentSpec &c : cells)
        keys.push_back(cellKey(c));
    SpoolWorkerOptions wopt;
    wopt.fingerprint = cells.front().machineConfig().fingerprint();
    wopt.idlePoll = 0.01;

    std::vector<std::vector<RunResult>> resumed;
    {
        FaultScope fault("job:7");
        std::thread worker;
        if (backend == IsolationMode::Spool)
            worker = std::thread([&] {
                runSpoolWorker(
                    broker.spool, keys,
                    [&](std::size_t k) { return cells[k].tryRun().result; },
                    wopt);
            });
        try {
            resumed = runCampaign(cells, backend, proc, &journal, broker);
        } catch (const std::exception &e) {
            ADD_FAILURE() << e.what();
            Spool(broker.spool).markComplete(); // send the worker home
        }
        if (worker.joinable())
            worker.join();
    }

    ASSERT_EQ(resumed.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        ASSERT_EQ(resumed[i].size(), 1u) << "cell " << i;
        EXPECT_FALSE(resumed[i][0].failed())
            << "cell " << i << ": " << resumed[i][0].error.message;
        EXPECT_EQ(canonical(resumed[i][0]), canonical(fresh[i]))
            << "cell " << i;
    }
    EXPECT_EQ(journal.size(), cells.size());
}

TEST(Campaign, ResumesHalfJournaledSweepOnThreadBackend)
{
    expectHalfJournaledResume(IsolationMode::Thread);
}

TEST(Campaign, ResumesHalfJournaledSweepOnProcessBackend)
{
    expectHalfJournaledResume(IsolationMode::Process);
}

TEST(Campaign, ResumesHalfJournaledSweepOnSpoolBackend)
{
    expectHalfJournaledResume(IsolationMode::Spool);
}

TEST(Campaign, QuarantinedCellCarriesItsLabels)
{
    // The process backend fabricates a lost cell without knowing what
    // it was; runCampaign labels it from the cell.
    const std::vector<ExperimentSpec> cells = sweep();
    ProcOptions proc;
    proc.workers = 2;
    std::vector<std::vector<RunResult>> results;
    {
        FaultScope fault("worker-crash:2");
        results = runCampaign(cells, IsolationMode::Process, proc);
    }
    ASSERT_EQ(results.size(), cells.size());
    ASSERT_EQ(results[1].size(), 1u);
    ASSERT_TRUE(results[1][0].failed());
    EXPECT_EQ(results[1][0].error.signal, SIGABRT);
    EXPECT_EQ(results[1][0].workload, "416.gamess");
    EXPECT_EQ(results[1][0].contention, cells[1].contention());
    EXPECT_FALSE(results[0][0].failed());
}

/** 416.gamess under a 470.lbm 2nd-Trace co-runner. */
ExperimentSpec
gamessPair()
{
    ExperimentSpec pair(MachineConfig::scaled());
    pair.workload(findWorkload("416.gamess"))
        .secondTrace(findWorkload("470.lbm"))
        .params(quickParams());
    return pair;
}

TEST(Campaign, ServesEveryCoreOfAJournaledPair)
{
    const std::vector<ExperimentSpec> cells = {gamessPair()};
    const std::string root = scratch("pair");
    std::filesystem::create_directories(root);
    RunJournal journal(root + "/journal.jsonl");
    ProcOptions proc;
    proc.workers = 1;

    const auto first =
        runCampaign(cells, IsolationMode::Thread, proc, &journal);
    ASSERT_EQ(first.size(), 1u);
    ASSERT_EQ(first[0].size(), 2u);
    EXPECT_EQ(journal.size(), 2u);

    FaultScope fault("job:1"); // a simulated cell would fail
    const auto again =
        runCampaign(cells, IsolationMode::Thread, proc, &journal);
    ASSERT_EQ(again.size(), 1u);
    ASSERT_EQ(again[0].size(), 2u);
    for (std::size_t i = 0; i < 2; ++i)
        EXPECT_EQ(canonical(again[0][i]), canonical(first[0][i]));
}

TEST(Campaign, PairOrdersKeepTheirOwnJournalEntries)
{
    // Core 1 of (gamess, lbm) and core 0 of (lbm, gamess) both run lbm
    // beside gamess, but on different cores of the machine, so their
    // results differ; they must not share a journal entry.
    ExperimentSpec swapped(MachineConfig::scaled());
    swapped.workload(findWorkload("470.lbm"))
        .secondTrace(findWorkload("416.gamess"))
        .params(quickParams());
    const std::vector<ExperimentSpec> cells = {gamessPair(), swapped};
    const std::string root = scratch("pair_orders");
    std::filesystem::create_directories(root);
    ProcOptions proc;
    proc.workers = 1;

    std::vector<std::vector<RunResult>> fresh;
    {
        RunJournal journal(root + "/journal.jsonl");
        fresh = runCampaign(cells, IsolationMode::Thread, proc, &journal);
    }
    ASSERT_EQ(fresh.size(), 2u);
    ASSERT_NE(canonical(fresh[0][1]), canonical(fresh[1][0]))
        << "the two orders must differ for this test to see a mix-up";

    RunJournal journal(root + "/journal.jsonl");
    EXPECT_EQ(journal.size(), 4u);
    FaultScope fault("job:1"); // a simulated cell would fail
    const auto resumed =
        runCampaign(cells, IsolationMode::Thread, proc, &journal);
    ASSERT_EQ(resumed.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        ASSERT_EQ(resumed[i].size(), 2u);
        for (std::size_t c = 0; c < 2; ++c)
            EXPECT_EQ(canonical(resumed[i][c]), canonical(fresh[i][c]))
                << "cell " << i << " core " << c;
    }
}

TEST(Campaign, ProcessAndSpoolBackendsRefuseMultiCoreCells)
{
    // Both ship core 0 only, so a pair would lose its co-runner's
    // result; they refuse before starting any worker.
    const std::vector<ExperimentSpec> cells = {sweep().front(),
                                               gamessPair()};
    ProcOptions proc;
    proc.workers = 1;
    BrokerOptions broker;
    broker.spool = scratch("multicore") + "/spool";
    EXPECT_ERROR(runCampaign(cells, IsolationMode::Process, proc),
                 ConfigError, "process backend");
    EXPECT_ERROR(
        runCampaign(cells, IsolationMode::Spool, proc, nullptr, broker),
        ConfigError, "spool backend");
    EXPECT_FALSE(std::filesystem::exists(broker.spool));
}

TEST(Campaign, PairAndMixGridIsEqualAtOneAndFourWorkers)
{
    // Pairs and a 3-way mix that share per-core streams with each
    // other and with an isolation cell, so the grid replays shared
    // trace stores; every core must equal a live-generator run.
    const WorkloadSpec gamess = findWorkload("416.gamess");
    const WorkloadSpec lbm = findWorkload("470.lbm");
    const WorkloadSpec soplex = findWorkload("450.soplex");
    std::vector<ExperimentSpec> cells;
    for (const auto &[a, b] : {std::pair{gamess, lbm}, {gamess, soplex},
                               {soplex, lbm}, {lbm, soplex}}) {
        ExperimentSpec pair(MachineConfig::scaled());
        pair.workload(a).secondTrace(b).params(quickParams());
        cells.push_back(pair);
    }
    ExperimentSpec mix(MachineConfig::scaled());
    mix.mix({gamess, lbm, soplex}).params(quickParams());
    cells.push_back(mix);
    ExperimentSpec alone(MachineConfig::scaled());
    alone.workload(gamess).params(quickParams());
    cells.push_back(alone);

    std::vector<std::vector<std::string>> live;
    for (const ExperimentSpec &c : cells) {
        live.emplace_back();
        for (const RunResult &r : c.runAll())
            live.back().push_back(canonical(r));
    }
    for (const unsigned workers : {1u, 4u}) {
        ProcOptions proc;
        proc.workers = workers;
        const auto results = runCampaign(cells, IsolationMode::Thread, proc);
        ASSERT_EQ(results.size(), cells.size());
        for (std::size_t i = 0; i < cells.size(); ++i) {
            ASSERT_EQ(results[i].size(), live[i].size()) << "cell " << i;
            for (std::size_t c = 0; c < live[i].size(); ++c)
                EXPECT_EQ(canonical(results[i][c]), live[i][c])
                    << "cell " << i << " core " << c << " at " << workers
                    << " workers";
        }
    }
}

TEST(Campaign, PumpedSweepIsEqualOnEveryBackend)
{
    // At one worker a cell's replayed stream is pumped on any host
    // with two CPUs: on the process backend inside the forked child.
    // The spool backend pumps nothing. Every backend must report what
    // an inline run reports, cpu_seconds aside.
    const std::vector<ExperimentSpec> cells = sweep();
    std::vector<std::string> inlined;
    for (const ExperimentSpec &c : cells)
        inlined.push_back(canonical(c.tryRun({}, 0).result));
    ProcOptions proc;
    proc.workers = 1;
    BrokerOptions broker;
    broker.spool = scratch("pumped_spool");
    broker.workers = 1;
    for (const IsolationMode backend :
         {IsolationMode::Thread, IsolationMode::Process,
          IsolationMode::Spool}) {
        const auto results =
            runCampaign(cells, backend, proc, nullptr, broker);
        ASSERT_EQ(results.size(), cells.size()) << toString(backend);
        for (std::size_t i = 0; i < cells.size(); ++i) {
            ASSERT_EQ(results[i].size(), 1u);
            EXPECT_EQ(canonical(results[i][0]), inlined[i])
                << toString(backend) << " cell " << i;
        }
    }
}

TEST(Campaign, NoProducerStartsWhenWorkersFillTheCpus)
{
    // --jobs at the CPU count leaves no CPU idle, so no cell pumps. A
    // watcher samples the process's producer count all along.
    cpu_set_t set;
    CPU_ZERO(&set);
    ASSERT_EQ(sched_getaffinity(0, sizeof set, &set), 0);
    const auto cpus = static_cast<unsigned>(CPU_COUNT(&set));
    EXPECT_EQ(TracePump::budget(cpus), 0u);
    std::atomic<bool> done{false};
    std::atomic<unsigned> seen{0};
    std::thread watcher([&] {
        while (!done.load()) {
            seen = std::max(seen.load(), TracePump::producers());
            std::this_thread::yield();
        }
    });
    ProcOptions proc;
    proc.workers = cpus;
    const auto results = runCampaign(sweep(), IsolationMode::Thread, proc);
    done = true;
    watcher.join();
    EXPECT_EQ(results.size(), sweep().size());
    EXPECT_EQ(seen.load(), 0u);
}

TEST(Json, UnsignedIntegersRoundTripExactly)
{
    for (const std::uint64_t v :
         {9007199254740993ull, 18446744073709551615ull}) {
        std::ostringstream os;
        {
            JsonWriter w(os, 0);
            w.beginObject();
            w.member("v", v);
            w.endObject();
        }
        EXPECT_EQ(parseJson(os.str()).at("v").asU64(), v) << os.str();
    }
}

constexpr std::uint64_t k53Plus1 = 9007199254740993ull;  // 2^53 + 1
constexpr std::uint64_t kU64Max = 18446744073709551615ull; // 2^64 - 1

/** A run whose u64 counters sit where a double would round them. */
RunResult
wideCounters()
{
    RunResult r;
    r.workload = "416.gamess";
    r.contention = "pinte@0.100000";
    r.metrics.llcAccesses = kU64Max;
    r.metrics.llcMisses = k53Plus1;
    r.pinte.accessesSeen = kU64Max;
    r.pinte.triggers = k53Plus1;
    r.pinte.invalidations = kU64Max - 1;
    std::vector<std::uint64_t> reuse(16, 0);
    reuse[0] = k53Plus1;
    reuse[15] = kU64Max;
    r.reuse = Histogram::fromCounts(reuse);
    return r;
}

void
expectWideCounters(const RunResult &r)
{
    EXPECT_EQ(r.metrics.llcAccesses, kU64Max);
    EXPECT_EQ(r.metrics.llcMisses, k53Plus1);
    EXPECT_EQ(r.pinte.accessesSeen, kU64Max);
    EXPECT_EQ(r.pinte.triggers, k53Plus1);
    EXPECT_EQ(r.pinte.invalidations, kU64Max - 1);
    ASSERT_EQ(r.reuse.size(), 16u);
    EXPECT_EQ(r.reuse.at(0), k53Plus1);
    EXPECT_EQ(r.reuse.at(15), kU64Max);
    EXPECT_EQ(canonical(r), canonical(wideCounters()));
}

/** Counters above 2^53 survive every carrier a run crosses: the report
 *  document, a journal line, and a spool record. */
TEST(U64, RunCountersSurviveEveryCarrier)
{
    const RunResult r = wideCounters();
    const std::string json = canonical(r);
    expectWideCounters(runFromJson(parseJson(json)));

    const std::string root = scratch("u64");
    std::filesystem::create_directories(root);
    RunJournal(root + "/journal.jsonl").record("cell", r);
    const RunJournal reloaded(root + "/journal.jsonl");
    ASSERT_NE(reloaded.find("cell"), nullptr);
    expectWideCounters(*reloaded.find("cell"));

    SpoolRecord rec;
    rec.cell = kU64Max;
    rec.token = 0xffffffffu;
    rec.key = "cell";
    rec.runJson = json;
    SpoolRecord back;
    ASSERT_TRUE(unpackRecord(packRecord(rec), back));
    EXPECT_EQ(back.cell, kU64Max);
    EXPECT_EQ(back.token, 0xffffffffu);
    EXPECT_EQ(back.key, "cell");
    expectWideCounters(runFromJson(parseJson(back.runJson)));
}

/** A document a peer wrote can lack a key or carry the wrong type;
 *  the accessors throw a typed error its reader can skip on, rather
 *  than ending the process. */
TEST(Json, AccessorsThrowOnMissingKeyOrWrongType)
{
    const JsonValue v = parseJson("{\"n\": 1, \"s\": \"x\"}");
    EXPECT_THROW(v.at("absent"), ConfigError);
    EXPECT_THROW(v.at("s").asDouble(), ConfigError);
    EXPECT_THROW(v.at("s").asU64(), ConfigError);
    EXPECT_THROW(v.at("n").asString(), ConfigError);
    std::string err;
    const JsonValue run = parseJson("{\"workload\": \"w\"}", &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_THROW(runFromJson(run), ConfigError);
}

TEST(Json, AsU64RejectsNegativeFractionalAndOutOfRange)
{
    for (const char *text :
         {"[-1]", "[0.5]", "[18446744073709551616]"}) {
        const JsonValue v = parseJson(text);
        EXPECT_THROW(v.array.front().asU64(), ConfigError) << text;
        EXPECT_NO_THROW(v.array.front().asDouble()) << text;
    }
}

/** Files a peer wrote reach the parser; nesting is bounded rather
 *  than recursing until the stack overflows. */
TEST(Json, NestingDepthIsBounded)
{
    std::string err;
    parseJson(std::string(512, '[') + std::string(512, ']'), &err);
    EXPECT_TRUE(err.empty()) << err;
    parseJson(std::string(100000, '['), &err);
    EXPECT_NE(err.find("nesting"), std::string::npos) << err;
}

} // namespace
} // namespace pinte
