/**
 * @file
 * The one campaign path (sim/campaign.hh): cellKey() reproduces the
 * journal keys earlier releases wrote, and runCampaign() resumes a
 * half-journaled sweep on every backend without simulating a
 * journaled cell again.
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

#include <csignal>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.hh"
#include "common/json.hh"
#include "sim/campaign.hh"
#include "sim/options.hh"
#include "sim/sink.hh"

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

    // Core 1 of a bench 2nd-Trace pair cell.
    ExperimentSpec pair(MachineConfig::scaled());
    pair.workload(mcf).secondTrace(findWorkload("470.lbm")).params(plain);
    EXPECT_EQ(cellKey(pair, 1),
              "cores=2;core=128,4,4,12,12,3,12;l1i=16x4@1r0i0d1s1;"
              "l1d=16x4@4r0i0d2s1;l2=32x8@12r0i0d4s1;"
              "llc=64x16@38r0i0d1s1;dram=2,16,32,22,22,22,4,2,8,0;"
              "pf=000;pinte=0.000000,20823,1,0,llc-only|w2000|r8000|"
              "s2000|seed0|470.lbm|429.mcf");
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

    std::vector<RunResult> resumed;
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
        EXPECT_FALSE(resumed[i].failed())
            << "cell " << i << ": " << resumed[i].error.message;
        EXPECT_EQ(canonical(resumed[i]), canonical(fresh[i]))
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
    std::vector<RunResult> results;
    {
        FaultScope fault("worker-crash:2");
        results = runCampaign(cells, IsolationMode::Process, proc);
    }
    ASSERT_EQ(results.size(), cells.size());
    ASSERT_TRUE(results[1].failed());
    EXPECT_EQ(results[1].error.signal, SIGABRT);
    EXPECT_EQ(results[1].workload, "416.gamess");
    EXPECT_EQ(results[1].contention, cells[1].contention());
    EXPECT_FALSE(results[0].failed());
}

TEST(Campaign, RunCellServesEveryCoreOfAJournaledPair)
{
    ExperimentSpec pair(MachineConfig::scaled());
    pair.workload(findWorkload("416.gamess"))
        .secondTrace(findWorkload("470.lbm"))
        .params(quickParams());
    const std::string root = scratch("pair");
    std::filesystem::create_directories(root);
    RunJournal journal(root + "/journal.jsonl");

    const std::vector<RunResult> first = runCell(pair, &journal);
    ASSERT_EQ(first.size(), 2u);
    EXPECT_EQ(journal.size(), 2u);

    FaultScope fault("job:1"); // a simulated cell would fail
    const std::vector<RunResult> again = runCell(pair, &journal);
    ASSERT_EQ(again.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i)
        EXPECT_EQ(canonical(again[i]), canonical(first[i]));
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
