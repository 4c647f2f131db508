/**
 * @file
 * Architectural checkpoint tests: snapshot/restore round-trips across
 * the bitwise config matrix, on-disk format rejection, the interval
 * scheduler, and checkpoint-aware resume identity.
 *
 * The load-bearing property mirrors the bitwise report matrix:
 * restoring a mid-run snapshot into a freshly constructed System and
 * continuing must be indistinguishable — in serialized state bytes
 * and in every statistic — from never having stopped. Anything less
 * and the interval engine's functional/detailed alternation would
 * drift from the straight-through truth it claims to estimate.
 */

#include <gtest/gtest.h>

#include "expect_error.hh"

#include <cstdio>
#include <fstream>
#include <memory>

#include "cache/cache.hh"
#include "common/crc32.hh"
#include "common/snapshot.hh"
#include "cpu/core.hh"
#include "replacement/policy.hh"
#include "sim/experiment.hh"
#include "sim/journal.hh"
#include "sim/options.hh"

using namespace pinte;

namespace
{

/** One configuration of the round-trip matrix. */
struct Row
{
    std::string name;
    MachineConfig machine;
    std::vector<std::string> workloads;
};

/**
 * The same subsystem coverage the bitwise report matrix pins: every
 * replacement policy, both non-default inclusion modes, prefetchers,
 * PInTE scopes, a pair co-run, and a no-PInTE isolation config.
 */
std::vector<Row>
matrix()
{
    std::vector<Row> rows;
    {
        MachineConfig m = MachineConfig::scaled();
        m.pinte.pInduce = 0.2;
        rows.push_back({"lru_base", m, {"450.soplex"}});
    }
    {
        MachineConfig m = MachineConfig::scaled();
        m.pinte.pInduce = 0.35;
        m.llc.replacement = parseReplacement("rrip");
        m.llc.inclusion = parseInclusion("inclusive");
        m.prefetch = PrefetchConfig::parse("NN0");
        rows.push_back({"rrip_incl_pf", m, {"429.mcf"}});
    }
    {
        MachineConfig m = MachineConfig::scaled();
        m.pinte.pInduce = 0.1;
        m.llc.replacement = parseReplacement("plru");
        m.llc.inclusion = parseInclusion("exclusive");
        m.pinteScope = PInteScope::L2AndLlc;
        rows.push_back({"plru_excl_scope", m, {"470.lbm"}});
    }
    {
        MachineConfig m = MachineConfig::scaled();
        m.pinte.pInduce = 0.3;
        m.llc.replacement = parseReplacement("nmru");
        m.prefetch = PrefetchConfig::parse("NNN");
        m.dram.contentionExtra = 12;
        rows.push_back({"nmru_pf_dram", m, {"462.libquantum"}});
    }
    {
        MachineConfig m = MachineConfig::scaled();
        m.pinte.pInduce = 0.25;
        m.llc.replacement = parseReplacement("drrip");
        m.prefetch = PrefetchConfig::parse("NNI");
        rows.push_back({"drrip_pf", m, {"433.milc"}});
    }
    {
        MachineConfig m = MachineConfig::scaled(2);
        m.llc.replacement = parseReplacement("rrip");
        rows.push_back({"pair_rrip", m, {"450.soplex", "470.lbm"}});
    }
    {
        MachineConfig m = MachineConfig::scaled();
        m.llc.replacement = parseReplacement("random");
        rows.push_back({"random_iso", m, {"401.bzip2"}});
    }
    {
        MachineConfig m = MachineConfig::scaled();
        m.pinte.pInduce = 0.3;
        m.llc.replacement = parseReplacement("lhd");
        rows.push_back({"lhd_pinte", m, {"450.soplex"}});
    }
    {
        MachineConfig m = MachineConfig::scaled();
        m.pinte.pInduce = 0.3;
        m.pinteScope = PInteScope::L2Only;
        rows.push_back({"l2scope", m, {"444.namd"}});
    }
    return rows;
}

/** A System plus the trace generators it reads (sources not owned). */
struct Rig
{
    std::vector<std::unique_ptr<TraceGenerator>> gens;
    std::unique_ptr<System> sys;

    Rig(const MachineConfig &m,
        const std::vector<std::string> &workloads)
    {
        std::vector<TraceSource *> sources;
        for (const auto &name : workloads) {
            gens.push_back(
                std::make_unique<TraceGenerator>(findWorkload(name)));
            sources.push_back(gens.back().get());
        }
        sys = std::make_unique<System>(m, sources);
    }
};

/**
 * Advance core 0 by `total` instructions in fixed `step` requests —
 * the same call sequence on both sides of a round-trip comparison, so
 * quantum-boundary overshoot is identical by construction (exactly
 * how the experiment loop replays its schedule across a resume).
 */
void
runSteps(System &sys, InstCount total, InstCount step)
{
    for (InstCount done = 0; done < total; done += step)
        sys.runUntilCore0(std::min(step, total - done));
}

/** Full serialized machine state. */
std::vector<std::uint8_t>
stateBytes(const System &sys)
{
    SnapshotWriter w;
    sys.saveState(w);
    return w.bytes();
}

/** Temp file path for this test binary; removed by each test. */
std::string
tempPath(const std::string &tag)
{
    return ::testing::TempDir() + "pinte_ckpt_" + tag + ".bin";
}

ExperimentParams
quick()
{
    ExperimentParams p;
    p.warmup = 5000;
    p.roi = 15000;
    p.sampleEvery = 3000;
    return p;
}

} // namespace

TEST(CheckpointRoundtrip, MatrixBitwiseIdenticalAfterRestore)
{
    constexpr InstCount warmup = 4000, half = 4000, step = 1000;
    for (const Row &row : matrix()) {
        SCOPED_TRACE(row.name);
        const std::string path = tempPath(row.name);

        // Straight-through reference.
        Rig straight(row.machine, row.workloads);
        straight.sys->warmup(warmup);
        runSteps(*straight.sys, 2 * half, step);

        // Checkpointed: identical run, snapshotted at the midpoint and
        // restored into a *fresh* machine for the second half.
        Rig first(row.machine, row.workloads);
        first.sys->warmup(warmup);
        runSteps(*first.sys, half, step);
        first.sys->snapshot(path);

        Rig second(row.machine, row.workloads);
        second.sys->restore(path);
        runSteps(*second.sys, half, step);

        EXPECT_EQ(stateBytes(*straight.sys), stateBytes(*second.sys))
            << "restored state diverged from straight-through";
        EXPECT_EQ(straight.sys->core(0).stats().instructions,
                  second.sys->core(0).stats().instructions);
        EXPECT_EQ(straight.sys->llc().stats().perCore[0].misses,
                  second.sys->llc().stats().perCore[0].misses);
        if (straight.sys->pinte()) {
            ASSERT_NE(second.sys->pinte(), nullptr);
            EXPECT_EQ(straight.sys->pinte()->stats().invalidations,
                      second.sys->pinte()->stats().invalidations);
        }
        std::remove(path.c_str());
    }
}

TEST(CheckpointRoundtrip, FunctionalModeStateAlsoRoundTrips)
{
    // The interval engine checkpoints between functional phases too;
    // mixed-mode state must restore as exactly as detailed-only state.
    MachineConfig m = MachineConfig::scaled();
    m.pinte.pInduce = 0.2;
    const std::string path = tempPath("functional");

    auto mixed = [](System &sys) {
        sys.setExecMode(ExecMode::FunctionalWarming);
        sys.runUntilCore0(3000);
        sys.setExecMode(ExecMode::Detailed);
        runSteps(sys, 2000, 1000);
    };

    Rig straight(m, {"450.soplex"});
    straight.sys->warmup(2000);
    mixed(*straight.sys);
    mixed(*straight.sys);

    Rig first(m, {"450.soplex"});
    first.sys->warmup(2000);
    mixed(*first.sys);
    first.sys->snapshot(path);

    Rig second(m, {"450.soplex"});
    second.sys->restore(path);
    mixed(*second.sys);

    EXPECT_EQ(stateBytes(*straight.sys), stateBytes(*second.sys));
    std::remove(path.c_str());
}

TEST(CheckpointFormat, CorruptPayloadRejected)
{
    MachineConfig m = MachineConfig::scaled();
    const std::string path = tempPath("corrupt");
    Rig rig(m, {"450.soplex"});
    rig.sys->warmup(2000);
    rig.sys->snapshot(path);

    // Flip one payload byte; the CRC footer must catch it.
    std::fstream f(path, std::ios::in | std::ios::out |
                             std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(200);
    char b = 0;
    f.seekg(200);
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x5a);
    f.seekp(200);
    f.write(&b, 1);
    f.close();

    Rig fresh(m, {"450.soplex"});
    EXPECT_ERROR(fresh.sys->restore(path), SimError, "CRC mismatch");
    std::remove(path.c_str());
}

TEST(CheckpointFormat, TruncatedFileRejected)
{
    MachineConfig m = MachineConfig::scaled();
    const std::string path = tempPath("truncated");
    Rig rig(m, {"450.soplex"});
    rig.sys->warmup(2000);
    rig.sys->snapshot(path);

    std::ifstream in(path, std::ios::binary);
    std::string raw((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(raw.data(),
              static_cast<std::streamsize>(raw.size() / 2));
    out.close();

    Rig fresh(m, {"450.soplex"});
    EXPECT_ERROR(fresh.sys->restore(path), SimError, "snapshot");
    std::remove(path.c_str());
}

TEST(CheckpointFormat, UnsupportedVersionRejected)
{
    // Hand-build a well-formed file (valid CRC) carrying a future
    // format version; the version check must fire, not the CRC.
    const std::string path = tempPath("version");
    SnapshotWriter head;
    head.put64(0x50414e5345544e50ull); // snapshot magic
    head.put32(snapshotFormatVersion + 1);
    head.putString("fp");
    head.put64(0);
    std::uint32_t crc =
        crc32(0, head.bytes().data(), head.bytes().size());
    SnapshotWriter tail;
    tail.put32(crc);
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char *>(head.bytes().data()),
              static_cast<std::streamsize>(head.bytes().size()));
    out.write(reinterpret_cast<const char *>(tail.bytes().data()),
              static_cast<std::streamsize>(tail.bytes().size()));
    out.close();

    EXPECT_ERROR(readSnapshotFile(path, ""), SimError,
                 "format version");
    std::remove(path.c_str());
}

TEST(CheckpointFormat, DifferentMachineRejected)
{
    MachineConfig m = MachineConfig::scaled();
    const std::string path = tempPath("fingerprint");
    Rig rig(m, {"450.soplex"});
    rig.sys->warmup(2000);
    rig.sys->snapshot(path);

    MachineConfig other = m;
    other.llc.replacement = parseReplacement("rrip");
    Rig fresh(other, {"450.soplex"});
    EXPECT_ERROR(fresh.sys->restore(path), SimError,
                 "different machine");
    std::remove(path.c_str());
}

TEST(CheckpointFormat, AdHocTraceSourceCannotCheckpoint)
{
    // Sources that don't implement the checkpoint pair must fail
    // loudly: a silent no-op default would corrupt restored streams.
    struct Fixed : TraceSource
    {
        TraceRecord next() override { return {}; }
        void reset() override {}
    } src;
    SnapshotWriter w;
    EXPECT_ERROR(src.saveState(w), SimError, "checkpoint");
}

TEST(CheckpointResume, ExperimentResumesBitwiseIdentical)
{
    // The experiment-level resume path: a run that checkpoints every
    // 6000 ROI instructions leaves its last snapshot at 12000/15000;
    // re-running the same spec resumes there and must produce the
    // straight-through result bit for bit.
    const std::string path = tempPath("resume");
    std::remove(path.c_str());
    const auto spec = findWorkload("450.soplex");
    const MachineConfig m = MachineConfig::scaled();

    ExperimentParams plain = quick();
    const RunResult straight = ExperimentSpec(m)
                                   .workload(spec)
                                   .pinte(0.2)
                                   .params(plain)
                                   .run();

    ExperimentParams ck = quick();
    ck.checkpointPath = path;
    ck.checkpointEvery = 6000;
    const RunResult first = ExperimentSpec(m)
                                .workload(spec)
                                .pinte(0.2)
                                .params(ck)
                                .run();
    const RunResult resumed = ExperimentSpec(m)
                                  .workload(spec)
                                  .pinte(0.2)
                                  .params(ck)
                                  .run();

    for (const RunResult *r : {&first, &resumed}) {
        EXPECT_EQ(r->metrics.ipc, straight.metrics.ipc);
        EXPECT_EQ(r->metrics.llcMisses, straight.metrics.llcMisses);
        EXPECT_EQ(r->pinte.invalidations,
                  straight.pinte.invalidations);
        ASSERT_EQ(r->samples.size(), straight.samples.size());
        for (std::size_t i = 0; i < straight.samples.size(); ++i) {
            EXPECT_EQ(r->samples[i].ipc, straight.samples[i].ipc);
            EXPECT_EQ(r->samples[i].instructions,
                      straight.samples[i].instructions);
        }
    }
    std::remove(path.c_str());
}

TEST(CheckpointResume, SampledRunResumesBitwiseIdentical)
{
    // Same property across the interval engine: resuming a sampled
    // run mid-schedule reproduces the uninterrupted sampled result.
    const std::string path = tempPath("resume_sampled");
    std::remove(path.c_str());
    const auto spec = findWorkload("450.soplex");
    const MachineConfig m = MachineConfig::scaled();

    ExperimentParams sp = quick();
    sp.sampling.mode = SampleMode::Periodic;
    sp.sampling.intervalLength = 1000;
    sp.sampling.detailedFraction = 0.25;
    const RunResult straight = ExperimentSpec(m)
                                   .workload(spec)
                                   .pinte(0.2)
                                   .params(sp)
                                   .run();

    ExperimentParams ck = sp;
    ck.checkpointPath = path;
    ck.checkpointEvery = 6000;
    ExperimentSpec(m).workload(spec).pinte(0.2).params(ck).run();
    const RunResult resumed = ExperimentSpec(m)
                                  .workload(spec)
                                  .pinte(0.2)
                                  .params(ck)
                                  .run();

    ASSERT_TRUE(straight.sampled.enabled());
    ASSERT_TRUE(resumed.sampled.enabled());
    EXPECT_EQ(resumed.sampled.intervals, straight.sampled.intervals);
    EXPECT_EQ(resumed.sampled.detailedIntervals,
              straight.sampled.detailedIntervals);
    ASSERT_EQ(resumed.sampled.stats.size(),
              straight.sampled.stats.size());
    for (std::size_t i = 0; i < straight.sampled.stats.size(); ++i) {
        EXPECT_EQ(resumed.sampled.stats[i].mean,
                  straight.sampled.stats[i].mean)
            << straight.sampled.stats[i].name;
        EXPECT_EQ(resumed.sampled.stats[i].ci95,
                  straight.sampled.stats[i].ci95)
            << straight.sampled.stats[i].name;
    }
    std::remove(path.c_str());
}

TEST(CheckpointResume, MismatchedParamsRejected)
{
    // A checkpoint taken under one schedule must not resume a run
    // with a different one: the key embeds the scale parameters.
    const std::string path = tempPath("resume_mismatch");
    std::remove(path.c_str());
    const auto spec = findWorkload("450.soplex");
    const MachineConfig m = MachineConfig::scaled();

    ExperimentParams ck = quick();
    ck.checkpointPath = path;
    ck.checkpointEvery = 6000;
    ExperimentSpec(m).workload(spec).pinte(0.2).params(ck).run();

    ExperimentParams other = ck;
    other.runSeed = 99;
    EXPECT_ERROR(ExperimentSpec(m)
                     .workload(spec)
                     .pinte(0.2)
                     .params(other)
                     .run(),
                 SimError, "different machine");
    std::remove(path.c_str());
}

TEST(IntervalScheduler, PeriodicAnchorsAndPaces)
{
    SamplingParams sp;
    sp.mode = SampleMode::Periodic;
    sp.detailedFraction = 0.1;
    EXPECT_TRUE(intervalIsDetailed(sp, 0)); // anchor
    std::uint64_t detailed = 0;
    for (std::uint64_t k = 0; k < 1000; ++k)
        detailed += intervalIsDetailed(sp, k) ? 1 : 0;
    EXPECT_EQ(detailed, 100u);
}

TEST(IntervalScheduler, RandomConvergesAndIsDeterministic)
{
    SamplingParams sp;
    sp.mode = SampleMode::Random;
    sp.detailedFraction = 0.2;
    sp.seed = 7;
    std::uint64_t detailed = 0;
    for (std::uint64_t k = 0; k < 10000; ++k) {
        const bool d = intervalIsDetailed(sp, k);
        EXPECT_EQ(d, intervalIsDetailed(sp, k)); // pure function
        detailed += d ? 1 : 0;
    }
    // Long-run share converges to the detailed fraction.
    EXPECT_NEAR(static_cast<double>(detailed) / 10000.0, 0.2, 0.02);

    SamplingParams other = sp;
    other.seed = 8;
    std::uint64_t differs = 0;
    for (std::uint64_t k = 0; k < 1000; ++k)
        differs += intervalIsDetailed(sp, k) !=
                           intervalIsDetailed(other, k)
                       ? 1
                       : 0;
    EXPECT_GT(differs, 0u) << "seed does not vary the schedule";
}

TEST(JournalKey, SamplingParamsArePartOfTheIdentity)
{
    // Regression: sampled and detailed runs of the same workload used
    // to share a journal key, so a resumed campaign could serve a
    // detailed result where a sampled one was requested (or vice
    // versa).
    const MachineConfig m = MachineConfig::scaled();
    const WorkloadSpec w = findWorkload("450.soplex");
    auto keyOf = [&](const ExperimentParams &p) {
        return cellKey(ExperimentSpec(m).workload(w).params(p));
    };
    ExperimentParams detailed;
    ExperimentParams sampled = detailed;
    sampled.sampling.mode = SampleMode::Periodic;
    EXPECT_NE(keyOf(detailed), keyOf(sampled));

    ExperimentParams other = sampled;
    other.sampling.detailedFraction = 0.5;
    EXPECT_NE(keyOf(sampled), keyOf(other));

    // Sampling-off keys keep the historical format, so journals
    // recorded before the interval engine still resolve.
    EXPECT_EQ(keyOf(detailed),
              m.fingerprint() + "|w" + std::to_string(detailed.warmup) +
                  "|r" + std::to_string(detailed.roi) + "|s" +
                  std::to_string(detailed.sampleEvery) + "|seed" +
                  std::to_string(detailed.runSeed) + "|" + w.name +
                  "|isolation");
}

TEST(Journal, CompactionRewritesDeadWeight)
{
    // A long-lived journal accretes duplicate keys (independent
    // recorders, e.g. a restarted spool broker) and garbage lines
    // (torn tails). Construction must compact once dead + duplicate
    // lines outnumber live entries, preserving find() exactly.
    const std::string path =
        ::testing::TempDir() + "pinte_journal_compact.jsonl";
    std::remove(path.c_str());

    RunResult a;
    a.workload = "w";
    a.contention = "a";
    a.metrics.ipc = 1.5;
    RunResult b = a;
    b.contention = "b";
    b.metrics.ipc = 2.5;
    RunResult a2 = a;
    a2.metrics.ipc = 3.5;

    {
        // Two independent recorders over the same file — a restarted
        // spool broker racing its predecessor's worker. Each loaded
        // an empty journal, so both append ka: a duplicate line.
        RunJournal j1(path);
        RunJournal j2(path);
        EXPECT_FALSE(j1.compacted());
        j1.record("ka", a);
        j1.record("kb", b);
        j2.record("ka", a2);
    }
    {
        // Interleaved garbage and a torn tail from a SIGKILL.
        std::ofstream app(path, std::ios::app);
        app << "not json at all\n"
            << "{\"key\": \"half";
    }

    {
        // 2 dead + 1 duplicate > 2 live: the load compacts, serving
        // last-wins entries identical to an uncompacted load.
        RunJournal j(path);
        EXPECT_TRUE(j.compacted());
        EXPECT_EQ(j.size(), 2u);
        ASSERT_NE(j.find("ka"), nullptr);
        EXPECT_DOUBLE_EQ(j.find("ka")->metrics.ipc, 3.5);
        ASSERT_NE(j.find("kb"), nullptr);
        EXPECT_DOUBLE_EQ(j.find("kb")->metrics.ipc, 2.5);
        EXPECT_EQ(j.find("half"), nullptr);
    }
    {
        // The rewrite left exactly one line per live entry...
        std::ifstream in(path);
        std::size_t lines = 0;
        std::string line;
        while (std::getline(in, line))
            ++lines;
        EXPECT_EQ(lines, 2u);
    }
    {
        // ...and a reload of the compacted file is clean and serves
        // the same entry set.
        RunJournal j(path);
        EXPECT_FALSE(j.compacted());
        EXPECT_EQ(j.size(), 2u);
        ASSERT_NE(j.find("ka"), nullptr);
        EXPECT_DOUBLE_EQ(j.find("ka")->metrics.ipc, 3.5);
    }
    std::remove(path.c_str());
}

TEST(SampledRun, RejectsIncompatibleCombinations)
{
    const auto spec = findWorkload("450.soplex");
    const MachineConfig m = MachineConfig::scaled();

    ExperimentParams p = quick();
    p.sampling.mode = SampleMode::Periodic;
    p.sampleIntervalCycles = 1024;
    EXPECT_ERROR(
        ExperimentSpec(m).workload(spec).params(p).run(), ConfigError,
        "interval sampling");

    ExperimentParams q = quick();
    q.checkpointPath = tempPath("combo");
    q.sampleIntervalCycles = 1024;
    EXPECT_ERROR(
        ExperimentSpec(m).workload(spec).params(q).run(), ConfigError,
        "time-series");

    ExperimentParams r = quick();
    r.sampling.mode = SampleMode::Periodic;
    r.sampling.detailedFraction = 0.0;
    EXPECT_ERROR(
        ExperimentSpec(m).workload(spec).params(r).run(), ConfigError,
        "detailed");
}

TEST(SampledRun, EstimatesCarryErrorBarsAndSchedule)
{
    const auto spec = findWorkload("450.soplex");
    const MachineConfig m = MachineConfig::scaled();
    ExperimentParams p;
    p.warmup = 5000;
    p.roi = 30000;
    p.sampleEvery = 3000;
    p.sampling.mode = SampleMode::Periodic;
    p.sampling.intervalLength = 1000;
    p.sampling.detailedFraction = 0.2;
    const RunResult r = ExperimentSpec(m)
                            .workload(spec)
                            .pinte(0.2)
                            .params(p)
                            .run();
    ASSERT_TRUE(r.sampled.enabled());
    EXPECT_EQ(r.sampled.intervals, 30u);
    EXPECT_EQ(r.sampled.detailedIntervals, 6u);
    EXPECT_EQ(r.sampled.detailedInstructions, 6000u);
    EXPECT_EQ(r.sampled.totalInstructions, 30000u);
    ASSERT_GE(r.sampled.stats.size(), 5u);
    for (const SampledStat &s : r.sampled.stats) {
        EXPECT_GE(s.ci95, 0.0) << s.name;
        EXPECT_GE(s.mean, 0.0) << s.name;
    }
    // The induced-theft estimate converges toward P_Induce.
    const SampledStat &induced = r.sampled.stats.back();
    EXPECT_EQ(induced.name, "induced_theft_rate");
    EXPECT_NEAR(induced.mean, 0.2, 0.1);
}

TEST(SampledRun, DetailedRunCarriesNoSampledSection)
{
    const RunResult r = ExperimentSpec(MachineConfig::scaled())
                            .workload(findWorkload("450.soplex"))
                            .params(quick())
                            .run();
    EXPECT_FALSE(r.sampled.enabled());
    EXPECT_TRUE(r.sampled.stats.empty());
}

namespace
{

/** Memory stub that completes every access a fixed time later. */
class FlatMemory : public MemoryLevel
{
  public:
    AccessResult
    access(const MemAccess &req) override
    {
        return {req.cycle + 40, false};
    }
    const char *levelName() const override { return "flat"; }
};

/** Core `config`'s state after a short run of 450.soplex. */
std::vector<std::uint8_t>
coreBytes(const CoreConfig &config)
{
    TraceGenerator gen(findWorkload("450.soplex"));
    FlatMemory mem;
    Core core(config, 0, &gen, &mem, &mem);
    core.runInstructions(500);
    SnapshotWriter w;
    core.saveState(w);
    return w.bytes();
}

std::uint64_t
le64(const std::vector<std::uint8_t> &b, std::size_t at)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= std::uint64_t(b[at + i]) << (8 * i);
    return v;
}

void
putLe64(std::vector<std::uint8_t> &b, std::size_t at, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/** Offset of a core's load ring (u64 count + entries) in its state:
 *  three counters, the ROB, the scoreboard, four more fields. */
std::size_t
loadRingAt(const std::vector<std::uint8_t> &core)
{
    return 24 + 8 + 8 * le64(core, 24) + 8 * numArchRegs + 32;
}

} // namespace

TEST(CheckpointGeometry, CoreRejectsLoadRingOfAnotherLength)
{
    CoreConfig wide;
    wide.maxOutstandingLoads = 16;
    const std::vector<std::uint8_t> bytes = coreBytes(wide);
    ASSERT_EQ(le64(bytes, loadRingAt(bytes)), 16u);

    CoreConfig narrow;
    narrow.maxOutstandingLoads = 4;
    TraceGenerator gen(findWorkload("450.soplex"));
    FlatMemory mem;
    Core core(narrow, 0, &gen, &mem, &mem);
    SnapshotReader r(bytes);
    EXPECT_ERROR(core.loadState(r), SimError, "elements");
}

TEST(CheckpointGeometry, CoreRejectsLoadRingHeadOutOfRange)
{
    CoreConfig config;
    std::vector<std::uint8_t> bytes = coreBytes(config);
    const std::size_t ring = loadRingAt(bytes);
    const std::uint64_t n = le64(bytes, ring);
    ASSERT_EQ(n, config.maxOutstandingLoads);
    const std::size_t head = ring + 8 + 8 * n;

    TraceGenerator gen(findWorkload("450.soplex"));
    FlatMemory mem;
    Core core(config, 0, &gen, &mem, &mem);
    {
        SnapshotReader r(bytes);
        core.loadState(r); // the untouched state loads
        EXPECT_TRUE(r.exhausted());
    }
    putLe64(bytes, head, n);
    SnapshotReader r(bytes);
    EXPECT_ERROR(core.loadState(r), SimError, "head");
}

TEST(CheckpointGeometry, CacheRejectsArraysOfAnotherGeometry)
{
    CacheConfig big;
    big.name = "L2";
    big.numSets = 64;
    big.assoc = 4;
    FlatMemory mem;
    Cache from(big, &mem);
    for (Addr a = 0; a < 64 * 64 * 8; a += 64) {
        MemAccess req;
        req.addr = a;
        from.access(req);
    }
    SnapshotWriter w;
    from.saveState(w);

    CacheConfig small = big;
    small.numSets = 32;
    Cache to(small, &mem);
    SnapshotReader r(w.bytes());
    EXPECT_ERROR(to.loadState(r), SimError, "elements");

    // Same geometry, but set 0's valid plane names way 5 of 4.
    std::vector<std::uint8_t> bytes = w.bytes();
    const std::size_t blocks = 64 * 4;
    const std::size_t valid = 8 + 8 * blocks + 8 + 4 * blocks;
    ASSERT_EQ(le64(bytes, valid), 64u);
    putLe64(bytes, valid + 8, le64(bytes, valid + 8) | (1u << 5));
    Cache same(big, &mem);
    SnapshotReader bad(bytes);
    EXPECT_ERROR(same.loadState(bad), SimError, "past the last");
}

TEST(CheckpointGeometry, PoliciesRejectStateOfAnotherGeometry)
{
    for (unsigned k = 0; k < numReplacementKinds; ++k) {
        const auto kind = static_cast<ReplacementKind>(k);
        SCOPED_TRACE(toString(kind));
        const auto from = makeReplacementPolicy(kind, 64, 4);
        for (unsigned s = 0; s < 64; ++s)
            from->onFill(s, s % 4);
        SnapshotWriter w;
        from->saveState(w);

        // Random keeps only its RNG, so any geometry takes its state.
        const auto to = makeReplacementPolicy(kind, 32, 4);
        SnapshotReader r(w.bytes());
        if (kind == ReplacementKind::Random)
            to->loadState(r);
        else
            EXPECT_ERROR(to->loadState(r), SimError, "elements");

        const auto same = makeReplacementPolicy(kind, 64, 4);
        SnapshotReader ok(w.bytes());
        same->loadState(ok);
        EXPECT_TRUE(ok.exhausted());
    }
}

TEST(CheckpointGeometry, PoliciesRejectValuesOutOfRange)
{
    // LRU: set 0's rank row (one word at 4 ways) holds rank 0 twice.
    {
        const auto p = makeReplacementPolicy(ReplacementKind::Lru, 2, 4);
        SnapshotWriter w;
        w.putVec64({0x00000100, 0x03020100});
        w.putVec64({0, 0});
        SnapshotReader r(w.bytes());
        EXPECT_ERROR(p->loadState(r), SimError, "permutation");
    }
    // nMRU: an MRU way of 4 in a 4-way set.
    {
        const auto p = makeReplacementPolicy(ReplacementKind::Nmru, 1, 4);
        SnapshotWriter w;
        saveRng(w, Rng(1));
        w.put64(1);
        w.put32(4);
        w.put64(1);
        w.put32(0);
        SnapshotReader r(w.bytes());
        EXPECT_ERROR(p->loadState(r), SimError, "out of range");
    }
    // SRRIP: an RRPV above its 2-bit maximum.
    {
        const auto p = makeReplacementPolicy(ReplacementKind::Rrip, 1, 4);
        SnapshotWriter w;
        w.putVec8({3, 3, 7, 3});
        SnapshotReader r(w.bytes());
        EXPECT_ERROR(p->loadState(r), SimError, "maximum");
    }
}
