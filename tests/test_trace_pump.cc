/**
 * @file
 * Tests for the trace pump (trace/trace_pump.hh). The unit tests drive
 * TracePump directly, so they start a producer thread even on a
 * one-CPU host: under any sequence of next(), skip(), saveState(),
 * loadState() and reset() a pump cannot be told apart from its bare
 * inner source, by records or by checkpoint bytes; a throwing source
 * throws at the same record; and the producer never outlives the
 * pump, even over a TraceReplay whose store grows, ends or is
 * extended by another thread. The integration tests check that a
 * single run, which pumps its streams when a CPU is spare, reports
 * what the same cell reports through a one-worker runCampaign(), and
 * that no backend forks while a producer runs.
 */

#include <gtest/gtest.h>

#include "expect_error.hh"

#include <sched.h>

#include <atomic>
#include <chrono>
#include <ctime>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/fault.hh"
#include "common/json.hh"
#include "common/rng.hh"
#include "common/snapshot.hh"
#include "sim/campaign.hh"
#include "sim/experiment.hh"
#include "sim/sink.hh"
#include "sim/watchdog.hh"
#include "trace/trace_pump.hh"
#include "trace/trace_store.hh"
#include "trace/zoo.hh"

using namespace pinte;

namespace
{

constexpr std::uint64_t block = TracePump::blockRecords;

/** Field-wise equality, with the record's index in the message. */
::testing::AssertionResult
sameRecord(const TraceRecord &a, const TraceRecord &b, std::uint64_t at)
{
    const bool eq =
        a.ip == b.ip && a.loadAddr[0] == b.loadAddr[0] &&
        a.loadAddr[1] == b.loadAddr[1] && a.storeAddr[0] == b.storeAddr[0] &&
        a.storeAddr[1] == b.storeAddr[1] &&
        a.branchTarget == b.branchTarget && a.srcReg[0] == b.srcReg[0] &&
        a.srcReg[1] == b.srcReg[1] && a.dstReg == b.dstReg &&
        a.numLoads == b.numLoads && a.numStores == b.numStores &&
        a.isBranch == b.isBranch && a.branchTaken == b.branchTaken &&
        a.execLatency == b.execLatency;
    if (eq)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure() << "records differ at " << at;
}

/** Advance both sources `n` records, requiring equal records. */
::testing::AssertionResult
sameStream(TraceSource &a, TraceSource &b, std::uint64_t n)
{
    for (std::uint64_t i = 0; i < n; ++i) {
        const auto r = sameRecord(a.next(), b.next(), i);
        if (!r)
            return r;
    }
    return ::testing::AssertionSuccess();
}

std::vector<std::uint8_t>
stateBytes(const TraceSource &s)
{
    SnapshotWriter w;
    s.saveState(w);
    return w.bytes();
}

std::unique_ptr<TraceGenerator>
generator(const char *name = "450.soplex")
{
    return std::make_unique<TraceGenerator>(findWorkload(name));
}

/** Threads of this process, as /proc/self/task lists them. */
std::size_t
threadCount()
{
    const std::filesystem::directory_iterator tasks("/proc/self/task");
    return static_cast<std::size_t>(
        std::distance(tasks, std::filesystem::directory_iterator()));
}

/** threadCount() once no exited thread is still listed. The kernel
 *  wakes a joiner before it drops the exited thread from
 *  /proc/self/task, so a count read right after a join(), this test's
 *  or an earlier one's, may still list it: read until two reads 2 ms
 *  apart agree, for at most a second. */
std::size_t
settledThreadCount()
{
    std::size_t n = threadCount();
    for (int i = 0; i < 500; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        const std::size_t m = threadCount();
        if (m == n)
            break;
        n = m;
    }
    return n;
}

/** Restrict the calling thread to its first `n` allowed CPUs for the
 *  scope; false (and no change) if it has fewer. */
class AffinityScope
{
  public:
    explicit AffinityScope(int n)
    {
        sched_getaffinity(0, sizeof saved_, &saved_);
        if (CPU_COUNT(&saved_) < n)
            return;
        cpu_set_t set;
        CPU_ZERO(&set);
        for (int c = 0, kept = 0; c < CPU_SETSIZE && kept < n; ++c)
            if (CPU_ISSET(c, &saved_)) {
                CPU_SET(c, &set);
                ++kept;
            }
        ok_ = sched_setaffinity(0, sizeof set, &set) == 0;
    }
    ~AffinityScope() { sched_setaffinity(0, sizeof saved_, &saved_); }

    bool ok() const { return ok_; }

  private:
    cpu_set_t saved_;
    bool ok_ = false;
};

/**
 * A source of numbered records that throws std::runtime_error when
 * it reaches record `failAt`, and then carries on after it. It can
 * checkpoint its position, as a pumped source must.
 */
class ThrowingSource final : public TraceSource
{
  public:
    explicit ThrowingSource(std::uint64_t failAt) : failAt_(failAt) {}

    TraceRecord
    next() override
    {
        if (pos_++ == failAt_)
            throw std::runtime_error("source failed at " +
                                     std::to_string(failAt_));
        TraceRecord r;
        r.ip = pos_ * 4;
        return r;
    }
    void reset() override { pos_ = 0; }
    void saveState(SnapshotWriter &w) const override { w.put64(pos_); }
    void loadState(SnapshotReader &r) override { pos_ = r.get64(); }

  private:
    std::uint64_t failAt_;
    std::uint64_t pos_ = 0;
};

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

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

std::string
tempPath(const std::string &tag)
{
    return ::testing::TempDir() + "pinte_pump_" + tag + ".bin";
}

ExperimentParams
quick()
{
    ExperimentParams p;
    p.warmup = 5000;
    p.roi = 30000;
    p.sampleEvery = 3000;
    return p;
}

/** Every core of `cell` run on its own (pumped when a CPU is spare),
 *  inline, and through a one-worker runCampaign, serialized core by
 *  core. */
void
expectPumpedEqualsCampaign(const ExperimentSpec &cell)
{
    const std::vector<RunResult> single = cell.runAll();
    const std::vector<RunResult> inlined = cell.runAll({}, {}, 0);
    ProcOptions proc;
    proc.workers = 1;
    const auto campaign =
        runCampaign({cell}, IsolationMode::Thread, proc).front();
    ASSERT_EQ(single.size(), inlined.size());
    ASSERT_EQ(single.size(), campaign.size());
    for (std::size_t c = 0; c < single.size(); ++c) {
        ASSERT_FALSE(single[c].failed()) << single[c].error.message;
        EXPECT_EQ(canonical(single[c]), canonical(inlined[c]))
            << "core " << c;
        EXPECT_EQ(canonical(single[c]), canonical(campaign[c]))
            << "core " << c;
    }
}

/**
 * Drive a pump and the unpumped twin of its inner source through the
 * same 400 random operations, requiring equal records and equal
 * saveState() bytes. Runs of next() end on, just before and just
 * after a block boundary, and at random points; every other operation
 * lands wherever the runs left the consumer — mid-block while the
 * producer is filling ahead, right after a park, or on a fresh pump
 * that has not started.
 */
void
expectTwinsUnderRandomOperations(TracePump &pump, TraceSource &bare,
                                 std::uint64_t seed)
{
    const std::uint64_t runs[] = {0,         1,         block - 1,
                                  block,     block + 1, 2 * block,
                                  3 * block, 8 * block + 7};
    std::vector<std::vector<std::uint8_t>> saved;
    Rng rng(seed);
    for (int op = 0; op < 400; ++op) {
        const std::uint64_t kind = rng.drawRange(10);
        if (kind < 5) {
            const std::uint64_t n =
                rng.drawBool(0.5) ? runs[rng.drawRange(std::size(runs))]
                                  : rng.drawRange(3 * block);
            ASSERT_TRUE(sameStream(pump, bare, n)) << "op " << op;
        } else if (kind == 5) {
            const std::uint64_t n = rng.drawRange(100000);
            pump.skip(n);
            bare.skip(n);
        } else if (kind == 6 || kind == 7) {
            saved.push_back(stateBytes(bare));
            ASSERT_EQ(stateBytes(pump), saved.back()) << "op " << op;
        } else if (kind == 8 && !saved.empty()) {
            const auto &bytes = saved[rng.drawRange(saved.size())];
            SnapshotReader a(bytes), b(bytes);
            pump.loadState(a);
            bare.loadState(b);
        } else if (kind == 9 && rng.drawBool(0.2)) {
            pump.reset();
            bare.reset();
        }
    }
    EXPECT_TRUE(sameStream(pump, bare, 4 * block));
    EXPECT_EQ(stateBytes(pump), stateBytes(bare));
}

} // namespace

TEST(TracePump, MatchesItsGeneratorUnderRandomOperations)
{
    for (const char *name : {"450.soplex", "403.gcc"}) {
        SCOPED_TRACE(name);
        TraceGenerator bare(findWorkload(name));
        TracePump pump(generator(name));
        expectTwinsUnderRandomOperations(pump, bare, 0x9a11);
        if (HasFatalFailure())
            return;
    }

    // Over a replay cursor the pump marks the cursor's place in the
    // store per block, and its rewinds must land where an unpumped
    // cursor is, whoever extends the store and wherever it ends.
    const WorkloadSpec spec = findWorkload("450.soplex");
    {
        SCOPED_TRACE("a store this cursor extends");
        auto store = std::make_shared<TraceStore>(spec);
        TraceReplay bare(std::make_shared<TraceStore>(spec));
        TracePump pump(std::make_unique<TraceReplay>(store));
        // Streaming builds no generator: the tokens are O(1).
        ASSERT_TRUE(sameStream(pump, bare, 20 * block + 3));
        EXPECT_EQ(store->liveBuilds(), 0u);
        expectTwinsUnderRandomOperations(pump, bare, 0x9a12);
        if (HasFatalFailure())
            return;
    }
    {
        SCOPED_TRACE("a store another thread extends concurrently");
        auto store = std::make_shared<TraceStore>(spec);
        std::atomic<bool> stop{false};
        std::thread rival([&] {
            TraceReplay cursor(store);
            for (int k = 0; k < 400000 && !stop.load(); ++k)
                cursor.next();
        });
        TraceReplay bare(std::make_shared<TraceStore>(spec));
        TracePump pump(std::make_unique<TraceReplay>(store));
        expectTwinsUnderRandomOperations(pump, bare, 0x9a13);
        stop = true;
        rival.join();
        if (HasFatalFailure())
            return;
    }
    // A store that ends: at its byteBudget, or cut short by a
    // TraceBudget its sibling stores exhausted.
    std::size_t chunkBytes = 0;
    {
        auto probe = std::make_shared<TraceStore>(spec);
        TraceReplay cursor(probe);
        cursor.next();
        chunkBytes = probe->bytes();
    }
    const std::pair<const char *, std::size_t> ends[] = {
        {"a store that reaches byteBudget", 0},
        {"a store cut short by a TraceBudget", 5 * chunkBytes / 2}};
    for (const auto &[what, total] : ends) {
        SCOPED_TRACE(what);
        const auto make = [&, total = total] {
            return std::make_shared<TraceStore>(
                spec, total ? std::make_shared<TraceBudget>(total)
                            : nullptr);
        };
        std::uint64_t stored = 0;
        {
            auto probe = make();
            TraceReplay cursor(probe);
            while (!cursor.detached())
                cursor.next();
            stored = probe->chunks() * TraceStore::chunkRecords;
        }
        ASSERT_GE(stored, 2 * TraceStore::chunkRecords);
        auto store = make();
        TraceReplay bare(make());
        auto inner = std::make_unique<TraceReplay>(store);
        const TraceReplay &cursor = *inner;
        TracePump pump(std::move(inner));
        // A checkpoint 200 records into a block moves the pump's blocks
        // off the chunk grid, so the store ends 200 records into one.
        ASSERT_TRUE(sameStream(pump, bare, stored - 2 * block - 200));
        ASSERT_EQ(stateBytes(pump), stateBytes(bare));
        ASSERT_TRUE(sameStream(pump, bare, 4 * block));
        ASSERT_EQ(stateBytes(pump), stateBytes(bare));
        // Read while the producer is parked by the checkpoint.
        EXPECT_TRUE(cursor.detached());
        expectTwinsUnderRandomOperations(pump, bare, 0x9a14);
        if (HasFatalFailure())
            return;
    }
}

TEST(TracePump, CheckpointMidBlockWhileTheProducerRuns)
{
    // saveState() right after the producer has started: the inner
    // generator is somewhere ahead, mid-block or parked on a full
    // ring, and the bytes must still be the consumer's.
    for (const std::uint64_t at : {std::uint64_t{1}, block - 1, block,
                                   block + 3, 20 * block + 5}) {
        TraceGenerator bare(findWorkload("450.soplex"));
        TracePump pump(generator());
        ASSERT_TRUE(sameStream(pump, bare, at));
        EXPECT_EQ(stateBytes(pump), stateBytes(bare)) << "at " << at;
        // And once more after letting it fill the ring.
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        EXPECT_TRUE(sameStream(pump, bare, 3));
        EXPECT_EQ(stateBytes(pump), stateBytes(bare)) << "at " << at;
        EXPECT_TRUE(sameStream(pump, bare, 2 * block)) << "at " << at;
    }
}

TEST(TracePump, SkipAfterConsumingRewindsTheGenerator)
{
    // TraceGenerator::skip moves the phase clock without drawing, so
    // dropping the records the producer made ahead would change
    // every record after the skip; the pump must rewind instead.
    TraceGenerator bare(findWorkload("403.gcc"));
    TracePump pump(generator("403.gcc"));
    for (int interval = 0; interval < 20; ++interval) {
        ASSERT_TRUE(sameStream(pump, bare, 1000 + 37 * interval));
        pump.skip(19000);
        bare.skip(19000);
    }
    EXPECT_TRUE(sameStream(pump, bare, 5000));
}

TEST(TracePump, ThrowsWhereItsSourceThrows)
{
    for (const std::uint64_t failAt :
         {std::uint64_t{0}, std::uint64_t{1}, block - 1, block,
          block + 1, 5 * block + 17}) {
        ThrowingSource bare(failAt);
        TracePump pump(std::make_unique<ThrowingSource>(failAt));
        ASSERT_TRUE(sameStream(pump, bare, failAt)) << failAt;
        EXPECT_ERROR(pump.next(), std::runtime_error,
                     "source failed at " + std::to_string(failAt));
        EXPECT_THROW(bare.next(), std::runtime_error);
        // Past the failure the pump carries on with its source.
        EXPECT_TRUE(sameStream(pump, bare, 2 * block + 3)) << failAt;
        EXPECT_EQ(stateBytes(pump), stateBytes(bare)) << failAt;
    }
}

TEST(TracePump, NothingStartsBeforeTheFirstRecord)
{
    const std::size_t before = settledThreadCount();
    {
        TracePump pump(generator());
        EXPECT_EQ(threadCount(), before);
        EXPECT_EQ(pump.producerCpuSeconds(), 0.0);
        pump.skip(1000);
        SnapshotWriter w;
        pump.saveState(w);
        EXPECT_EQ(threadCount(), before);
        pump.next();
        EXPECT_EQ(threadCount(), before + 1);
    }
    EXPECT_EQ(settledThreadCount(), before);
}

TEST(TracePump, DestroyingAFullRingReturns)
{
    const std::size_t before = settledThreadCount();
    {
        TracePump pump(generator());
        pump.next();
        // Far longer than filling the ring takes: the producer is
        // parked on a full ring when the destructor runs.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        EXPECT_GT(pump.producerCpuSeconds(), 0.0);
    }
    EXPECT_EQ(settledThreadCount(), before);
}

TEST(TracePump, TimeoutLeavesNoThreadBehind)
{
    const std::size_t before = settledThreadCount();
    {
        JobWatchdog::Scope watchdog(0.05);
        EXPECT_ERROR(
            {
                TracePump pump(generator());
                for (std::uint64_t i = 0;; ++i) {
                    pump.next();
                    // Progress stops after the first block.
                    JobWatchdog::heartbeat(std::min<std::uint64_t>(i, 600));
                }
            },
            TimeoutError, "no instruction progress");
    }
    EXPECT_EQ(settledThreadCount(), before);

    // The same through a run: the injected hang wedges the ROI after
    // a warmup that started the pump (when a CPU is spare for it).
    armFault("hang:1");
    {
        JobWatchdog::Scope watchdog(0.2);
        EXPECT_ERROR(ExperimentSpec(MachineConfig::scaled())
                         .workload(findWorkload("450.soplex"))
                         .pinte(0.2)
                         .params(quick())
                         .run(),
                     TimeoutError, "no instruction progress");
    }
    armFault("");
    EXPECT_EQ(settledThreadCount(), before);
}

TEST(TracePump, EngagesOnlyWithASpareCpu)
{
    // A single run pumps on the CPUs it leaves idle: on one CPU none.
    const auto pumpedDuringRun = [] {
        unsigned seen = 0;
        ExperimentSpec(MachineConfig::scaled())
            .workload(findWorkload("450.soplex"))
            .params(quick())
            .runAll([&](System &) { seen = TracePump::producers(); });
        return seen;
    };
    {
        AffinityScope one(1);
        ASSERT_TRUE(one.ok());
        EXPECT_EQ(TracePump::budget(1), 0u);
        EXPECT_EQ(pumpedDuringRun(), 0u);
    }
    AffinityScope two(2);
    if (!two.ok())
        GTEST_SKIP() << "needs two CPUs";
    EXPECT_EQ(TracePump::budget(1), 1u);
    EXPECT_EQ(pumpedDuringRun(), 1u);
    EXPECT_EQ(TracePump::producers(), 0u);
}

TEST(TracePump, BudgetSharesTheCpusTheWorkersLeaveIdle)
{
    {
        AffinityScope one(1);
        ASSERT_TRUE(one.ok());
        EXPECT_EQ(TracePump::budget(0), 0u);
        EXPECT_EQ(TracePump::budget(1), 0u);
    }
    AffinityScope four(4);
    if (!four.ok())
        GTEST_SKIP() << "needs four CPUs";
    // (4 - J) / J: a single run keeps three, two workers one each,
    // and from three workers up (more than half the CPUs) none.
    const unsigned expected[] = {0, 3, 1, 0, 0, 0, 0};
    for (unsigned j = 0; j < std::size(expected); ++j)
        EXPECT_EQ(TracePump::budget(j), expected[j]) << j << " workers";
}

TEST(TracePump, BackendsRefuseToForkWhileAProducerRuns)
{
    // A child forked beside a producer would inherit its ring and its
    // source's locks without the thread: both fork sites refuse.
    const std::vector<ExperimentSpec> cells = {
        ExperimentSpec(MachineConfig::scaled())
            .workload(findWorkload("416.gamess"))
            .params(quick())};
    ProcOptions proc;
    proc.workers = 1;
    BrokerOptions broker;
    broker.spool = ::testing::TempDir() + "pinte_pump_fork_spool";
    std::filesystem::remove_all(broker.spool);
    broker.workers = 1;
    {
        TracePump pump(generator());
        pump.next();
        ASSERT_EQ(TracePump::producers(), 1u);
        EXPECT_ERROR(runCampaign(cells, IsolationMode::Process, proc),
                     SimError, "fork refused");
        EXPECT_ERROR(runCampaign(cells, IsolationMode::Spool, proc,
                                 nullptr, broker),
                     SimError, "fork refused");
    }
    EXPECT_EQ(TracePump::producers(), 0u);
    std::filesystem::remove_all(broker.spool);
    const auto results = runCampaign(cells, IsolationMode::Process, proc);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0][0].failed()) << results[0][0].error.message;
    std::filesystem::remove_all(broker.spool);
}

TEST(TracePumpRun, CpuSecondsCountTheProducer)
{
    // cpu_seconds starts after set-up, so on the calling thread alone
    // it is less than the thread's own CPU time around the run; the
    // producer's share, about a quarter of a detailed run, lifts it
    // above.
    AffinityScope two(2);
    if (!two.ok())
        GTEST_SKIP() << "needs two CPUs";
    const auto threadCpu = [] {
        timespec ts{};
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
        return static_cast<double>(ts.tv_sec) +
               static_cast<double>(ts.tv_nsec) * 1e-9;
    };
    ExperimentParams p = quick();
    p.roi = 400000;
    const double t0 = threadCpu();
    const RunResult r = ExperimentSpec(MachineConfig::scaled())
                            .workload(findWorkload("450.soplex"))
                            .pinte(0.2)
                            .params(p)
                            .run();
    EXPECT_GT(r.cpuSeconds, threadCpu() - t0);
}

TEST(TracePumpRun, DetailedRunEqualsItsCampaignCell)
{
    expectPumpedEqualsCampaign(ExperimentSpec(MachineConfig::scaled())
                                   .workload(findWorkload("450.soplex"))
                                   .pinte(0.2)
                                   .params(quick()));
}

TEST(TracePumpRun, SampledRunEqualsItsCampaignCell)
{
    ExperimentParams p = quick();
    p.roi = 200000;
    p.sampling.mode = SampleMode::Periodic;
    p.sampling.intervalLength = 5000;
    p.sampling.detailedFraction = 0.1;
    expectPumpedEqualsCampaign(ExperimentSpec(MachineConfig::scaled())
                                   .workload(findWorkload("403.gcc"))
                                   .pinte(0.3)
                                   .params(p));
}

TEST(TracePumpRun, PairRunEqualsItsCampaignCell)
{
    expectPumpedEqualsCampaign(
        ExperimentSpec(MachineConfig::scaled(2))
            .workload(findWorkload("450.soplex"))
            .secondTrace(findWorkload("470.lbm"))
            .params(quick()));
}

TEST(TracePumpRun, CheckpointsMatchAndResumeEitherWay)
{
    // A pumped run and an inline one leave the same checkpoint file
    // (the last one, 24000 of 30000 ROI instructions), and each path
    // resumes the other's checkpoint to the straight result.
    const std::string pumped = tempPath("pumped");
    const std::string inlined = tempPath("inline");
    std::remove(pumped.c_str());
    std::remove(inlined.c_str());
    ExperimentParams p = quick();
    p.sampling.mode = SampleMode::Periodic;
    p.sampling.intervalLength = 2000;
    p.sampling.detailedFraction = 0.25;
    const auto cell = [&](const std::string &path) {
        ExperimentParams q = p;
        q.checkpointPath = path;
        q.checkpointEvery = 8000;
        return ExperimentSpec(MachineConfig::scaled())
            .workload(findWorkload("450.soplex"))
            .pinte(0.2)
            .params(q);
    };
    const auto inlineRun = [](const ExperimentSpec &c) {
        return c.runAll({}, {}, 0).front();
    };
    const RunResult straight = ExperimentSpec(MachineConfig::scaled())
                                   .workload(findWorkload("450.soplex"))
                                   .pinte(0.2)
                                   .params(p)
                                   .run();

    EXPECT_EQ(canonical(cell(pumped).run()), canonical(straight));
    EXPECT_EQ(canonical(inlineRun(cell(inlined))), canonical(straight));
    const std::string bytes = slurp(pumped);
    ASSERT_FALSE(bytes.empty());
    EXPECT_EQ(bytes, slurp(inlined));

    // Swap the files: each path resumes the other's checkpoint.
    std::filesystem::rename(pumped, pumped + ".swap");
    std::filesystem::rename(inlined, pumped);
    std::filesystem::rename(pumped + ".swap", inlined);
    EXPECT_EQ(canonical(cell(pumped).run()), canonical(straight));
    EXPECT_EQ(canonical(inlineRun(cell(inlined))), canonical(straight));
    std::remove(pumped.c_str());
    std::remove(inlined.c_str());
}
