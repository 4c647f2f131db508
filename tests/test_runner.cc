/**
 * @file
 * Tests for the campaign runner (sim/runner.hh).
 *
 * The load-bearing property is determinism: a campaign executed with
 * jobs=4 must produce results bitwise-identical to the same campaign
 * executed with jobs=1, because every bench reduces its runs into the
 * paper's tables and figures and those must not depend on --jobs.
 */

#include <atomic>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "sim/experiment.hh"
#include "sim/runner.hh"
#include "trace/zoo.hh"

using namespace pinte;

namespace
{

/** Mini-campaign scale: big enough to exercise sampling and PInTE. */
ExperimentParams
miniParams()
{
    ExperimentParams p;
    p.warmup = 6000;
    p.roi = 6000;
    p.sampleEvery = 1000;
    return p;
}

/** Assert two run results are bitwise-equal, field by field.
 *  cpuSeconds is deliberately excluded: it is a timing measurement,
 *  not a simulation output, and varies run to run. */
void
expectEqualResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.contention, b.contention);

    const RunMetrics &m = a.metrics, &n = b.metrics;
    EXPECT_EQ(m.ipc, n.ipc);
    EXPECT_EQ(m.missRate, n.missRate);
    EXPECT_EQ(m.amat, n.amat);
    EXPECT_EQ(m.interferenceRate, n.interferenceRate);
    EXPECT_EQ(m.theftRate, n.theftRate);
    EXPECT_EQ(m.l2InterferenceRate, n.l2InterferenceRate);
    EXPECT_EQ(m.branchAccuracy, n.branchAccuracy);
    EXPECT_EQ(m.l1dMissRate, n.l1dMissRate);
    EXPECT_EQ(m.l2MissRate, n.l2MissRate);
    EXPECT_EQ(m.prefetchMissRate, n.prefetchMissRate);
    EXPECT_EQ(m.l2Mpki, n.l2Mpki);
    EXPECT_EQ(m.llcMpki, n.llcMpki);
    EXPECT_EQ(m.llcWbShare, n.llcWbShare);
    EXPECT_EQ(m.llcOccupancyFraction, n.llcOccupancyFraction);
    EXPECT_EQ(m.llcAccesses, n.llcAccesses);
    EXPECT_EQ(m.llcMisses, n.llcMisses);

    ASSERT_EQ(a.samples.size(), b.samples.size());
    for (std::size_t i = 0; i < a.samples.size(); ++i) {
        const Sample &s = a.samples[i], &t = b.samples[i];
        EXPECT_EQ(s.ipc, t.ipc);
        EXPECT_EQ(s.missRate, t.missRate);
        EXPECT_EQ(s.amat, t.amat);
        EXPECT_EQ(s.interferenceRate, t.interferenceRate);
        EXPECT_EQ(s.theftRate, t.theftRate);
        EXPECT_EQ(s.occupancyFraction, t.occupancyFraction);
        EXPECT_EQ(s.instructions, t.instructions);
    }

    EXPECT_EQ(a.reuse.counts(), b.reuse.counts());
    EXPECT_EQ(a.reuse.total(), b.reuse.total());

    EXPECT_EQ(a.pinte.accessesSeen, b.pinte.accessesSeen);
    EXPECT_EQ(a.pinte.triggers, b.pinte.triggers);
    EXPECT_EQ(a.pinte.promotions, b.pinte.promotions);
    EXPECT_EQ(a.pinte.invalidations, b.pinte.invalidations);
    EXPECT_EQ(a.pinte.requestedEvicts, b.pinte.requestedEvicts);
}

/** @name ExperimentSpec shorthands for the determinism campaign. */
/// @{
RunResult
isolation(const WorkloadSpec &spec, const MachineConfig &machine,
          const ExperimentParams &p)
{
    return ExperimentSpec(machine).workload(spec).params(p).run();
}

RunResult
pinteRun(const WorkloadSpec &spec, double p_induce,
         const MachineConfig &machine, const ExperimentParams &p)
{
    return ExperimentSpec(machine)
        .workload(spec)
        .pinte(p_induce)
        .params(p)
        .run();
}

std::pair<RunResult, RunResult>
pairRun(const WorkloadSpec &a, const WorkloadSpec &b,
        const MachineConfig &machine, const ExperimentParams &p)
{
    auto all = ExperimentSpec(machine)
                   .workload(a)
                   .secondTrace(b)
                   .params(p)
                   .runAll();
    return {std::move(all[0]), std::move(all[1])};
}
/// @}

} // namespace

TEST(Runner, PoolSizeDefaultsToAtLeastOne)
{
    EXPECT_GE(Runner(0).jobs(), 1u);
    EXPECT_EQ(Runner(1).jobs(), 1u);
    EXPECT_EQ(Runner(4).jobs(), 4u);
}

TEST(Runner, ForEachRunsEveryIndexExactlyOnce)
{
    const std::size_t n = 257; // not a multiple of the pool size
    std::vector<std::atomic<int>> hits(n);
    Runner(4).forEach(n, [&](std::size_t i) { hits[i]++; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(Runner, MapReturnsResultsInSubmissionOrder)
{
    const std::size_t n = 100;
    const auto out = Runner(4).map(n, [](std::size_t i) {
        // Unbalanced work so completion order differs from
        // submission order.
        volatile std::size_t sink = 0;
        for (std::size_t k = 0; k < (n - i) * 1000; ++k)
            sink = sink + k;
        return i * 31 + 7;
    });
    ASSERT_EQ(out.size(), n);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(out[i], i * 31 + 7);
}

TEST(Runner, TickIsMonotoneReachesNAndRunsOnCallingThread)
{
    const std::thread::id caller = std::this_thread::get_id();
    for (unsigned jobs : {1u, 4u}) {
        std::vector<std::size_t> seen;
        Runner(jobs).forEach(
            64, [](std::size_t) {},
            [&](std::size_t done) {
                EXPECT_EQ(std::this_thread::get_id(), caller);
                seen.push_back(done);
            });
        ASSERT_FALSE(seen.empty());
        for (std::size_t i = 1; i < seen.size(); ++i)
            EXPECT_LT(seen[i - 1], seen[i]);
        EXPECT_EQ(seen.back(), 64u);
    }
}

TEST(Runner, SingleFailureRethrowsOriginalAndAllJobsStillRun)
{
    for (unsigned jobs : {1u, 4u}) {
        std::atomic<int> ran{0};
        try {
            Runner(jobs).forEach(64, [&](std::size_t i) {
                if (i == 5)
                    throw std::runtime_error("boom 5");
                ran++;
            });
            FAIL() << "expected an exception (jobs=" << jobs << ")";
        } catch (const std::runtime_error &e) {
            // Exactly one failure: the original exception crosses the
            // batch boundary unchanged (type and message).
            EXPECT_STREQ(e.what(), "boom 5");
        }
        EXPECT_EQ(ran.load(), 63);
    }
}

TEST(Runner, MultipleFailuresAggregateAndAllJobsStillRun)
{
    for (unsigned jobs : {1u, 4u}) {
        std::atomic<int> ran{0};
        try {
            Runner(jobs).forEach(64, [&](std::size_t i) {
                if (i == 5)
                    throw std::runtime_error("boom 5");
                if (i == 40)
                    throw std::runtime_error("boom 40");
                ran++;
            });
            FAIL() << "expected an exception (jobs=" << jobs << ")";
        } catch (const MultiJobError &e) {
            // Deterministic regardless of which worker hit its
            // exception first: failures come back in index order.
            ASSERT_EQ(e.failures().size(), 2u);
            EXPECT_EQ(e.failures()[0].first, 5u);
            EXPECT_EQ(e.failures()[0].second, "boom 5");
            EXPECT_EQ(e.failures()[1].first, 40u);
            EXPECT_EQ(e.failures()[1].second, "boom 40");
            EXPECT_EQ(e.totalJobs(), 64u);
            EXPECT_NE(
                std::string(e.what()).find("2 of 64 jobs failed"),
                std::string::npos)
                << "message was: " << e.what();
        }
        EXPECT_EQ(ran.load(), 62);
    }
}

TEST(Runner, ZeroJobsIsANoOp)
{
    bool ticked = false;
    Runner(4).forEach(
        0, [](std::size_t) { FAIL() << "no jobs to run"; },
        [&](std::size_t) { ticked = true; });
    EXPECT_FALSE(ticked);
}

/**
 * The acceptance property: the same mini-campaign — all three
 * experiment families — produces bitwise-identical metrics, samples,
 * reuse histograms and PInTE counters at jobs=1 and jobs=4.
 */
TEST(RunnerDeterminism, MiniCampaignBitwiseEqualAcrossJobCounts)
{
    const MachineConfig machine = MachineConfig::scaled();
    const ExperimentParams params = miniParams();
    const std::vector<WorkloadSpec> zoo = {findWorkload("450.soplex"),
                                           findWorkload("429.mcf"),
                                           findWorkload("435.gromacs")};
    const double probs[] = {0.05, 0.2, 0.5};

    // Flat job bag: 3 isolation runs, then the 3x3 PInTE grid.
    const std::size_t nw = zoo.size(), np = std::size(probs);
    auto single = [&](const Runner &r) {
        return r.map(nw + nw * np, [&](std::size_t idx) {
            if (idx < nw)
                return isolation(zoo[idx], machine, params);
            const std::size_t w = (idx - nw) / np;
            const std::size_t p = (idx - nw) % np;
            return pinteRun(zoo[w], probs[p], machine, params);
        });
    };

    // 2nd-Trace family: every pair, both cores' results retained.
    MachineConfig two = machine;
    two.numCores = 2;
    auto pairs = [&](const Runner &r) {
        return r.map(3, [&](std::size_t idx) {
            const std::size_t i = idx == 2 ? 1 : 0;
            const std::size_t j = idx == 0 ? 1 : 2;
            return pairRun(zoo[i], zoo[j], two, params);
        });
    };

    const Runner serial(1), pooled(4);
    const auto s1 = single(serial), s4 = single(pooled);
    ASSERT_EQ(s1.size(), s4.size());
    for (std::size_t i = 0; i < s1.size(); ++i) {
        SCOPED_TRACE("single job " + std::to_string(i));
        expectEqualResult(s1[i], s4[i]);
    }

    const auto p1 = pairs(serial), p4 = pairs(pooled);
    ASSERT_EQ(p1.size(), p4.size());
    for (std::size_t i = 0; i < p1.size(); ++i) {
        SCOPED_TRACE("pair job " + std::to_string(i));
        expectEqualResult(p1[i].first, p4[i].first);
        expectEqualResult(p1[i].second, p4[i].second);
    }
}
