/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot paths.
 *
 * These guard the throughput that makes the PInTE methodology pay off:
 * the whole Table I argument rests on single-core simulation being
 * cheap, so regressions in the access path or the PInTE hook matter.
 */

#include <benchmark/benchmark.h>

#include "cache/cache.hh"
#include "core/pinte.hh"
#include "cpu/core.hh"
#include "dram/dram.hh"
#include "sim/experiment.hh"
#include "trace/generator.hh"
#include "trace/zoo.hh"

using namespace pinte;

namespace
{

void
BM_TraceGeneratorNext(benchmark::State &state)
{
    TraceGenerator gen(findWorkload("450.soplex"));
    for (auto _ : state)
        benchmark::DoNotOptimize(gen.next());
}
BENCHMARK(BM_TraceGeneratorNext);

void
BM_CacheHit(benchmark::State &state)
{
    CacheConfig cfg;
    cfg.numSets = 64;
    cfg.assoc = 16;
    Cache c(cfg, nullptr);
    MemAccess req;
    req.addr = 0x1000;
    req.type = AccessType::Load;
    c.access(req);
    Cycle t = 0;
    for (auto _ : state) {
        req.cycle = ++t;
        benchmark::DoNotOptimize(c.access(req));
    }
}
BENCHMARK(BM_CacheHit);

void
BM_CacheMissStream(benchmark::State &state)
{
    CacheConfig cfg;
    cfg.numSets = 64;
    cfg.assoc = 16;
    Cache c(cfg, nullptr);
    MemAccess req;
    req.type = AccessType::Load;
    Addr a = 0;
    Cycle t = 0;
    for (auto _ : state) {
        req.addr = (a += blockSize);
        req.cycle = ++t;
        benchmark::DoNotOptimize(c.access(req));
    }
}
BENCHMARK(BM_CacheMissStream);

void
BM_PInteHookTriggered(benchmark::State &state)
{
    CacheConfig cfg;
    cfg.numSets = 64;
    cfg.assoc = 16;
    Cache c(cfg, nullptr);
    PInte engine({1.0, 1}); // worst case: every access triggers
    c.setReplacementHook(&engine);
    MemAccess req;
    req.type = AccessType::Load;
    Addr a = 0;
    Cycle t = 0;
    for (auto _ : state) {
        req.addr = (a += blockSize);
        req.cycle = ++t;
        benchmark::DoNotOptimize(c.access(req));
    }
}
BENCHMARK(BM_PInteHookTriggered);

void
BM_DramAccess(benchmark::State &state)
{
    Dram d(DramConfig{});
    MemAccess req;
    req.type = AccessType::Load;
    Addr a = 0;
    Cycle t = 0;
    for (auto _ : state) {
        req.addr = (a += blockSize);
        req.cycle = (t += 10);
        benchmark::DoNotOptimize(d.access(req));
    }
}
BENCHMARK(BM_DramAccess);

void
BM_ReplacementRank(benchmark::State &state)
{
    const auto kind = static_cast<ReplacementKind>(state.range(0));
    auto p = makeReplacementPolicy(kind, 64, 16, 1);
    unsigned way = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(p->rank(way % 64, way % 16));
        ++way;
    }
}
BENCHMARK(BM_ReplacementRank)->DenseRange(0, 4);

void
BM_BranchPredict(benchmark::State &state)
{
    const auto kind = static_cast<BranchPredictorKind>(state.range(0));
    auto p = makeBranchPredictor(kind);
    Addr ip = 0x400000;
    bool taken = false;
    for (auto _ : state) {
        const bool pred = p->predict(ip);
        benchmark::DoNotOptimize(pred);
        p->update(ip, taken);
        taken = !taken;
        ip += 16;
    }
}
BENCHMARK(BM_BranchPredict)->DenseRange(0, 3);

void
BM_CoreSimulation(benchmark::State &state)
{
    // End-to-end simulator throughput in instructions/second.
    TraceGenerator gen(findWorkload("435.gromacs"));
    MachineConfig m = MachineConfig::scaled();
    System sys(m, {&gen});
    for (auto _ : state)
        sys.runUntilCore0(1000);
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_CoreSimulation);

void
BM_FullPInteExperiment(benchmark::State &state)
{
    // One complete PInTE experiment — the unit Table I counts.
    ExperimentParams params;
    params.warmup = 2000;
    params.roi = 6000;
    params.sampleEvery = 3000;
    const auto spec = findWorkload("435.gromacs");
    const MachineConfig m = MachineConfig::scaled();
    for (auto _ : state)
        benchmark::DoNotOptimize(ExperimentSpec(m)
                                     .workload(spec)
                                     .pinte(0.1)
                                     .params(params)
                                     .run());
}
BENCHMARK(BM_FullPInteExperiment);

} // namespace

BENCHMARK_MAIN();
