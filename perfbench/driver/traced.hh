/**
 * @file
 * The traced run: the machine System wires, wired again by hand from
 * public constructors with a timing shim at every layer boundary, and
 * driven through the same phase calls ExperimentSpec makes.
 *
 * Shims: a MemoryLevel in front of L1I, L1D, L2, the LLC and DRAM; a
 * TraceSource around the trace generator; a ReplacementHook around the
 * PInTE engine. Each opens a span on entry and closes it on return.
 * The core has no shim: its self time is what the layers leave over
 * ("core + glue"). Every phase call into the core (skip, functional,
 * detailed) is timed separately for the interval metrics.
 *
 * Clean evictions into an exclusive downstream cache are found by a
 * dynamic_cast on the next level, which a shim hides; the benchmark's
 * machines have no exclusive cache, and the digest check proves the
 * traced machine simulates bit for bit what System does.
 */

#ifndef PERFBENCH_TRACED_HH
#define PERFBENCH_TRACED_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "spans.hh"
#include "workloads.hh"

namespace perfbench
{

/** The shimmed layers, in report order. */
enum Layer : int
{
    TraceLayer,
    L1iLayer,
    L1dLayer,
    L2Layer,
    LlcLayer,
    PinteLayer,
    DramLayer,
    NumLayers,
};

/** Metric-name prefix of each layer ("trace", "cache.l1i", ...). */
const char *layerName(int layer);

/** Phase calls of the interval engine. */
enum Phase : int
{
    SkipPhase,
    FunctionalPhase,
    DetailedPhase,
    NumPhases,
};

/** What one traced run of a workload measured. */
struct TracedRun
{
    std::int64_t wallNs = 0; //!< warmup + ROI of every cell
    std::array<LayerTotals, NumLayers> layers{};
    std::uint64_t rootSpans = 0;

    /** Demand/writeback/prefetch calls a level served as a hit. */
    std::array<std::uint64_t, NumLayers> hits{};
    std::uint64_t dramRowHits = 0;
    std::uint64_t pinteTriggers = 0;
    std::uint64_t pinteInvalidations = 0;

    struct PhaseTotals
    {
        std::int64_t ns = 0;
        std::uint64_t instructions = 0;
        std::uint64_t spans = 0; //!< layer spans closed inside
    };
    std::array<PhaseTotals, NumPhases> phases{};

    std::uint64_t instructions = 0;     //!< core 0, warmup + ROI
    std::vector<std::uint64_t> digests; //!< one per cell
};

/** Run every cell of `w` through the shimmed machine. */
TracedRun runTraced(const Workload &w);

} // namespace perfbench

#endif // PERFBENCH_TRACED_HH
