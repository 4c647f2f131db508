/**
 * @file
 * Parameter block describing a synthetic workload.
 *
 * The paper's evaluation runs 188 SPEC 2006/2017 SimPoint traces. Those
 * traces are not redistributable, so this reproduction models each SPEC
 * benchmark as a parameterized synthetic workload whose memory footprint,
 * access-pattern mix, branch behavior and ILP are tuned to reproduce the
 * behavioral *class* the paper assigns it (core-bound, LLC-bound,
 * DRAM-bound, ...). See DESIGN.md section 2 for the substitution
 * rationale. The concrete zoo lives in zoo.hh.
 */

#ifndef PINTE_TRACE_WORKLOAD_HH
#define PINTE_TRACE_WORKLOAD_HH

#include <cstdint>
#include <string>

namespace pinte
{

/** Which SPEC suite a zoo entry mimics (drives Table II grouping). */
enum class Suite
{
    Spec2006,
    Spec2017,
    Synthetic, //!< not part of the SPEC zoo
};

/**
 * Behavioral class of a workload. These map one-to-one onto the error
 * taxonomy in section IV-E2 of the paper: core-bound workloads show MR
 * error under PInTE, LLC-bound workloads show IPC error, DRAM-bound
 * workloads show AMAT+IPC error and become Fig 8 disagreement cases.
 */
enum class WorkloadClass
{
    CoreBound,     //!< hot set fits private caches; LLC rarely touched
    CacheFriendly, //!< fits LLC comfortably; mild contention response
    LlcBound,      //!< working set ~ LLC size; strong theft sensitivity
    DramBound,     //!< misses LLC regardless; bandwidth/latency bound
    Streaming,     //!< sequential scans; little temporal reuse
    Mixed,         //!< phase-alternating blend
};

/** Printable name of a workload class. */
const char *toString(WorkloadClass c);

/**
 * Full description of a synthetic workload. Defaults give a moderate
 * cache-friendly integer workload; zoo entries override fields.
 */
struct WorkloadSpec
{
    /** Display name, e.g. "429.mcf". */
    std::string name = "synthetic";

    Suite suite = Suite::Synthetic;
    WorkloadClass klass = WorkloadClass::CacheFriendly;

    /** RNG seed; combined with the run seed for reproducibility. */
    std::uint64_t seed = 1;

    /** Total data footprint in cache lines. */
    std::uint64_t footprintLines = 256;

    /** Lines in the hot subset that soaks up hotFraction of accesses. */
    std::uint64_t hotLines = 32;

    /** Fraction of data accesses that hit the hot subset. */
    double hotFraction = 0.5;

    /**
     * Access-pattern mix over the cold portion of the footprint.
     * Fractions over {sequential stream, strided stream, pointer chase,
     * uniform random}; they are renormalized if they do not sum to 1.
     */
    double streamFraction = 0.4;
    double strideFraction = 0.2;
    double chaseFraction = 0.2;
    double randomFraction = 0.2;

    /** Stride in lines for the strided stream component. */
    std::uint64_t strideLines = 4;

    /** Probability an instruction carries a load. */
    double loadFraction = 0.25;

    /** Probability an instruction carries a store. */
    double storeFraction = 0.10;

    /** Probability an instruction is a conditional branch. */
    double branchFraction = 0.15;

    /**
     * Predictability of branches: probability a branch follows its
     * per-IP bias rather than flipping a fair coin. 1.0 = perfectly
     * biased loops, 0.5 = coin flips.
     */
    double branchBias = 0.95;

    /** Number of distinct static branch IPs. */
    std::uint32_t branchSites = 64;

    /**
     * Dependency chain tightness: probability an instruction sources the
     * register written by a recent producer (serializing) rather than a
     * far-away one (ILP-friendly).
     */
    double depChain = 0.3;

    /** Mean execution latency of non-memory instructions (cycles). */
    double meanExecLatency = 1.2;

    /** Fraction of long-latency (FP/div-like) instructions. */
    double longLatFraction = 0.05;

    /** Number of behavioral phases the workload cycles through. */
    std::uint32_t phases = 1;

    /** Instructions per phase before switching. */
    std::uint64_t phaseLength = 20000;

    /** Base byte address of the workload's data segment. */
    std::uint64_t dataBase = 0x100000000ull;

    /**
     * Base byte address of the code segment. Multi-programmed runs give
     * each trace a private address space (as ChampSim does per cpu), so
     * both bases get offset per core; see runPair().
     */
    std::uint64_t codeBase = 0x400000;

    /** Renormalize the pattern-mix fractions in place. */
    void normalizeMix();

    /** Field-wise equality: equal specs generate equal streams. */
    bool operator==(const WorkloadSpec &) const = default;
};

} // namespace pinte

#endif // PINTE_TRACE_WORKLOAD_HH
