/**
 * @file
 * The benchmark's workloads, built only from the simulator's public
 * API, and the digest that pins their simulated outcome.
 *
 * Every workload is a list of cells (one ExperimentSpec each) on the
 * scaled machine with an LLC-only PInTE engine:
 *  - detailed: one fully detailed 450.soplex run at P_Induce = 0.2;
 *  - sampled:  the same run as a periodic interval schedule at a 5%
 *              detailed fraction over a 10x longer ROI;
 *  - sweep:    the standard 12-point P_Induce sweep of 416.gamess at
 *              pintesim's default scale.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace perfbench
{

/** Seeds fold onto this many input variants (see README.md). */
constexpr std::uint64_t seedVariants = 16;

/** One simulation of a workload. */
struct Cell
{
    pinte::WorkloadSpec spec;
    double pInduce = 0.0;
    pinte::ExperimentParams params;

    /** The experiment the untraced path runs. */
    pinte::ExperimentSpec experiment() const;
};

/** A named workload resolved for one seed. */
struct Workload
{
    std::string name;
    std::vector<Cell> cells;

    /** Core-0 instructions the cells cover (warmup + ROI). */
    std::uint64_t instructions() const;
};

/**
 * Resolve `name` ("detailed", "sampled" or "sweep") for `seed`. The
 * seed picks variant seed % seedVariants, which replaces the PInTE run
 * seed. Zoo seeds stay fixed, so every variant costs the host alike.
 * `quick` shrinks every size to a smoke test. Throws
 * std::invalid_argument on an unknown name.
 */
Workload resolveWorkload(const std::string &name, std::uint64_t seed,
                         bool quick);

/** The simulated outcome of one cell, as both run paths report it. */
struct Outcome
{
    double ipc = 0.0;
    double amat = 0.0;
    double llcMissRate = 0.0;
    double llcMpki = 0.0;
    std::uint64_t llcAccesses = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t pinteAccesses = 0;
    std::uint64_t pinteTriggers = 0;
    std::uint64_t pinteInvalidations = 0;
    /** Interval estimates of a sampled run, in report order. */
    std::vector<pinte::SampledStat> sampled;
    std::uint64_t detailedIntervals = 0;
};

/** The outcome an ExperimentSpec run reported. */
Outcome outcomeOf(const pinte::RunResult &r);

/**
 * FNV-1a over the outcome's counters and the IEEE bit patterns of its
 * ratios. IPC and MPKI together with the miss count pin instructions
 * and cycles, so equal digests mean bit-identical simulations.
 */
std::uint64_t digest(const Outcome &o);

/** Fold per-cell digests, in cell order, into one. */
std::uint64_t digestCells(const std::vector<std::uint64_t> &cells);

/** Lower-case 16-digit hex of a u64. */
std::string hex64(std::uint64_t v);

/**
 * Build everything a cell needs before its first simulated
 * instruction, the way ExperimentSpec::run does (trace generator and
 * wired machine), and throw it away. The benchmark's set-up time.
 */
void buildCell(const Cell &cell);

/** The machine an ExperimentSpec run of `cell` wires. */
pinte::MachineConfig runMachine(const Cell &cell);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
