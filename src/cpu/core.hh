/**
 * @file
 * ROB-based out-of-order timing core.
 *
 * The core consumes TraceRecords and models the timing effects that
 * matter for contention analysis: data-dependent issue, multiple
 * outstanding loads (memory-level parallelism), frontend stalls on
 * I-cache misses, and branch-misprediction flushes. Register values are
 * not computed — the trace already fixed control flow — only ready
 * times flow through the dependency graph, ChampSim-style.
 */

#ifndef PINTE_CPU_CORE_HH
#define PINTE_CPU_CORE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>
#include <memory>

#include "branch/predictor.hh"
#include "cache/memory_level.hh"
#include "common/histogram.hh"
#include "common/types.hh"
#include "trace/generator.hh"
#include "trace/record.hh"

namespace pinte
{

class StatRegistry;

/**
 * The ROB's completion cycles, oldest first, in a power-of-two ring of
 * at least its capacity: size() is a field and an index is a mask.
 * The caller never pushes past the capacity.
 */
class RobRing
{
  public:
    explicit RobRing(std::size_t capacity)
        : slots_(std::bit_ceil(std::max<std::size_t>(1, capacity))),
          mask_(slots_.size() - 1)
    {
    }

    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }

    /** Entry `k`, oldest first. */
    Cycle operator[](std::size_t k) const
    { return slots_[(head_ + k) & mask_]; }

    Cycle front() const { return slots_[head_]; }

    void
    pop_front()
    {
        head_ = (head_ + 1) & mask_;
        --count_;
    }

    void
    push_back(Cycle c)
    {
        slots_[(head_ + count_) & mask_] = c;
        ++count_;
    }

    void clear() { head_ = count_ = 0; }

  private:
    std::vector<Cycle> slots_;
    std::size_t mask_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

/** Static core parameters (Skylake-flavored defaults). */
struct CoreConfig
{
    unsigned robSize = 128;
    unsigned fetchWidth = 4;
    unsigned retireWidth = 4;
    /**
     * L1D MSHR-style bound on memory-level parallelism: a load cannot
     * issue before the load this many positions earlier has completed.
     */
    unsigned maxOutstandingLoads = 12;
    Cycle mispredictPenalty = 12;   //!< extra cycles after resolution
    BranchPredictorKind predictor = BranchPredictorKind::HashedPerceptron;
    unsigned predictorSizeLog2 = 12;
};

/** Counters the core keeps between clearStats() calls. */
struct CoreStats
{
    InstCount instructions = 0;
    Cycle cycles = 0;
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;

    std::uint64_t loads = 0;
    std::uint64_t totalLoadLatency = 0; //!< cycles, issue to data-ready

    /**
     * Outstanding loads (MLP) observed at each load issue, log2
     * buckets. Bucket b counts issues that found [2^(b-1), 2^b)
     * earlier loads still in flight; bucket 0 counts issues into an
     * idle memory system.
     */
    Log2Histogram mshrOccupancy;

    /**
     * ROB occupancy sampled once per dispatched instruction, log2
     * buckets. Skewed toward busy cycles by construction (idle cycles
     * dispatch nothing), which is the population IPC analysis cares
     * about.
     */
    Log2Histogram robOccupancy;

    /** Instructions per cycle. */
    double
    ipc() const
    {
        return cycles ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
    }

    /**
     * Average memory access time observed by demand loads, in cycles
     * (section III-D). Bounded below by the L1 hit latency.
     */
    double
    amat() const
    {
        return loads ? static_cast<double>(totalLoadLatency) /
                           static_cast<double>(loads)
                     : 0.0;
    }

    /** Branch prediction accuracy in [0, 1]. */
    double
    branchAccuracy() const
    {
        return branches ? 1.0 - static_cast<double>(mispredicts) /
                                    static_cast<double>(branches)
                        : 1.0;
    }
};

/** One simulated core. */
class Core
{
  public:
    /**
     * @param config static parameters
     * @param id this core's id (stamped on memory requests)
     * @param source instruction stream (not owned)
     * @param l1i instruction-side L1 (not owned; may be null)
     * @param l1d data-side L1 (not owned; may be null)
     */
    Core(const CoreConfig &config, CoreId id, TraceSource *source,
         MemoryLevel *l1i, MemoryLevel *l1d);

    /** Advance the local clock by up to `quantum` cycles. */
    void runCycles(Cycle quantum);

    /** Run until `n` more instructions retire. */
    void runInstructions(InstCount n);

    /**
     * Functional warming: consume and retire `n` records without
     * modeling pipeline timing. Caches (including replacement and
     * prefetcher state), the branch predictor and the PInTE engines
     * all observe the stream exactly as in detailed mode — only ROB
     * occupancy, dependency stalls and load-latency accumulation are
     * skipped, with the clock advancing one cycle per instruction.
     * Any in-flight ROB entries are drained first so the
     * record-conservation invariant holds across mode switches.
     */
    void runInstructionsFunctional(InstCount n);

    /**
     * Pure fast-forward: advance the trace past `n` records without
     * simulating them — no cache, predictor or PInTE activity, just
     * the stream position, retirement counters and a nominal one-IPC
     * clock. The interval engine uses this between sampled intervals
     * and re-warms state with runInstructionsFunctional() just before
     * each detailed interval. Drains the ROB first so the
     * record-conservation invariant holds across mode switches.
     */
    void skipInstructions(InstCount n);

    /** Local clock. */
    Cycle cycle() const { return cycle_; }

    /** Instructions retired since construction (ignores clearStats). */
    InstCount retired() const { return retiredTotal_; }

    /** Trace records consumed since construction (ignores clearStats). */
    InstCount recordsConsumed() const { return recordsConsumed_; }

    /**
     * Paranoid-mode audit: with no squash path in the model, every
     * consumed trace record is either retired or still in the ROB
     * (instructions retired = trace records consumed, the end-of-run
     * conservation identity), the ROB respects its capacity, and
     * retirement bookkeeping is monotonic. Throws InvariantError.
     */
    void audit() const;

    /** Windowed statistics. */
    const CoreStats &stats() const { return stats_; }

    /** Reset windowed statistics (end of warmup / sample boundary). */
    void clearStats();

    /**
     * Register pipeline counters, derived rates (IPC, AMAT, branch
     * accuracy) and the branch predictor's counters under `prefix`
     * (e.g. "core0").
     */
    void registerStats(StatRegistry &reg,
                       const std::string &prefix) const;

    /** Branch predictor (for accuracy introspection in benches). */
    const BranchPredictor &predictor() const { return *predictor_; }

    CoreId id() const { return id_; }

    /**
     * @name Checkpoint support
     * Serializes the pipeline state (clock, ROB, register ready times,
     * frontend/retire bookkeeping, load ring), the windowed stats, the
     * branch predictor, and the trace source's stream position.
     */
    /// @{
    void saveState(SnapshotWriter &w) const;
    void loadState(SnapshotReader &r);
    /// @}

  private:
    /** Retire completed ROB heads, honoring retire bandwidth. */
    void retire();

    /** Fetch/dispatch up to fetchWidth instructions. */
    void fetch();

    /** Dispatch a single record into the ROB. */
    void dispatch(const TraceRecord &rec);

    CoreConfig config_;
    CoreId id_;
    TraceSource *source_;
    MemoryLevel *l1i_;
    MemoryLevel *l1d_;
    std::unique_ptr<BranchPredictor> predictor_;

    Cycle cycle_ = 0;
    InstCount retiredTotal_ = 0;
    InstCount recordsConsumed_ = 0;

    /** In-flight instruction: only its completion time matters. */
    RobRing rob_;

    /** Ready cycle of each architectural register. */
    Cycle regReady_[numArchRegs] = {};

    /** Frontend stalled until this cycle (mispredict or L1I miss). */
    Cycle fetchStallUntil_ = 0;

    /** Retire-bandwidth accounting across skipped cycles. */
    Cycle lastRetireCycle_ = 0;
    std::uint64_t retireAllowance_ = 0;

    /** Last I-fetch line, to access the L1I once per line. */
    Addr lastFetchLine_ = ~Addr(0);

    /** Completion cycles of recent loads (MLP cap ring). */
    std::vector<Cycle> loadRing_;
    std::size_t loadRingHead_ = 0;

    CoreStats stats_;
};

} // namespace pinte

#endif // PINTE_CPU_CORE_HH
