/**
 * @file
 * Deterministic synthetic trace generation.
 *
 * A TraceGenerator turns a WorkloadSpec into an unbounded, reproducible
 * instruction stream. The same (spec, run seed) pair always yields the
 * same stream, which the paper's stability analysis (Fig 3) relies on:
 * only the PInTE engine's RNG varies between re-runs, never the
 * workload.
 */

#ifndef PINTE_TRACE_GENERATOR_HH
#define PINTE_TRACE_GENERATOR_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "common/snapshot.hh"
#include "trace/record.hh"
#include "trace/workload.hh"

namespace pinte
{

/** Abstract producer of an instruction stream. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Produce the next instruction. Streams are unbounded unless noted. */
    virtual TraceRecord next() = 0;

    /** Restart the stream from its beginning. */
    virtual void reset() = 0;

    /** True if the stream has a fixed end and it has been reached. */
    virtual bool done() const { return false; }

    /**
     * Fast-forward the stream past `n` records without materializing
     * them. The interval engine calls this between sampled intervals,
     * where the skipped instructions touch no simulated state at all;
     * sources override it when they can advance cheaper than n
     * next() calls. Must leave the source in a deterministic state.
     */
    virtual void
    skip(std::uint64_t n)
    {
        for (std::uint64_t i = 0; i < n; ++i)
            next();
    }

    /**
     * @name Checkpoint support
     * Serialize stream position so a restored source resumes at the
     * exact record it would have produced next. The defaults throw
     * SimError: a source that cannot checkpoint must fail loudly, not
     * silently restart its stream.
     */
    /// @{
    virtual void saveState(SnapshotWriter &w) const;
    virtual void loadState(SnapshotReader &r);
    /// @}

    /**
     * @name Rewind tokens
     * A token marks a stream position for this very source, in this
     * process, to return to: mark() writes the current position to
     * `w`, rewind() goes back to a position mark() wrote, after any
     * number of next() calls. A TracePump takes one per block, so
     * they must be cheap. The defaults are saveState() and
     * loadState(); a source whose checkpoint is costly overrides
     * them. A token is not a checkpoint: no file ever holds one.
     */
    /// @{
    virtual void mark(SnapshotWriter &w) const { saveState(w); }
    virtual void rewind(SnapshotReader &r) { loadState(r); }
    /// @}
};

/**
 * Synthetic trace source driven by a WorkloadSpec.
 *
 * The data-reference engine blends four pattern components (sequential,
 * strided, pointer-chase over a Sattolo cycle, uniform random) with a
 * hot-set overlay; the control engine emits loop, biased and random
 * branch sites; the dependency engine wires source registers to recent
 * producers with configurable tightness.
 */
class TraceGenerator : public TraceSource
{
  public:
    /**
     * @param spec workload description (pattern-mix is normalized)
     * @param run_seed perturbation mixed into the spec seed so distinct
     *        experiments can draw distinct streams when desired
     */
    explicit TraceGenerator(WorkloadSpec spec, std::uint64_t run_seed = 0);

    TraceRecord next() override;
    void reset() override;
    void saveState(SnapshotWriter &w) const override;
    void loadState(SnapshotReader &r) override;

    /**
     * O(1) fast-forward: the synthetic process is stationary within a
     * phase, so skipping means advancing the instruction clock —
     * phase schedules jump correctly — while every cursor and the RNG
     * stream stay put and resume the same process afterwards.
     */
    void
    skip(std::uint64_t n) override
    {
        generated_ += n;
        syncPhase();
    }

    /** The (normalized) spec this generator realizes. */
    const WorkloadSpec &spec() const { return spec_; }

    /** Instructions generated since construction/reset. */
    std::uint64_t generated() const { return generated_; }

  private:
    /** Pick the next data line according to the phase-adjusted mix. */
    std::uint64_t nextDataLine();

    /** Recompute phase_ and phaseLeft_ from generated_. */
    void syncPhase();

    /** Emit a branch record for the current block end. */
    void fillBranch(TraceRecord &r);

    WorkloadSpec spec_;
    std::uint64_t runSeed_;
    Rng rng_;

    std::uint64_t generated_ = 0;

    // The phase schedule as running counters, so next() divides by
    // nothing: phase_ is (generated_ / phaseLength) % phases and
    // phaseLeft_ the instructions until it next changes.
    std::uint32_t phase_ = 0;
    std::uint64_t phaseLeft_ = 0;

    // Pattern cursors. Each stays below footprintLines, so advancing
    // one wraps with a compare instead of a modulo (loadState
    // rejects a cursor that breaks this).
    std::uint64_t seqCursor_ = 0;
    std::uint64_t strideCursor_ = 0;
    std::uint64_t chaseCursor_ = 0;

    /** strideLines reduced modulo footprintLines. */
    std::uint64_t strideStep_ = 0;

    /** Sattolo single-cycle permutation for the pointer chase. */
    std::vector<std::uint32_t> chaseNext_;

    // Control flow.
    struct BranchSite
    {
        Addr ip;
        Addr target;
        enum class Kind { Loop, Biased, Random } kind;
        std::uint32_t period;   //!< for Loop sites
        std::uint32_t counter;  //!< loop trip counter
        bool biasTaken;         //!< for Biased sites
    };
    std::vector<BranchSite> sites_;
    std::uint32_t siteIdx_ = 0;
    Addr ip_;
    std::uint32_t blockPos_ = 0;
    std::uint32_t blockLen_ = 6;
    /** One past the last branch site's block: ip_ wraps back here. */
    Addr codeEnd_ = 0;

    // Dependency engine: ring of recently written registers.
    std::uint8_t recentRegs_[8];
    std::uint32_t recentHead_ = 0;
};

/** Source that replays a fixed in-memory vector of records, then stops. */
class VectorTraceSource : public TraceSource
{
  public:
    explicit VectorTraceSource(std::vector<TraceRecord> records);

    TraceRecord next() override;
    void reset() override { pos_ = 0; }
    bool done() const override { return pos_ >= records_.size(); }
    void saveState(SnapshotWriter &w) const override { w.put64(pos_); }
    void loadState(SnapshotReader &r) override
    { pos_ = static_cast<std::size_t>(r.get64()); }

    std::size_t size() const { return records_.size(); }

  private:
    std::vector<TraceRecord> records_;
    std::size_t pos_ = 0;
};

} // namespace pinte

#endif // PINTE_TRACE_GENERATOR_HH
