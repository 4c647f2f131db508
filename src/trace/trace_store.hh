/**
 * @file
 * One generated trace, shared by every campaign cell that replays it.
 *
 * A TraceGenerator's stream depends on its WorkloadSpec alone: no run
 * seed, no P_Induce. So the 12 cells of a P sweep, its isolation
 * baseline and every other cell that runs the same workload in the
 * same address space read the very same records. A TraceStore
 * generates them once, as immutable chunks of chunkRecords records in
 * a lossless compact encoding, and any number of TraceReplay cursors
 * read them, on any threads. A cursor that reaches the frontier
 * extends the store by one chunk under its mutex; the store holds no
 * more than about byteBudget bytes, and the stores of one campaign
 * no more than their shared TraceBudget together.
 *
 * A TraceReplay is indistinguishable from a live TraceGenerator at
 * the same position, down to its checkpoint bytes: the store keeps
 * the generator's saved state at each chunk start, and a cursor
 * rebuilds a live generator from there (at most chunkRecords - 1
 * next() calls) to save its state. skip(), loadState() and reaching a
 * full store detach the cursor into such a live generator for good.
 * A cursor's rewind token (TraceSource::mark) is its place in the
 * store instead, so a TracePump over it builds no generator per block.
 */

#ifndef PINTE_TRACE_TRACE_STORE_HH
#define PINTE_TRACE_TRACE_STORE_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "trace/generator.hh"

namespace pinte
{

/**
 * Running context of the compact record encoding: the predicted next
 * IP and the last memory address, which the next record is coded
 * against. Every chunk starts from a zeroed state, so each decodes on
 * its own.
 */
struct RecordCodecState
{
    Addr nextIp = 0;
    Addr lastAddr = 0;
};

/**
 * Append `r` to `out` in the store's compact encoding. Any record
 * round-trips; a record outside the shape a generator produces (a
 * register id >= 64, more than two memory operands, ...) is stored
 * raw.
 */
void encodeRecord(std::vector<std::uint8_t> &out, RecordCodecState &st,
                  const TraceRecord &r);

/**
 * Decode the record at `p` written by encodeRecord() with the same
 * state, and advance `p` past it. The bytes are trusted: they are
 * produced and read by the same process.
 */
TraceRecord decodeRecord(const std::uint8_t *&p, RecordCodecState &st);

/**
 * A byte total that several stores draw on together: every store of
 * one runCampaign() call (sharedTraces). A store whose next chunk
 * would pass it stops growing for good, and its cursors continue on
 * live generators; a store gives its bytes back when it dies.
 */
class TraceBudget
{
  public:
    /**
     * The default total: eight full stores. A bench family keeps one
     * store per co-runner alive until the family ends, which without
     * a total bound held over 120 MB (bench_fig8 --full).
     */
    static constexpr std::size_t defaultBytes = std::size_t{32} << 20;

    explicit TraceBudget(std::size_t bytes = defaultBytes) : limit_(bytes)
    {
    }

    /** Take `n` bytes; false, taking nothing, if that would pass
     *  the total. */
    bool take(std::size_t n);

    /** Give back `n` bytes taken earlier. */
    void give(std::size_t n) { used_.fetch_sub(n); }

    /** Bytes taken and not given back. */
    std::size_t used() const { return used_.load(); }

  private:
    const std::size_t limit_;
    std::atomic<std::size_t> used_{0};
};

/** The shared, lazily materialized stream of one WorkloadSpec. */
class TraceStore
{
  public:
    /** Records per chunk. */
    static constexpr std::size_t chunkRecords = 4096;

    /**
     * Bytes of records and chunk-start states after which the store
     * stops growing; cursors past its end continue on a live
     * generator. Holds about 750K generated records: every
     * default-scale campaign stream, with room to spare.
     */
    static constexpr std::size_t byteBudget = std::size_t{4} << 20;

    /** @param spec exactly the spec a live TraceGenerator would get
     *  (address-space offsets applied); nothing is generated yet.
     *  @param budget the total this store draws its bytes from, if
     *  any, besides its own byteBudget */
    explicit TraceStore(WorkloadSpec spec,
                        std::shared_ptr<TraceBudget> budget = nullptr);
    ~TraceStore();

    TraceStore(const TraceStore &) = delete;
    TraceStore &operator=(const TraceStore &) = delete;

    /** The spec this store realizes, as given to the constructor. */
    const WorkloadSpec &spec() const { return spec_; }

    /** Chunks materialized so far. */
    std::size_t chunks() const;

    /** Bytes held: encoded records plus chunk-start states. */
    std::size_t bytes() const;

    /** Live generators built for this store's cursors so far: one per
     *  saveState(), skip(), loadState() and detach of an attached
     *  cursor. */
    std::size_t liveBuilds() const { return liveBuilds_.load(); }

  private:
    friend class TraceReplay;

    struct Chunk
    {
        std::vector<std::uint8_t> records; //!< chunkRecords, encoded
        std::vector<std::uint8_t> start;   //!< generator state before
    };

    /**
     * Chunk `i`, generating it if `i` is the frontier. nullptr when
     * the frontier is reached and the store is full. `i` is at most
     * chunks().
     */
    const Chunk *chunk(std::size_t i);

    /** A live generator positioned at record `pos`, which is at most
     *  chunks() * chunkRecords. */
    std::unique_ptr<TraceGenerator> liveAt(std::uint64_t pos);

    /** Build gen_ on first use; extendMu_ held. */
    TraceGenerator &frontier();

    const WorkloadSpec spec_;
    const std::shared_ptr<TraceBudget> budget_;

    /** Serializes generation, so readers of stored chunks never wait
     *  for it: guards gen_. */
    std::mutex extendMu_;
    std::unique_ptr<TraceGenerator> gen_; //!< at the frontier

    /** Guards chunks_, bytes_ and full_ (taken inside extendMu_). */
    mutable std::mutex mu_;
    std::vector<std::unique_ptr<const Chunk>> chunks_;
    std::size_t bytes_ = 0;
    bool full_ = false; //!< the next chunk would pass a bound

    std::atomic<std::size_t> liveBuilds_{0};
};

/** One store per core of a run; a null entry means that core runs a
 *  live generator (ExperimentSpec::runAll). */
using TraceStores = std::vector<std::shared_ptr<TraceStore>>;

/** A replay cursor over a TraceStore, starting at its first record. */
class TraceReplay final : public TraceSource
{
  public:
    explicit TraceReplay(std::shared_ptr<TraceStore> store);

    TraceRecord next() override;
    void reset() override;
    void skip(std::uint64_t n) override;
    void saveState(SnapshotWriter &w) const override;
    void loadState(SnapshotReader &r) override;

    /**
     * O(1) tokens that build no generator: an attached cursor's is
     * its chunk index, byte offset, records left and codec state; a
     * detached cursor's is its live generator's state.
     */
    void mark(SnapshotWriter &w) const override;
    void rewind(SnapshotReader &r) override;

    /** True once the cursor has left the store for a live generator. */
    bool detached() const { return live_ != nullptr; }

  private:
    /** Records consumed from the store. */
    std::uint64_t
    position() const
    {
        return nextChunk_ * TraceStore::chunkRecords - left_;
    }

    /** Move to the next chunk, or detach at a full store's end. */
    TraceRecord nextFromNewChunk();

    std::shared_ptr<TraceStore> store_;
    std::unique_ptr<TraceGenerator> live_;
    const std::uint8_t *base_ = nullptr; //!< the chunk's first byte
    const std::uint8_t *p_ = nullptr; //!< next encoded record
    std::size_t left_ = 0;            //!< records left in the chunk
    std::uint64_t nextChunk_ = 0;     //!< index of the chunk after it
    RecordCodecState codec_;
};

} // namespace pinte

#endif // PINTE_TRACE_TRACE_STORE_HH
