/**
 * @file
 * A trace source whose records are generated on a producer thread.
 *
 * A trace's stream depends on its spec alone, never on what the
 * simulation does with it, so it can be produced on another CPU while
 * the core consumes it: a live TraceGenerator, or a TraceReplay that
 * decodes a shared TraceStore. A TracePump runs an inner source on one
 * producer thread, at most ringBlocks blocks of blockRecords records
 * ahead of the consumer, and yields exactly the records the inner
 * source would have yielded on the calling thread.
 *
 * Threads. The producer starts at the first next(), never at
 * construction. It parks on std::atomic::wait when the ring is full
 * or when the consumer asks it to, allocates nothing of its own while
 * running (a block's token buffer grows only if the inner source's
 * tokens do, as a detaching TraceReplay's once), and is joined by the
 * destructor on every exit path. An exception it catches from the
 * inner source is rethrown by next() at the record where it occurred.
 *
 * Either thread fills a block. A consumer that finds the ring empty
 * while the producer is not filling one (not started yet, not yet
 * awake after its wake-up, or preempted between blocks) fills the
 * next block itself instead of waiting. Blocks are filled one at a
 * time, in order, under one mutex, so the stream is the same whoever
 * fills them; a producer that gets no CPU costs the consumer about
 * what the inline path does, not a scheduler's wake-up latency.
 *
 * Rewind rule. skip(), saveState(), loadState() and reset() act on
 * the consumer's position, which the inner source has run ahead of.
 * Each one parks the producer, restores the inner source to the
 * consumer's position (the rewind token the producer marked at the
 * start of the consumer's block, then the records of that block
 * already consumed, produced again), and applies the operation to
 * it; the producer resumes at the next next(). Records and checkpoint
 * bytes therefore come out as the inner source's own. A source whose
 * skip() is not n next() calls (TraceGenerator::skip only moves the
 * phase clock) needs this: dropping the records produced ahead would
 * change the stream.
 *
 * The inner source must be unbounded and support mark() and rewind()
 * (by default saveState() and loadState()).
 */

#ifndef PINTE_TRACE_TRACE_PUMP_HH
#define PINTE_TRACE_TRACE_PUMP_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "common/snapshot.hh"
#include "trace/generator.hh"

namespace pinte
{

/** A TraceSource decorator that produces its inner source's records
 *  on a producer thread; see the file comment. */
class TracePump final : public TraceSource
{
  public:
    /** Records per ring block. */
    static constexpr std::uint32_t blockRecords = 512;

    /** Blocks in the ring: records the producer may run ahead. */
    static constexpr std::uint32_t ringBlocks = 8;

    /**
     * Blocks the consumer releases between wake-ups of a producer
     * parked on a full ring. Waking it for every block would cost the
     * simulating thread a futex call per block.
     */
    static constexpr std::uint32_t wakeBlocks = ringBlocks / 2;

    static_assert(sizeof(TraceRecord) * blockRecords * ringBlocks <=
                      256 * 1024,
                  "the ring holds at most 256 KB of records");

    /** @param inner the stream to produce; nothing runs yet. */
    explicit TracePump(std::unique_ptr<TraceSource> inner);
    ~TracePump() override;

    TracePump(const TracePump &) = delete;
    TracePump &operator=(const TracePump &) = delete;

    /**
     * Producer threads each of `workers` simulating threads may start,
     * so that all of them together fit the process's affinity set of
     * C CPUs: (C - workers) / workers, rounded down, and 0 when
     * `workers` is 0 or at least C. A single run (1) may start C - 1.
     */
    static unsigned budget(unsigned workers);

    /** Producer threads alive in this process. */
    static unsigned producers();

    /**
     * Throw SimError, labelled `component`, unless producers() is 0.
     * A forked child would inherit a pump's ring and its inner
     * source's locks but not the thread that moves them, so every
     * fork site of a campaign backend calls this first.
     */
    static void requireNoProducers(const char *component);

    TraceRecord
    next() override
    {
        if (pos_ != end_) [[likely]]
            return cur_->records[pos_++];
        return nextBlock();
    }

    void reset() override;
    void skip(std::uint64_t n) override;
    void saveState(SnapshotWriter &w) const override;
    void loadState(SnapshotReader &r) override;

    /** CPU time the producer thread has used, in seconds; 0 before
     *  the first record. */
    double producerCpuSeconds();

  private:
    struct Block
    {
        TraceRecord records[blockRecords];
        SnapshotWriter start;      //!< inner's token before records[0]
        std::uint32_t count = 0;   //!< records filled
        std::exception_ptr error;  //!< what stopped it short, if any
    };

    /** Producer commands: the low bits of ctl_. */
    static constexpr std::uint32_t cmdRun = 0, cmdPark = 1, cmdExit = 2,
                                   cmdMask = 3;

    /** next() at the end of the consumer's block. */
    TraceRecord nextBlock();

    /** Start or wake the producer on an empty ring. */
    void resume();

    /** Hand the consumer's drained block back to the producer. */
    void releaseBlock();

    /** Wait for the next published block and make it the consumer's. */
    void takeBlock();

    /** Park the producer and rethrow the error of the consumer's
     *  block; the inner source stays where it threw. */
    [[noreturn]] void fail();

    /** Park the producer and move the inner source back to the
     *  consumer's position (the rewind rule). */
    void sync() const;

    /** Ask the producer to park and wait until it has. */
    void park() const;

    /** Publish command `cmd` to the producer and wake it. */
    void command(std::uint32_t cmd) const;

    /** The producer thread's loop. */
    void produce();

    /** Fill `b` from the inner source; false if it threw. */
    bool fill(Block &b) noexcept;

    /** With fill_ held: fill and publish the next block, unless the
     *  ring is full or a fill failed. True if it filled one. */
    bool fillNext() noexcept;

    std::unique_ptr<TraceSource> inner_;
    std::unique_ptr<Block[]> ring_; //!< allocated at the first start
    bool noThread_ = false;   //!< no thread could start: run inline

    // Consumer side, on a cache line the producer never reads.
    // saveState() is const but rewinds, so whatever the rewind
    // touches is mutable: the stream the pump yields is the same
    // before and after.
    alignas(64) mutable const Block *cur_ = nullptr; //!< its block
    mutable std::uint32_t pos_ = 0;      //!< records consumed from it
    mutable std::uint32_t end_ = 0;      //!< records it holds
    mutable std::uint32_t taken_ = 0;    //!< blocks taken since resume
    mutable bool running_ = false; //!< the ring is the producer's
    mutable std::uint32_t ctlSent_ = cmdRun; //!< last value of ctl_

    // Shared. Each has one writer, published_ one at a time under
    // fill_; the producer waits on ctl_ and fill_ only.
    /** Consumer -> producer: a sequence number (bits 2 and up) that
     *  moves on every write, plus the command. */
    alignas(64) mutable std::atomic<std::uint32_t> ctl_{cmdRun};
    /** Consumer -> producer: blocks released since resume. */
    std::atomic<std::uint32_t> released_{0};
    /** Filler -> consumer: blocks published since resume. On its
     *  own cache line, away from the consumer's cursor. */
    alignas(64) std::atomic<std::uint32_t> published_{0};
    /** Producer -> consumer: the ctl_ value it last parked at. */
    std::atomic<std::uint32_t> parked_{cmdRun};

    /** Held while either thread fills a block (fillNext()). */
    std::mutex fill_;
    /** A fill threw: fill nothing until the producer parks. Guarded
     *  by fill_. */
    bool failed_ = false;

    /** Declared after everything it uses. */
    std::thread producer_;
};

} // namespace pinte

#endif // PINTE_TRACE_TRACE_PUMP_HH
