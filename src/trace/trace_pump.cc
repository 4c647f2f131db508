#include "trace_pump.hh"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <ctime>
#include <string>
#include <system_error>

#include "common/error.hh"

namespace pinte
{

namespace
{

/** Producer threads alive: started and not yet joined. */
std::atomic<unsigned> liveProducers{0};

/** CPUs the calling thread may run on (1 if unknown). */
unsigned
affinityCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return 1;
    return std::max(1, CPU_COUNT(&set));
}

} // namespace

TracePump::TracePump(std::unique_ptr<TraceSource> inner)
    : inner_(std::move(inner))
{
}

TracePump::~TracePump()
{
    if (producer_.joinable()) {
        command(cmdExit);
        producer_.join();
        liveProducers.fetch_sub(1);
    }
}

unsigned
TracePump::budget(unsigned workers)
{
    const unsigned cpus = affinityCpus();
    return workers == 0 || workers >= cpus ? 0 : (cpus - workers) / workers;
}

unsigned
TracePump::producers()
{
    return liveProducers.load();
}

void
TracePump::requireNoProducers(const char *component)
{
    if (const unsigned n = producers())
        throw SimError("fork refused: " + std::to_string(n) +
                           " trace pump producer thread(s) alive",
                       {component, "", std::to_string(n)});
}

TraceRecord
TracePump::nextBlock()
{
    if (!running_ && !noThread_)
        resume();
    if (noThread_)
        return inner_->next();
    if (cur_) {
        if (cur_->error)
            fail();
        releaseBlock();
    }
    takeBlock();
    if (end_ == 0)
        fail();
    return cur_->records[pos_++];
}

void
TracePump::resume()
{
    if (!ring_) {
        ring_ = std::make_unique<Block[]>(ringBlocks);
        SnapshotWriter probe;
        inner_->mark(probe);
        for (std::uint32_t b = 0; b < ringBlocks; ++b)
            ring_[b].start.reserve(probe.bytes().size());
    }
    taken_ = 0;
    released_.store(0, std::memory_order_relaxed);
    if (producer_.joinable()) {
        command(cmdRun);
    } else {
        // Counted before it exists, so that no fork can slip in
        // between its start and the count.
        liveProducers.fetch_add(1);
        try {
            producer_ = std::thread(&TracePump::produce, this);
        } catch (const std::system_error &) {
            // No thread to be had: the stream is the same inline.
            liveProducers.fetch_sub(1);
            noThread_ = true;
            return;
        }
    }
    running_ = true;
}

void
TracePump::releaseBlock()
{
    released_.store(taken_, std::memory_order_release);
    if (taken_ % wakeBlocks == 0)
        command(cmdRun);
}

void
TracePump::takeBlock()
{
    std::uint32_t ready = published_.load(std::memory_order_acquire);
    // An empty ring and a free mutex: the producer is not filling, and
    // waiting for it would cost its wake-up latency. Fill it here.
    if (ready == taken_ && fill_.try_lock()) {
        fillNext();
        fill_.unlock();
        ready = published_.load(std::memory_order_acquire);
    }
    while (ready == taken_) {
        published_.wait(ready, std::memory_order_acquire);
        ready = published_.load(std::memory_order_acquire);
    }
    cur_ = &ring_[taken_ % ringBlocks];
    ++taken_;
    pos_ = 0;
    end_ = cur_->count;
}

void
TracePump::fail()
{
    const std::exception_ptr error = cur_->error;
    park();
    cur_ = nullptr;
    pos_ = end_ = 0;
    std::rethrow_exception(error);
}

void
TracePump::sync() const
{
    if (!running_)
        return;
    park();
    SnapshotReader r(cur_->start.bytes());
    inner_->rewind(r);
    for (std::uint32_t k = 0; k < pos_; ++k)
        inner_->next();
    cur_ = nullptr;
    pos_ = end_ = 0;
}

void
TracePump::park() const
{
    command(cmdPark);
    std::uint32_t at = parked_.load(std::memory_order_acquire);
    while (at != ctlSent_) {
        parked_.wait(at, std::memory_order_acquire);
        at = parked_.load(std::memory_order_acquire);
    }
    running_ = false;
}

void
TracePump::command(std::uint32_t cmd) const
{
    ctlSent_ = ((ctlSent_ & ~cmdMask) + cmdMask + 1) | cmd;
    ctl_.store(ctlSent_, std::memory_order_release);
    ctl_.notify_one();
}

void
TracePump::produce()
{
    std::uint32_t c = ctl_.load(std::memory_order_acquire);
    for (;;) {
        switch (c & cmdMask) {
          case cmdExit:
            return;
          case cmdPark:
            if (parked_.load(std::memory_order_relaxed) != c) {
                {
                    const std::lock_guard<std::mutex> lock(fill_);
                    failed_ = false;
                    published_.store(0, std::memory_order_relaxed);
                }
                parked_.store(c, std::memory_order_release);
                parked_.notify_one();
            }
            break;
          default: {
            bool filled;
            {
                const std::lock_guard<std::mutex> lock(fill_);
                filled = fillNext();
            }
            if (filled) {
                published_.notify_one();
                c = ctl_.load(std::memory_order_acquire);
                continue;
            }
          }
        }
        ctl_.wait(c, std::memory_order_acquire);
        c = ctl_.load(std::memory_order_acquire);
    }
}

bool
TracePump::fillNext() noexcept
{
    const std::uint32_t made = published_.load(std::memory_order_relaxed);
    if (failed_ ||
        made - released_.load(std::memory_order_acquire) >= ringBlocks)
        return false;
    failed_ = !fill(ring_[made % ringBlocks]);
    published_.store(made + 1, std::memory_order_release);
    return true;
}

bool
TracePump::fill(Block &b) noexcept
{
    b.error = nullptr;
    // A local: reloading inner_ after every call would read the
    // consumer's cache line.
    TraceSource &inner = *inner_;
    std::uint32_t k = 0;
    try {
        b.start.clear();
        inner.mark(b.start);
        for (; k < blockRecords; ++k)
            b.records[k] = inner.next();
    } catch (...) {
        b.error = std::current_exception();
    }
    b.count = k;
    return !b.error;
}

void
TracePump::reset()
{
    sync();
    inner_->reset();
}

void
TracePump::skip(std::uint64_t n)
{
    sync();
    inner_->skip(n);
}

void
TracePump::saveState(SnapshotWriter &w) const
{
    sync();
    inner_->saveState(w);
}

void
TracePump::loadState(SnapshotReader &r)
{
    sync();
    inner_->loadState(r);
}

double
TracePump::producerCpuSeconds()
{
    clockid_t clock;
    timespec ts{};
    if (!producer_.joinable() ||
        pthread_getcpuclockid(producer_.native_handle(), &clock) != 0 ||
        clock_gettime(clock, &ts) != 0)
        return 0.0;
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

} // namespace pinte
