/**
 * @file
 * Campaign execution engine: a fixed-size worker pool for independent
 * simulation jobs.
 *
 * Every experiment family in the evaluation (isolation, PInTE sweep,
 * 2nd-Trace pairs) is a bag of fully independent simulations — each
 * job builds its own Machine, owns its RNG stream, and touches no
 * shared mutable state — so a campaign parallelizes trivially. The
 * runner executes a job list across N threads and hands results back
 * in submission order, which keeps every downstream table/figure
 * reduction byte-identical to a serial run.
 *
 * Cost accounting stays meaningful under concurrency because
 * RunResult::cpuSeconds is per-thread CPU time (see experiment.hh),
 * not wall time: an 8-way-parallel campaign reports the same
 * per-experiment costs a serial one does.
 *
 * Isolation boundary: this pool shares one address space, so it
 * contains *exceptions*, not crashes — a job that segfaults, aborts,
 * or wedges outside the cooperative watchdog's heartbeat (see
 * watchdog.hh's blind-spot note) takes the whole campaign with it.
 * Campaigns that need to survive those failure modes run the same
 * job list under the fork-isolated backend (sim/worker_proc.hh,
 * `pintesim --sweep --isolation=process`), which trades pipe-framing
 * overhead for hard timeouts, retry, and per-cell crash quarantine.
 */

#ifndef PINTE_SIM_RUNNER_HH
#define PINTE_SIM_RUNNER_HH

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hh"

namespace pinte
{

/**
 * Aggregate of every exception thrown across one Runner batch.
 *
 * When more than one job of a forEach/map call throws, the Runner
 * collects them all and raises a single MultiJobError whose what()
 * summarizes the first few failures; failures() exposes the full
 * (index, message) list sorted by job index. A batch with exactly one
 * failing job rethrows that job's original exception unchanged.
 */
class MultiJobError : public Error
{
  public:
    using Failure = std::pair<std::size_t, std::string>;

    MultiJobError(std::size_t total_jobs, std::vector<Failure> failures);

    /** (job index, exception message) per failed job, index-sorted. */
    const std::vector<Failure> &failures() const { return failures_; }

    /** Number of jobs in the batch (failed + healthy). */
    std::size_t totalJobs() const { return totalJobs_; }

  private:
    std::vector<Failure> failures_;
    std::size_t totalJobs_;
};

/**
 * Fixed-size thread pool mapping an index range over worker threads.
 *
 * Semantics shared by every entry point:
 *  - results come back in submission order regardless of completion
 *    order;
 *  - `tick(done)` (optional) is invoked on the *calling* thread with a
 *    monotonically increasing completion count — there is exactly one
 *    progress writer, and it is never a worker;
 *  - if jobs throw, every job still runs; a single failure is rethrown
 *    unchanged on the calling thread, multiple failures are aggregated
 *    into one MultiJobError listing all of them in index order
 *    (deterministic regardless of scheduling);
 *  - a pool of size 1 executes inline on the calling thread with no
 *    thread machinery at all, so `--jobs=1` is a true serial baseline.
 */
class Runner
{
  public:
    /** Progress callback: called with the number of jobs completed. */
    using Tick = std::function<void(std::size_t done)>;

    /**
     * @param jobs worker count; 0 selects
     *        std::thread::hardware_concurrency()
     */
    explicit Runner(unsigned jobs = 0);

    /** Number of workers this pool runs. */
    unsigned jobs() const { return jobs_; }

    /**
     * Arm a per-job hang watchdog: each job that stalls (no simulated
     * instruction progress) for more than `seconds` raises
     * TimeoutError inside that job. 0 (the default) disables the
     * watchdog. See watchdog.hh for the cooperative mechanism.
     */
    void jobTimeout(double seconds) { jobTimeout_ = seconds; }

    /** Currently armed per-job timeout in seconds (0 = off). */
    double jobTimeout() const { return jobTimeout_; }

    /**
     * Invoke `fn(i)` exactly once for every i in [0, n), spread across
     * the pool. Blocks until all jobs finish.
     */
    void forEach(std::size_t n,
                 const std::function<void(std::size_t)> &fn,
                 const Tick &tick = {}) const;

    /**
     * Map [0, n) through `fn` and collect the results in index order.
     * The result type must be default-constructible and
     * move-assignable (every Run* type is).
     */
    template <typename Fn>
    auto
    map(std::size_t n, Fn &&fn, const Tick &tick = {}) const
        -> std::vector<decltype(fn(std::size_t{}))>
    {
        std::vector<decltype(fn(std::size_t{}))> out(n);
        forEach(
            n, [&](std::size_t i) { out[i] = fn(i); }, tick);
        return out;
    }

  private:
    unsigned jobs_;
    double jobTimeout_ = 0.0;
};

} // namespace pinte

#endif // PINTE_SIM_RUNNER_HH
