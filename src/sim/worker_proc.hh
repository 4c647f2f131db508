/**
 * @file
 * Process-isolated campaign backend: crash containment, hard
 * timeouts, bounded retry with exponential backoff.
 *
 * The in-process Runner (sim/runner.hh) gives campaigns cooperative
 * fault isolation: a cell that throws is quarantined. This backend
 * (`pintesim --sweep --isolation=process`) upgrades that to *crash*
 * isolation: the parent forks one worker process per job slot and
 * ships each cell over a CRC32-framed pipe protocol (sim/wire.hh), so
 * a worker that segfaults, aborts, is OOM-killed, or wedges in a
 * non-cooperative hang becomes a quarantined cell in the report —
 * with its exit signal/code and full attempt history — instead of a
 * dead campaign. This is ROADMAP item 3's fault model ("a lost worker
 * is a quarantined shard") at single-host scale.
 *
 * Mechanics, all driven by the single-threaded parent event loop:
 *
 *  - **Liveness.** Workers forward instruction-progress heartbeats
 *    over the result pipe (JobWatchdog::pipeHeartbeats); the parent's
 *    deadline for a cell is `jobTimeout` seconds since the last
 *    observed progress — the same quantity the cooperative watchdog
 *    measures, now enforced from outside the faulting process.
 *  - **Hard timeout escalation.** An expired cell gets SIGTERM; a
 *    worker that ignores it (wedged in a syscall, or the injected
 *    `worker-hang`) gets SIGKILL after `killGrace` seconds. Either
 *    way the death is observed via waitpid and classified.
 *  - **Retry with backoff.** A worker-level loss (crash, timeout
 *    kill, corrupt or torn frame) re-queues the cell with a delay
 *    drawn deterministically from the doubling window
 *    `[backoffBase * 2^attempt, backoffBase * 2^(attempt+1))`
 *    (retryBackoffSeconds below) until `maxRetries` attempts are
 *    consumed, then quarantines it. The simulator is deterministic,
 *    so a retried cell that succeeds is bitwise-identical to a fresh
 *    run (modulo cpuSeconds) — pinned by tests. In-simulation
 *    failures (a cell whose result *parses* but carries a RunError)
 *    are deterministic and are NOT retried, matching thread mode.
 *  - **Merge on arrival.** `onResult` fires as each healthy result
 *    arrives (submission order not guaranteed), which is where the
 *    campaign driver appends to the --resume journal; the returned
 *    vector is in submission order like Runner::map.
 *
 * Worker deaths never tear shared artifacts: workers only ever write
 * their private pipe; reports, journals and checkpoints are written
 * by the parent (or by AtomicFile's temp-then-rename elsewhere).
 */

#ifndef PINTE_SIM_WORKER_PROC_HH
#define PINTE_SIM_WORKER_PROC_HH

#include <cstddef>
#include <functional>
#include <vector>

#include "sim/experiment.hh"

namespace pinte
{

/** Knobs of a process-isolated campaign. */
struct ProcOptions
{
    /** Worker processes; 0 selects hardware_concurrency(). */
    unsigned workers = 0;

    /**
     * Hard per-cell deadline in seconds without instruction progress
     * (--job-timeout); 0 disables. Escalation: SIGTERM at the
     * deadline, SIGKILL `killGrace` seconds later.
     */
    double jobTimeout = 0.0;

    /**
     * Attempts per cell before quarantine (--max-retries), >= 1.
     * Only worker-level losses (crash / timeout kill / corrupt
     * frame) consume retries; deterministic in-simulation failures
     * quarantine immediately.
     */
    unsigned maxRetries = 1;

    /** Base of the jittered retry delay; the window doubles per
     *  further attempt (see retryBackoffSeconds). */
    double backoffBase = 0.05;

    /** Seconds between SIGTERM and SIGKILL for an expired cell. */
    double killGrace = 1.0;
};

/** Executes cell `i`; runs inside the worker process. Expected not to
 *  throw (wrap with ExperimentSpec::tryRun); if it does, the error is
 *  captured into a failed result and shipped back normally. */
using ProcJobFn = std::function<RunResult(std::size_t)>;

/** Merge-on-arrival hook: called in the parent as each cell resolves
 *  (healthy or quarantined), before the campaign completes. */
using ProcResultFn =
    std::function<void(std::size_t, const RunResult &)>;

/**
 * Deterministic decorrelated-jitter retry delay.
 *
 * Plain exponential backoff synchronizes: every cell lost to the same
 * event (a dying host, a full disk) retries at the same instant and
 * collides again. Jitter decorrelates the retries, but campaigns must
 * stay reproducible, so instead of a random draw the delay for
 * attempt `a` of cell `key` is a splitmix64 hash of (key, a) mapped
 * uniformly onto the doubling window
 * `[base * 2^a, base * 2^(a+1))`. Same cell, same attempt, same
 * schedule — forever — while distinct cells spread across the window.
 * Shared by the fork-isolated backend (key = cell index) and the
 * spool broker's shard reclamation ladder (key = shard hash).
 */
double retryBackoffSeconds(double base, std::uint32_t attempt,
                           std::uint64_t key);

/**
 * Run cells [0, n) across forked worker processes and return their
 * results in submission order. Never throws on worker death — losses
 * become quarantined cells, without workload/contention labels (the
 * campaign driver, sim/campaign.hh, knows them); throws SimError only
 * on parent-side resource failures (pipe/fork exhaustion), after
 * killing workers.
 */
std::vector<RunResult> runProcessCampaign(std::size_t n,
                                          const ProcJobFn &fn,
                                          const ProcOptions &opt,
                                          const ProcResultFn &onResult = {});

} // namespace pinte

#endif // PINTE_SIM_WORKER_PROC_HH
