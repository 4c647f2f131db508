/**
 * @file
 * Deterministic fault injection for the failure-model test suite.
 *
 * Setting PINTE_INJECT_FAULT=kind:nth arms exactly one fault: the nth
 * dynamic hit of the injection site named `kind` (1-based; ":nth"
 * defaults to 1) reports true and the site raises its natural typed
 * error. The hook is compiled in unconditionally — when no fault is
 * armed the cost per site is one inline load and branch, with no call
 * — so CI and release binaries exercise identical code paths.
 *
 * Sites wired today:
 *  - "job"          ExperimentSpec::runAll() entry — a whole
 *                   simulation job fails with a SimError
 *  - "hang"         ExperimentSpec::runAll() after warmup — the job
 *                   stops making instruction progress (watchdog food)
 *  - "trace-open"   FileTraceSource constructor — TraceError
 *  - "report-write" AtomicFile::commit() — the artifact write fails
 *                   after the temp file is fully written
 *  - "stack-corrupt" Cache::access() fill path — duplicates the filled
 *                   tag into a second way of the same set (the classic
 *                   replacement-stack corruption paranoid mode exists
 *                   to catch)
 *  - "stat-skew"    Cache::access() hit path — bumps the hit counter
 *                   without the matching access, breaking the
 *                   accesses = hits + misses conservation identity
 *
 * The hit counter is global and atomic, so "job:3" poisons the third
 * job started process-wide regardless of worker interleaving; which
 * campaign index that is stays deterministic at jobs=1 and, for
 * campaigns that pre-assign work by index, at any job count.
 *
 * Worker-level faults (process-isolated campaigns, sim/worker_proc.hh)
 * use faultArmedForCell() instead: they are keyed to a *campaign cell
 * index*, not a dynamic hit count, because a retried cell re-executes
 * in a fresh worker process whose hit counter restarted. "kind:nth"
 * here means cell nth (1-based), every attempt:
 *  - "worker-crash"   the worker running that cell abort()s
 *                     (contained: the cell is quarantined with its
 *                     signal, the campaign completes)
 *  - "worker-hang"    the worker ignores SIGTERM and blocks in
 *                     pause() — a non-cooperative hang the in-process
 *                     watchdog can never see; only the parent's hard
 *                     SIGTERM->SIGKILL escalation recovers
 *  - "worker-garbage" the worker corrupts its result frame's CRC;
 *                     the parent must discard the frame, not trust it
 *  - "worker-flaky"   the worker abort()s on the cell's first attempt
 *                     only, so --max-retries >= 2 recovers it — the
 *                     retry-determinism test hook
 *  - "worker-torn-frame"
 *                     the worker writes the first half of a valid
 *                     Result frame, then wedges ignoring SIGTERM —
 *                     the partial-frame stall case: the parent must
 *                     keep polling (reassembly buffer), enforce the
 *                     deadline, and record the torn bytes
 */

#ifndef PINTE_COMMON_FAULT_HH
#define PINTE_COMMON_FAULT_HH

namespace pinte
{

namespace detail
{

/** True while a fault plan is armed (PINTE_INJECT_FAULT or armFault). */
extern bool faultArmed;

/** faultInjected()'s armed path: match `kind` and count the hit. */
bool faultHit(const char *kind);

} // namespace detail

/**
 * True exactly once: on the nth dynamic hit of the armed site.
 * Always false when PINTE_INJECT_FAULT is unset or names another site.
 */
inline bool
faultInjected(const char *kind)
{
    return detail::faultArmed && detail::faultHit(kind);
}

/**
 * True when the armed plan names `kind` and its nth (1-based) selects
 * campaign cell `cell` (0-based). A pure predicate — no hit counter —
 * so it reports true on *every* attempt of that cell, in any process:
 * exactly what worker-level faults need, where each retry runs in a
 * fresh fork with fresh global state.
 */
bool faultArmedForCell(const char *kind, unsigned long long cell);

/**
 * Re-arm the fault plan programmatically with the same "kind:nth"
 * syntax as PINTE_INJECT_FAULT ("" disarms), resetting the hit
 * counter. Tests that need several different sites in one process
 * (test_invariants.cc arms stack-corrupt, then stat-skew) use this;
 * production code never calls it. Not safe concurrently with active
 * simulation threads — call between runs only.
 */
void armFault(const char *spec);

} // namespace pinte

#endif // PINTE_COMMON_FAULT_HH
