/**
 * @file
 * Sharded campaign broker over a durable spool (file-queue) — the
 * multi-process, multi-host campaign backend
 * (`pintesim --sweep --isolation=spool --spool=DIR`).
 *
 * The broker partitions a campaign's cell grid into shards keyed by
 * the machine fingerprint, publishes them to a spool directory
 * (sim/shard_queue.hh), and merges per-cell results on arrival as
 * independent worker processes (`pintesim --worker --spool=DIR`,
 * locally spawned and/or started by hand on any host sharing the
 * filesystem) claim shards, execute their cells, and stream results
 * back. Everything the campaign knows lives in the spool, so:
 *
 *  - a worker that crashes, hangs, or tears a frame mid-write simply
 *    stops renewing its lease; the broker reclaims the shard (killing
 *    the worker first when it is a local child), republishes it under
 *    a bumped fencing token, and retries under the --max-retries
 *    budget with the same deterministic jittered backoff the
 *    fork-isolated backend uses — cells the worker completed before
 *    dying were already streamed and stay merged;
 *  - a shard that exhausts its budget quarantines its remaining cells
 *    with the full attempt ladder, shard id and fencing token in the
 *    v6 report — a lost worker is a quarantined shard, never a dead
 *    campaign;
 *  - a broker SIGKILLed mid-campaign restarts from the spool alone:
 *    shard files carry the durable token/attempt state, result
 *    streams replay every merged cell, and the campaign document
 *    pins the grid identity (a spool can never be resumed under a
 *    different campaign);
 *  - duplicate completions (a shard re-run whose predecessor already
 *    streamed some cells, or a stale worker finishing after
 *    reclamation) are idempotent: the first merged result wins, and
 *    records from superseded tokens land in streams the broker never
 *    reads.
 *
 * Fencing: a lease carries the shard token it claimed; reclamation
 * bumps the token in the shard file (atomically) before the shard can
 * be re-claimed, and a worker's result stream is named by its token.
 * The broker only ever reads the current token's stream, so a stale
 * worker — even one alive on another host that the broker cannot
 * kill — writes into the void. Workers double-check the shard token
 * on every lease renewal and abandon the shard the moment it moves.
 */

#ifndef PINTE_SIM_BROKER_HH
#define PINTE_SIM_BROKER_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "sim/shard_queue.hh"
#include "sim/worker_proc.hh"

namespace pinte
{

/** Knobs of a spool campaign's broker side. */
struct BrokerOptions
{
    /** Spool directory (created if absent). */
    std::string spool;

    /** Local worker processes to spawn; 0 spawns none (external
     *  workers only — tests, or hand-started remote workers). Three
     *  children in a row that exit before they are seen holding a
     *  lease stop the respawning. */
    unsigned workers = 0;

    /** argv to exec local workers with; empty disables spawning even
     *  when `workers` > 0. */
    std::vector<std::string> workerArgv;

    /** Lease time-to-live in seconds: a worker whose lease goes this
     *  long without renewal is presumed dead and reclaimed. Renewal
     *  rides the instruction-progress heartbeat, so this bounds "no
     *  progress", like --job-timeout, not total shard runtime. */
    double leaseTtl = 30.0;

    /** Attempts per shard before its cells quarantine (--max-retries
     *  semantics, >= 1). */
    unsigned maxRetries = 1;

    /** Base of the jittered reclamation backoff window (seconds);
     *  see retryBackoffSeconds. */
    double backoffBase = 0.05;

    /** Cells per shard. Small shards lose less work per reclamation;
     *  1 makes loss granularity exactly one cell. */
    std::size_t shardSize = 1;

    /** Longest the broker sleeps between scans, in seconds. Local
     *  file events and child exits wake it at once (sim/spool_wait.hh),
     *  so this is only the fallback ceiling for writers inotify cannot
     *  see — workers on other hosts over NFS — and for hosts without
     *  inotify or pidfds. */
    double pollInterval = 0.1;
};

/** Serves already-completed results (the --resume journal): return
 *  nullptr when cell `i` must be executed. */
using BrokerLookupFn =
    std::function<const RunResult *(std::size_t)>;

/**
 * Run a spool campaign as the broker: publish (or adopt) the campaign
 * document and shards, merge streamed results until every cell is
 * resolved, and return results in cell order. `campaignJson` is the
 * full campaign document; adopting an existing spool requires it to
 * match byte for byte. Throws ConfigError on a spool/campaign
 * mismatch, and when local workers keep dying before they claim
 * anything and no worker then holds a lease for a whole leaseTtl (the
 * message quotes the last child's exit status). Worker loss after a
 * claim never throws — it quarantines.
 */
std::vector<RunResult> runSpoolBroker(
    const std::string &campaignJson, const std::string &fingerprint,
    const std::vector<std::string> &cellKeys, const BrokerOptions &opt,
    const ProcResultFn &onResult = {}, const BrokerLookupFn &lookup = {});

/** Knobs of a spool worker. */
struct SpoolWorkerOptions
{
    /** Must match the broker's leaseTtl policy; the campaign document
     *  carries the broker's value so all workers agree. */
    double leaseTtl = 30.0;

    /** Cooperative per-cell watchdog limit (seconds); 0 disables. */
    double jobTimeout = 0.0;

    /** Longest an idle worker sleeps between scans for claimable
     *  shards, in seconds. A new shard, a released lease or the
     *  complete marker wakes it at once when written on this host;
     *  this ceiling covers writers on other hosts and hosts without
     *  inotify. */
    double idlePoll = 0.2;

    /** Machine fingerprint the worker was configured with; a shard
     *  whose fingerprint differs is refused (config-skew fencing).
     *  Empty disables the check. */
    std::string fingerprint;
};

/**
 * Claim and execute at most one shard: stream one Record per cell
 * (serving memoized baselines from the spool where possible), renew
 * the lease on instruction progress, and write the done marker.
 * Returns false when nothing was claimable. Exposed separately from
 * runSpoolWorker so tests can drive the worker protocol step by step
 * in-process.
 */
bool spoolWorkerStep(Spool &spool,
                     const std::vector<std::string> &cellKeys,
                     const ProcJobFn &fn,
                     const SpoolWorkerOptions &opt);

/**
 * Worker main loop: process shards until the spool's campaign is
 * complete. Returns normally when the complete marker appears.
 */
void runSpoolWorker(const std::string &spoolRoot,
                    const std::vector<std::string> &cellKeys,
                    const ProcJobFn &fn,
                    const SpoolWorkerOptions &opt);

} // namespace pinte

#endif // PINTE_SIM_BROKER_HH
