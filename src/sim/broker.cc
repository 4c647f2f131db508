#include "broker.hh"

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/error.hh"
#include "common/fault.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "sim/sink.hh"
#include "sim/spool_wait.hh"
#include "sim/watchdog.hh"

namespace pinte
{

namespace
{

/** Host marker of the broker's own backoff leases: a reclaimed shard
 *  is re-leased to nobody for the jittered retry window, durably, so
 *  even a broker restart honors the pacing. */
const char *const kBackoffHost = "!backoff";

std::string
fmtSecs(double s)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", s);
    return buf;
}

/** One flat (single-line) writeRunJson document — the exact bytes
 *  records, baselines and journal lines carry. */
std::string
runToFlatJson(const RunResult &r)
{
    std::ostringstream os;
    {
        JsonWriter w(os, -1);
        writeRunJson(w, r);
    }
    return os.str();
}

std::uint64_t
shardIdHash(const std::string &id)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : id) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * One-shot scan of a whole result stream (adoption-time salvage). The
 * live loop reads incrementally through StreamScanner; this reads a
 * historical stream end to end, stopping at the first torn or corrupt
 * frame. Everything before the damage is good data.
 */
void
scanStreamOnce(const Spool &spool, const std::string &id,
               std::uint32_t token, std::vector<SpoolRecord> &out)
{
    std::ifstream in(spool.resultFile(id, token), std::ios::binary);
    if (!in)
        return;
    FrameReassembly rx;
    char buf[65536];
    for (;;) {
        in.read(buf, sizeof(buf));
        const std::streamsize got = in.gcount();
        if (got <= 0)
            break;
        rx.feed(buf, static_cast<std::size_t>(got));
    }
    for (;;) {
        Frame f;
        if (rx.next(f) != ReassemblyStatus::Frame)
            break;
        SpoolRecord rec;
        if (f.type != FrameType::Record || !unpackRecord(f.payload, rec))
            break;
        out.push_back(std::move(rec));
    }
}

/** Spawn one local worker process; -1 on failure. execvp so a broker
 *  invoked by bare name (PATH lookup, argv[0] not a path) still
 *  reaches its own binary; exit 127 marks an exec that failed. */
pid_t
spawnLocalWorker(const std::vector<std::string> &argv)
{
    std::vector<char *> av;
    av.reserve(argv.size() + 1);
    for (const std::string &a : argv)
        av.push_back(const_cast<char *>(a.c_str()));
    av.push_back(nullptr);
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0)
        return -1;
    if (pid == 0) {
        ::execvp(av[0], av.data());
        std::_Exit(127);
    }
    return pid;
}

/** How a reaped child ended, for the pre-claim guard's messages. */
std::string
describeExit(int status)
{
    if (WIFEXITED(status))
        return "exit status " + std::to_string(WEXITSTATUS(status));
    if (WIFSIGNALED(status))
        return "signal " + std::to_string(WTERMSIG(status));
    return "wait status " + std::to_string(status);
}

} // namespace

std::vector<RunResult>
runSpoolBroker(const std::string &campaignJson,
               const std::string &fingerprint,
               const std::vector<std::string> &cellKeys,
               const BrokerOptions &opt, const ProcResultFn &onResult,
               const BrokerLookupFn &lookup)
{
    const std::size_t n = cellKeys.size();
    std::vector<RunResult> results(n);
    std::vector<char> resolved(n, 0);
    std::size_t remaining = n;

    Spool spool(opt.spool);

    // Adopt-or-create the campaign document. A spool is married to one
    // campaign for life: byte-identical documents or nothing — resuming
    // under different parameters would merge incomparable results.
    if (spool.hasCampaign()) {
        if (spool.readCampaign() != campaignJson)
            throw ConfigError(
                "spool " + opt.spool +
                    " already carries a different campaign; use a "
                    "fresh --spool directory (or identical flags)",
                {"broker", opt.spool, ""});
    } else {
        spool.writeCampaign(campaignJson);
    }

    const auto resolve = [&](std::size_t cell, RunResult r,
                             bool notify) {
        if (resolved[cell])
            return;
        results[cell] = std::move(r);
        resolved[cell] = 1;
        --remaining;
        if (notify && onResult)
            onResult(cell, results[cell]);
    };

    // A record merges only if it is plausibly ours: known cell, first
    // arrival, the exact journal key of that cell, and a parseable run
    // document. `token` 0 accepts any token (adoption-time salvage —
    // the key check still guards identity); otherwise the record must
    // come from the stream of the shard's current token.
    const auto mergeRecord = [&](const SpoolRecord &rec,
                                 std::uint32_t token) {
        if (rec.cell >= n || resolved[rec.cell])
            return;
        if (token != 0 && rec.token != token)
            return;
        if (rec.key != cellKeys[rec.cell])
            return;
        std::string err;
        const JsonValue v = parseJson(rec.runJson, &err);
        if (!err.empty())
            return;
        try {
            resolve(rec.cell, runFromJson(v), true);
        } catch (const Error &) {
            // Not a run object: a corrupt-but-CRC-valid record. Leave
            // the cell unresolved; the retry ladder decides its fate.
        }
    };

    // Resume journal hits never touch the spool at all.
    if (lookup)
        for (std::size_t i = 0; i < n; ++i)
            if (const RunResult *hit = lookup(i))
                resolve(i, *hit, false);

    // Adopt existing shards (broker restart) and publish shards for
    // unresolved cells no shard covers yet.
    const unsigned budget = std::max(1u, opt.maxRetries);
    std::map<std::string, ShardSpec> shards;
    std::set<std::uint64_t> covered;
    std::size_t shardSeq = 0;
    for (const std::string &id : spool.listShardIds()) {
        ShardSpec s;
        if (!spool.readShard(id, s)) {
            // AtomicFile-published shards are whole or absent; an
            // unreadable one is operator damage. Its cells read as
            // uncovered below, so a fresh shard heals them.
            warn("spool shard " + id + " unreadable; replacing");
            continue;
        }
        if (s.fingerprint != fingerprint)
            throw ConfigError("spool shard " + id +
                                  " carries a foreign fingerprint",
                              {"broker", opt.spool, id});
        // Leases and staged claims from superseded tokens are litter
        // the previous broker's death left behind; nobody reads them.
        spool.sweepStaleLeases(id, s.token);
        for (const std::uint64_t c : s.cells)
            covered.insert(c);
        if (!s.id.empty() && s.id[0] == 's')
            shardSeq = std::max(
                shardSeq, static_cast<std::size_t>(std::strtoull(
                              s.id.c_str() + 1, nullptr, 10)) +
                              1);
        shards.emplace(id, std::move(s));
    }

    // Salvage every stream an adopted shard ever wrote, current and
    // superseded tokens alike. A reclamation merges in memory before
    // bumping the token, so a broker killed right after the bump left
    // good records only the *old* stream holds. Records carry their
    // token and the cell's full journal key; first-wins merging makes
    // replay idempotent.
    for (auto &kv : shards)
        for (std::uint32_t t = 1; t <= kv.second.token; ++t) {
            std::vector<SpoolRecord> recs;
            scanStreamOnce(spool, kv.second.id, t, recs);
            for (const SpoolRecord &rec : recs)
                mergeRecord(rec, 0);
        }

    {
        ShardSpec next;
        const std::size_t chunk =
            std::max<std::size_t>(1, opt.shardSize);
        const auto flush = [&]() {
            if (next.cells.empty())
                return;
            char idbuf[24];
            std::snprintf(idbuf, sizeof(idbuf), "s%06zu", shardSeq++);
            next.id = idbuf;
            next.fingerprint = fingerprint;
            next.token = 1;
            next.attempt = 0;
            next.budget = budget;
            spool.publishShard(next);
            shards.emplace(next.id, next);
            next.cells.clear();
        };
        for (std::size_t i = 0; i < n; ++i) {
            if (resolved[i] || covered.count(i))
                continue;
            next.cells.push_back(i);
            if (next.cells.size() >= chunk)
                flush();
        }
        flush();
    }

    std::set<std::string> retired;
    StreamScanner scanner(spool);
    // Armed before the first scan: whatever a worker writes from here
    // on either shows in a scan or wakes the wait that follows it.
    SpoolWaiter waiter(opt.spool);
    std::vector<pid_t> children;
    std::set<pid_t> deadChildren;
    // Local pids ever seen holding a lease. A child that dies without
    // one (exec failure, config skew, a bad spool) died before
    // claiming; a streak of those means respawning is a fork storm,
    // not capacity.
    std::set<pid_t> claimedPids;
    std::vector<std::pair<pid_t, int>> freshDeaths; // pid, wait status
    unsigned preClaimStreak = 0;
    std::string lastPreClaimExit;
    bool spawnBroken = false;
    double lastProgress = 0.0; // while spawnBroken: last lease or merge
    const std::string myHost = spoolHostName();

    const auto reapChildren = [&](bool block) {
        for (auto it = children.begin(); it != children.end();) {
            int status = 0;
            const pid_t r = ::waitpid(*it, &status, block ? 0 : WNOHANG);
            if (r == *it || (r < 0 && errno != EINTR)) {
                // Remember the corpse: a lease this pid holds can be
                // reclaimed immediately instead of waiting out its
                // deadline (local children only — remote worker
                // deaths are visible through lease expiry alone).
                deadChildren.insert(*it);
                freshDeaths.emplace_back(*it, status);
                waiter.forgetChild(*it);
                it = children.erase(it);
            } else {
                ++it;
            }
        }
    };
    const auto killChildren = [&]() {
        for (const pid_t pid : children)
            ::kill(pid, SIGKILL);
        reapChildren(true);
    };

    // Quarantine every unresolved cell of an exhausted shard. The
    // record is a pure function of the (durable) shard file and the
    // resolved set, so a broker restart reconstructs identical losses.
    const auto quarantineShard = [&](const ShardSpec &s) {
        for (const std::uint64_t cell : s.cells) {
            if (cell >= n || resolved[cell])
                continue;
            RunResult q;
            RunError &e = q.error;
            e.kind = "worker";
            e.component = "broker";
            e.attempts = s.attempt;
            e.attemptLog = s.attemptLog;
            e.shard = s.id;
            e.fencingToken = s.token;
            e.message = "shard " + s.id + " lost after " +
                        std::to_string(s.attempt) +
                        " attempt(s); cell quarantined (lease-ttl=" +
                        fmtSecs(opt.leaseTtl) + "s)";
            resolve(cell, std::move(q), true);
        }
    };

    const auto allCellsResolved = [&](const ShardSpec &s) {
        for (const std::uint64_t cell : s.cells)
            if (cell >= n || !resolved[cell])
                return false;
        return true;
    };

    // The reclamation ladder for a shard whose worker is presumed
    // dead: salvage what its stream already holds, fence the worker
    // off by bumping the token (durably, before the shard can be
    // re-claimed), then pace the retry with a broker-owned backoff
    // lease — or exhaust the budget and quarantine.
    const auto reclaimShard = [&](ShardSpec &s,
                                  const std::string &why) {
        std::vector<SpoolRecord> recs;
        scanner.poll(s.id, s.token, recs);
        for (const SpoolRecord &rec : recs)
            mergeRecord(rec, s.token);
        scanner.forget(s.id);
        spool.clearDone(s.id);

        s.attemptLog.push_back("attempt " +
                               std::to_string(s.attempt + 1) + ": " +
                               why);
        s.attempt += 1;
        s.token += 1;

        const bool done = allCellsResolved(s);
        const bool exhausted = s.attempt >= s.budget;
        if (!done && !exhausted) {
            // Stage the backoff lease at the *new* token before the
            // bumped shard becomes visible: the instant a worker can
            // see the new token, the pacing lease already holds it —
            // no unclaimed window in which an eager worker could
            // defeat the pacing. Deterministic jitter keyed on the
            // shard id keeps restarts reproducible without
            // synchronizing reclaim storms. (A broker killed between
            // here and the publish leaves a lease at a token no shard
            // file carries yet; its successor reclaims again and the
            // impose below overwrites it.)
            Lease pause;
            pause.shard = s.id;
            pause.token = s.token;
            pause.pid = 0;
            pause.host = kBackoffHost;
            pause.deadline = spoolWallClock() +
                             retryBackoffSeconds(opt.backoffBase,
                                                 s.attempt - 1,
                                                 shardIdHash(s.id));
            spool.imposeLease(pause);
        }
        spool.publishShard(s);
        // The dead worker's lease lives at the superseded token's
        // path now; sweep it (and any staged-claim litter) away.
        spool.sweepStaleLeases(s.id, s.token);

        if (done) {
            // The dying worker streamed everything before losing its
            // lease; nothing left to retry.
            retired.insert(s.id);
            return;
        }
        if (exhausted) {
            quarantineShard(s);
            retired.insert(s.id);
        }
    };

    // Shards already exhausted on adoption (the broker died between
    // bumping a shard past its budget and quarantining) quarantine
    // now, after the salvage pass recovered every streamed cell.
    for (auto &kv : shards)
        if (kv.second.attempt >= kv.second.budget) {
            quarantineShard(kv.second);
            retired.insert(kv.first);
        }

    try {
        while (remaining > 0) {
            waiter.drain();
            const double now = spoolWallClock();
            // pollInterval is only the ceiling for writers inotify
            // cannot see; the scan pulls the wake in to the nearest
            // deadline it passes.
            double wake = now + opt.pollInterval;
            const std::size_t unresolved = remaining;
            bool leaseHeld = false;

            reapChildren(false);

            for (auto &kv : shards) {
                ShardSpec &s = kv.second;
                if (retired.count(s.id))
                    continue;

                // Merge whatever the current stream holds.
                std::vector<SpoolRecord> recs;
                scanner.poll(s.id, s.token, recs);
                for (const SpoolRecord &rec : recs)
                    mergeRecord(rec, s.token);

                if (allCellsResolved(s)) {
                    retired.insert(s.id);
                    scanner.forget(s.id);
                    continue;
                }

                std::uint32_t doneToken = 0;
                if (spool.readDone(s.id, doneToken) &&
                    doneToken == s.token) {
                    // The worker claims it streamed every cell, yet
                    // some are missing after a full scan: a torn tail
                    // or a lying worker. Same ladder as a death.
                    reclaimShard(s, "done marker without all cells "
                                    "(stream torn or incomplete)");
                    continue;
                }

                Lease lease;
                double leaseMtime = 0.0;
                const LeaseProbe probe = spool.probeLease(
                    s.id, s.token, lease, &leaseMtime);
                if (probe == LeaseProbe::Absent)
                    continue; // unclaimed; waiting for a worker
                if (probe == LeaseProbe::Corrupt) {
                    // A damaged lease file (a link()-atomic claim
                    // cannot leave one, so: operator mishap, foreign
                    // tooling, disk damage) parses as nothing yet
                    // blocks every claim — left alone it wedges the
                    // shard forever. Break it after a full TTL of
                    // grace from its last modification, exactly the
                    // patience a silent worker gets.
                    if (leaseMtime + opt.leaseTtl <= now) {
                        warn("spool shard " + s.id +
                             ": corrupt lease at token " +
                             std::to_string(s.token) +
                             "; breaking it");
                        spool.breakLease(s.id, s.token);
                    } else {
                        wake = std::min(wake, leaseMtime + opt.leaseTtl);
                    }
                    continue;
                }
                if (lease.host == kBackoffHost) {
                    if (lease.deadline <= now)
                        spool.breakLease(s.id,
                                         s.token); // backoff served
                    else
                        wake = std::min(wake, lease.deadline);
                    continue;
                }
                leaseHeld = true;
                if (lease.host == myHost)
                    claimedPids.insert(static_cast<pid_t>(lease.pid));
                if (lease.host == myHost &&
                    deadChildren.count(
                        static_cast<pid_t>(lease.pid))) {
                    // The holder was our child and it is already
                    // dead: reclaim now instead of waiting out the
                    // deadline.
                    reclaimShard(s, "worker exited (token " +
                                        std::to_string(lease.token) +
                                        ", pid " +
                                        std::to_string(lease.pid) +
                                        " on " + lease.host + ")");
                    continue;
                }
                if (lease.deadline <= now) {
                    // Dead worker. Kill it first when it is our own
                    // child — a local non-cooperative hang would
                    // otherwise outlive its reclamation and hold a
                    // process slot forever.
                    std::string why =
                        "lease expired (token " +
                        std::to_string(lease.token) + ", pid " +
                        std::to_string(lease.pid) + " on " +
                        lease.host + ", ttl " + fmtSecs(opt.leaseTtl) +
                        "s)";
                    const pid_t holder = static_cast<pid_t>(lease.pid);
                    if (lease.host == myHost &&
                        std::count(children.begin(), children.end(),
                                   holder)) {
                        ::kill(holder, SIGKILL);
                        why += "; worker killed";
                    }
                    reclaimShard(s, why);
                } else {
                    wake = std::min(wake, lease.deadline);
                }
            }

            if (remaining == 0)
                break;

            // A child's death counts against the pre-claim streak only
            // when no scan, this one included, ever saw it hold a
            // lease: a worker that crashed mid-shard still has its
            // lease on disk.
            for (const auto &[pid, status] : freshDeaths) {
                if (claimedPids.count(pid)) {
                    preClaimStreak = 0;
                } else {
                    ++preClaimStreak;
                    lastPreClaimExit = describeExit(status);
                }
            }
            freshDeaths.clear();
            if (!spawnBroken && preClaimStreak >= 3) {
                spawnBroken = true;
                lastProgress = now;
                warn("local workers exited before claiming a shard " +
                     std::to_string(preClaimStreak) +
                     " times in a row (last: " + lastPreClaimExit +
                     ", worker " + opt.workerArgv[0] +
                     "); not respawning — the campaign needs external "
                     "`pintesim --worker` processes");
            }
            if (spawnBroken) {
                // Without local workers the campaign lives on external
                // ones; if none holds a lease or delivers a cell for a
                // whole TTL, fail loudly instead of stalling silently.
                if (leaseHeld || remaining < unresolved)
                    lastProgress = now;
                if (now >= lastProgress + opt.leaseTtl)
                    throw ConfigError(
                        "spool campaign stalled: local workers exited "
                        "before claiming a shard (last: " +
                            lastPreClaimExit + ", worker " +
                            opt.workerArgv[0] +
                            ") and no worker held a lease for " +
                            fmtSecs(opt.leaseTtl) + "s",
                        {"broker", opt.spool, ""});
                wake = std::min(wake, lastProgress + opt.leaseTtl);
            } else if (!opt.workerArgv.empty()) {
                // Keep local worker capacity up: crashed workers
                // respawn while work remains. After a pre-claim death,
                // one unproven child at a time, so a broken argv or
                // config costs three spawns, not three rounds.
                while (children.size() < opt.workers) {
                    if (preClaimStreak > 0 &&
                        std::any_of(children.begin(), children.end(),
                                    [&](pid_t c) {
                                        return !claimedPids.count(c);
                                    }))
                        break;
                    const pid_t pid = spawnLocalWorker(opt.workerArgv);
                    if (pid < 0)
                        break;
                    children.push_back(pid);
                    waiter.watchChild(pid);
                    // The OS may recycle pids.
                    deadChildren.erase(pid);
                    claimedPids.erase(pid);
                }
            }

            waiter.wait(wake);
        }
    } catch (...) {
        killChildren();
        throw;
    }

    // Campaign over: the complete marker sends idle workers home;
    // stragglers are reaped the hard way after a short grace.
    spool.markComplete();
    const double grace = spoolWallClock() + 2.0;
    for (;;) {
        reapChildren(false);
        if (children.empty() || spoolWallClock() >= grace)
            break;
        waiter.wait(std::min(grace, spoolWallClock() + 0.05));
    }
    killChildren();
    return results;
}

bool
spoolWorkerStep(Spool &spool, const std::vector<std::string> &cellKeys,
                const ProcJobFn &fn, const SpoolWorkerOptions &opt)
{
    for (const std::string &id : spool.listShardIds()) {
        ShardSpec s;
        if (!spool.readShard(id, s))
            continue;
        if (s.attempt >= s.budget)
            continue; // exhausted: the broker is quarantining it
        if (!opt.fingerprint.empty() &&
            s.fingerprint != opt.fingerprint)
            continue; // config skew: not our campaign build
        std::uint32_t doneToken = 0;
        if (spool.readDone(id, doneToken) && doneToken == s.token)
            continue;
        Lease existing;
        if (spool.probeLease(id, s.token, existing) !=
            LeaseProbe::Absent)
            continue; // held (worker, broker backoff pacing, or a
                      // corrupt lease the broker will heal)
        Lease lease;
        if (!spool.claimLease(s, opt.leaseTtl, lease))
            continue; // lost the claim race
        // Re-read after claiming: the broker may have republished
        // (bumped the token) between our read and our claim, making
        // this lease stale at birth — walk away.
        ShardSpec cur;
        if (!spool.readShard(id, cur) || cur.token != lease.token) {
            spool.releaseLease(lease);
            continue;
        }

        // Execute the shard. Lease renewal rides the simulation's
        // instruction-progress heartbeat: a wedged cell stops
        // renewing, and that silence *is* the liveness signal the
        // broker acts on. `lost` notes a fenced-off lease (reclaimed
        // under us): stop streaming, abandon everything quietly.
        bool lost = false;
        JobWatchdog::progressHook(
            [&](std::uint64_t) {
                if (!lost && !spool.renewLease(lease, opt.leaseTtl))
                    lost = true;
            },
            std::max(0.05, opt.leaseTtl / 4.0));

        bool streamedAll = true;
        {
            ResultAppender out(spool, s.id, s.token);
            for (const std::uint64_t cell : s.cells) {
                if (lost || !spool.renewLease(lease, opt.leaseTtl)) {
                    lost = true;
                    streamedAll = false;
                    break;
                }
                if (cell >= cellKeys.size()) {
                    streamedAll = false;
                    break;
                }
                const std::string &key = cellKeys[cell];

                // Worker-level fault sites (common/fault.hh), keyed by
                // global cell index exactly like the fork backend's.
                if (faultArmedForCell("worker-crash", cell))
                    std::abort();
                if (s.attempt == 0 &&
                    faultArmedForCell("worker-flaky", cell))
                    std::abort();
                if (faultArmedForCell("worker-hang", cell)) {
                    ::signal(SIGTERM, SIG_IGN);
                    for (;;)
                        ::pause();
                }

                SpoolRecord rec;
                rec.cell = cell;
                rec.token = s.token;
                rec.key = key;

                if (faultArmedForCell("worker-torn-frame", cell)) {
                    // Half a record, then wedge: the broker's scanner
                    // must keep the tail buffered (never merged) while
                    // lease expiry reclaims the shard around it.
                    rec.runJson = "{\"torn\": true}";
                    out.append(rec, /*torn_prefix=*/true);
                    ::signal(SIGTERM, SIG_IGN);
                    for (;;)
                        ::pause();
                }

                // Cross-campaign memoization: serve the cell from the
                // spool's content-addressed baseline store when any
                // earlier campaign or shard attempt already ran it.
                if (!spool.loadBaseline(key, rec.runJson)) {
                    if (opt.jobTimeout > 0.0)
                        JobWatchdog::arm(opt.jobTimeout);
                    RunResult r;
                    try {
                        r = fn(static_cast<std::size_t>(cell));
                    } catch (const Error &e) {
                        r.error = RunError::from(e);
                    } catch (const std::exception &e) {
                        r.error = RunError::from(e);
                    }
                    JobWatchdog::disarm();
                    rec.runJson = runToFlatJson(r);
                    if (!r.failed())
                        spool.storeBaseline(key, rec.runJson);
                }

                if (!out.append(rec)) {
                    streamedAll = false;
                    break;
                }
            }
        }
        JobWatchdog::progressHook({}, 0.2);

        if (lost)
            return true; // fenced off; our lease is not ours to touch
        if (streamedAll)
            spool.markDone(s.id, s.token);
        // Not streamedAll without being fenced (I/O failure, foreign
        // cell index): release and let the broker's ladder decide.
        spool.releaseLease(lease);
        return true;
    }
    return false;
}

void
runSpoolWorker(const std::string &spoolRoot,
               const std::vector<std::string> &cellKeys,
               const ProcJobFn &fn, const SpoolWorkerOptions &opt)
{
    Spool spool(spoolRoot);
    SpoolWaiter waiter(spoolRoot);
    for (;;) {
        // Events queued while a shard ran are already in this scan.
        waiter.drain();
        if (spool.complete())
            return;
        if (!spoolWorkerStep(spool, cellKeys, fn, opt))
            waiter.wait(spoolWallClock() + opt.idlePoll);
    }
}

} // namespace pinte
