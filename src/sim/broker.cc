#include "broker.hh"

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/error.hh"
#include "common/fault.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "sim/sink.hh"
#include "sim/spool_wait.hh"
#include "sim/watchdog.hh"
#include "trace/trace_pump.hh"

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
 *  records and journal lines carry. */
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

/** A local worker the broker forked. Closing `wake`, the broker's end
 *  of the worker's own socket pair, tells it the campaign is over
 *  (EOF); a byte sent there makes it rescan. */
struct LocalWorker
{
    pid_t pid = -1;
    int wake = -1;
};

/** A nonblocking Unix socket pair, the wake channel between the broker
 *  and its forked workers: a peer that died makes a send fail with
 *  EPIPE instead of raising SIGPIPE, and a closed peer reads as EOF. */
bool
openChannel(int (&fd)[2])
{
    return ::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0, fd) == 0;
}

/** A channel whose ends close with it. */
struct Channel
{
    int fd[2] = {-1, -1};
    Channel() = default;
    Channel(const Channel &) = delete;
    Channel &operator=(const Channel &) = delete;
    ~Channel()
    {
        for (const int f : fd)
            if (f >= 0)
                ::close(f);
    }
};

/** Send one byte. A full channel already holds a wake nobody has
 *  read, and a dead peer needs none, so a failed send loses nothing. */
void
poke(int fd)
{
    const char byte = 0;
    [[maybe_unused]] const ::ssize_t n = ::send(fd, &byte, 1, MSG_NOSIGNAL);
}

/** Empty a nonblocking channel; false once its peer has closed it. */
bool
drainChannel(int fd)
{
    char buf[256];
    for (;;) {
        const ::ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n > 0 || (n < 0 && errno == EINTR))
            continue;
        return n < 0 && errno == EAGAIN;
    }
}

/** Where this process starts its shard scans, in [0, n): a
 *  multiplicative hash of its host and pid, so workers forked one
 *  after another (consecutive pids) start far apart. */
std::size_t
scanOffset(std::size_t n)
{
    const std::uint64_t id = shardIdHash(spoolHostName()) +
                             static_cast<std::uint64_t>(::getpid());
    const std::uint64_t z = id * 0x9e3779b97f4a7c15ull;
    return static_cast<std::size_t>(((z >> 32) * n) >> 32);
}

/**
 * spoolWorkerStep(), sending a byte to `notify` (the broker's channel,
 * for a forked worker; -1 for none) after each record it writes.
 */
bool workShard(Spool &spool, const std::vector<std::string> &cellKeys,
               const ProcJobFn &fn, const SpoolWorkerOptions &opt,
               int notify);

/**
 * Body of a worker the broker forked: run shards until EOF on `wake`
 * says the campaign is over, or the broker is gone, then _exit. It
 * arms no file watches: the broker pokes `wake` when a shard turns
 * claimable, and this worker pokes `notify` after each record.
 */
[[noreturn]] void runLocalWorker(const std::string &root,
                                 const std::vector<std::string> &cellKeys,
                                 const ProcJobFn &fn,
                                 const SpoolWorkerOptions &opt, int wake,
                                 int notify);

} // namespace

std::vector<RunResult>
runSpoolBroker(const std::string &campaignJson,
               const std::string &fingerprint,
               const std::vector<std::string> &cellKeys,
               const BrokerOptions &opt, const ProcJobFn &fn,
               const ProcResultFn &onResult, const BrokerLookupFn &lookup)
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

    // Adopt existing shards (broker restart).
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

    std::set<std::string> retired;
    StreamScanner scanner(spool);
    // Local workers are forked here and wake this loop through pidfds
    // and the `records` channel. File watches are armed only when a
    // worker this broker did not fork can exist, before the scan that
    // must see its writes.
    SpoolWaiter waiter;
    const bool forking = opt.workers > 0 && fn;
    if (!forking)
        waiter.watchFiles(opt.spool);
    // The channel every forked worker pokes after each record; end 0
    // wakes the loop below.
    Channel records;
    if (forking) {
        if (!openChannel(records.fd))
            throw SimError(std::string("spool record channel: ") +
                               std::strerror(errno),
                           {"broker", opt.spool, ""});
        waiter.watchFd(records.fd[0]);
    }
    SpoolWorkerOptions wopt;
    wopt.leaseTtl = opt.leaseTtl;
    wopt.fingerprint = fingerprint;
    std::vector<LocalWorker> children;
    std::set<pid_t> deadChildren;
    // Local pids ever seen holding a lease. A child that dies without
    // one (a broken spool, resource exhaustion) died before claiming;
    // a streak of those means respawning is a fork storm, not
    // capacity.
    std::set<pid_t> claimedPids;
    std::vector<std::pair<pid_t, int>> freshDeaths; // pid, wait status
    unsigned preClaimStreak = 0;
    std::string lastPreClaimExit;
    bool spawnBroken = false;
    double lastProgress = 0.0; // while spawnBroken: last lease or merge
    const std::string myHost = spoolHostName();

    const auto isChild = [&](pid_t pid) {
        return std::any_of(children.begin(), children.end(),
                           [&](const LocalWorker &c) { return c.pid == pid; });
    };
    const auto pokeChildren = [&]() {
        for (const LocalWorker &c : children)
            poke(c.wake);
    };
    const auto reapChildren = [&](bool block) {
        for (auto it = children.begin(); it != children.end();) {
            int status = 0;
            const pid_t r = ::waitpid(it->pid, &status, block ? 0 : WNOHANG);
            if (r == it->pid || (r < 0 && errno != EINTR)) {
                // Remember the corpse: a lease this pid holds can be
                // reclaimed immediately instead of waiting out its
                // deadline (local children only — remote worker
                // deaths are visible through lease expiry alone).
                deadChildren.insert(it->pid);
                freshDeaths.emplace_back(it->pid, status);
                waiter.forgetChild(it->pid);
                if (it->wake >= 0)
                    ::close(it->wake);
                it = children.erase(it);
            } else {
                ++it;
            }
        }
    };
    const auto killChildren = [&]() {
        for (const LocalWorker &c : children)
            ::kill(c.pid, SIGKILL);
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

    // True when local process `pid` holds an unexpired lease on a
    // shard not yet retired.
    const auto holdsLiveLease = [&](pid_t pid, double now) {
        return std::any_of(shards.begin(), shards.end(), [&](const auto &kv) {
            Lease l;
            return !retired.count(kv.first) &&
                   spool.readLease(kv.first, kv.second.token, l) &&
                   l.host == myHost && l.pid == pid && l.deadline > now;
        });
    };

    // The reclamation ladder for a shard whose worker is presumed
    // dead: salvage what its stream already holds, fence the worker
    // off by bumping the token (durably, before the shard can be
    // re-claimed), then pace the retry with a broker-owned backoff
    // lease — or exhaust the budget and quarantine. The republished
    // shard carries only the cells still unresolved, so a retry never
    // simulates a streamed cell again; a broker restart resolves the
    // dropped ones by salvaging the superseded streams.
    const auto reclaimShard = [&](ShardSpec &s,
                                  const std::string &why) {
        std::vector<SpoolRecord> recs;
        scanner.poll(s.id, s.token, recs);
        for (const SpoolRecord &rec : recs)
            mergeRecord(rec, s.token);
        scanner.forget(s.id);
        s.cells.erase(std::remove_if(s.cells.begin(), s.cells.end(),
                                     [&](std::uint64_t c) {
                                         return c < n && resolved[c];
                                     }),
                      s.cells.end());

        s.attemptLog.push_back("attempt " +
                               std::to_string(s.attempt + 1) + ": " +
                               why);
        s.attempt += 1;
        s.token += 1;

        const bool done = s.cells.empty();
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

    // Keep local worker capacity up: crashed workers respawn while work
    // remains, never more of them than shards a worker can still
    // claim. After a pre-claim death, one unproven child at a time,
    // so a worker that cannot start costs three forks, not three
    // rounds. A child runs the cells from this process's memory and
    // closes every descriptor of the broker's it inherited: without
    // the broker's ends of its siblings' wake channels, each child
    // sees EOF on its own once the broker closes its end.
    const auto topUpWorkers = [&]() {
        const std::size_t open = static_cast<std::size_t>(
            std::count_if(shards.begin(), shards.end(), [&](const auto &kv) {
                return !retired.count(kv.first) &&
                       !allCellsResolved(kv.second);
            }));
        while (forking && children.size() < std::min<std::size_t>(
                                                opt.workers, open)) {
            if (preClaimStreak > 0 &&
                std::any_of(children.begin(), children.end(),
                            [&](const LocalWorker &c) {
                                return !claimedPids.count(c.pid);
                            }))
                break;
            TracePump::requireNoProducers("broker");
            int wake[2];
            if (!openChannel(wake))
                break;
            std::fflush(nullptr);
            const pid_t pid = ::fork();
            if (pid == 0) {
                waiter.closeInChild();
                for (const LocalWorker &c : children)
                    ::close(c.wake);
                ::close(wake[1]);
                ::close(records.fd[0]);
                runLocalWorker(opt.spool, cellKeys, fn, wopt, wake[0],
                               records.fd[1]);
            }
            ::close(wake[0]);
            if (pid < 0) {
                ::close(wake[1]);
                break;
            }
            children.push_back({pid, wake[1]});
            waiter.watchChild(pid);
            // The OS may recycle pids.
            deadChildren.erase(pid);
            claimedPids.erase(pid);
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
        // Shards for unresolved cells no shard covers yet, published
        // below.
        std::vector<std::string> fresh;
        {
            ShardSpec next;
            const std::size_t chunk =
                std::max<std::size_t>(1, opt.shardSize);
            const auto flush = [&]() {
                if (next.cells.empty())
                    return;
                char idbuf[24];
                std::snprintf(idbuf, sizeof(idbuf), "s%06zu",
                              shardSeq++);
                next.id = idbuf;
                next.fingerprint = fingerprint;
                next.token = 1;
                next.attempt = 0;
                next.budget = budget;
                fresh.push_back(next.id);
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
        // Fork before publishing: the children start claiming the
        // first shard while the broker still publishes the rest, each
        // publish poking one of them to rescan.
        if (remaining > 0)
            topUpWorkers();
        for (std::size_t k = 0; k < fresh.size(); ++k) {
            spool.publishShard(shards.at(fresh[k]));
            // One child per new shard, in turn: poking all of them
            // would send every idle child after the same shard.
            if (!children.empty())
                poke(children[k % children.size()].wake);
        }

        while (remaining > 0) {
            waiter.drain();
            if (records.fd[0] >= 0)
                drainChannel(records.fd[0]);
            const double now = spoolWallClock();
            // pollInterval is only the ceiling for writers nothing
            // wakes this loop for; the scan pulls the wake in to the
            // nearest deadline it passes.
            double wake = now + opt.pollInterval;
            const std::size_t unresolved = remaining;
            bool leaseHeld = false;
            bool stranger = false; // a lease holder this broker did not fork

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
                        pokeChildren();
                    } else {
                        wake = std::min(wake, leaseMtime + opt.leaseTtl);
                    }
                    continue;
                }
                if (lease.host == kBackoffHost) {
                    if (lease.deadline <= now) {
                        spool.breakLease(s.id,
                                         s.token); // backoff served
                        pokeChildren();
                    } else {
                        wake = std::min(wake, lease.deadline);
                    }
                    continue;
                }
                leaseHeld = true;
                const pid_t holder = static_cast<pid_t>(lease.pid);
                const bool mine = lease.host == myHost &&
                                  (isChild(holder) ||
                                   deadChildren.count(holder));
                stranger = stranger || !mine;
                if (mine)
                    claimedPids.insert(holder);
                if (mine && deadChildren.count(holder)) {
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
                    // process slot forever — unless it holds a live
                    // lease elsewhere: then this lease was kept on a
                    // finished shard whose stream lacks a cell, and
                    // its holder is busy on another shard.
                    std::string why =
                        "lease expired (token " +
                        std::to_string(lease.token) + ", pid " +
                        std::to_string(lease.pid) + " on " +
                        lease.host + ", ttl " + fmtSecs(opt.leaseTtl) +
                        "s)";
                    if (mine && !holdsLiveLease(holder, now)) {
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
                        "spool campaign stalled: " +
                            std::to_string(preClaimStreak) +
                            " local workers in a row exited before "
                            "claiming a shard (last: " +
                            lastPreClaimExit +
                            ") and no worker held a lease for " +
                            fmtSecs(opt.leaseTtl) + "s",
                        {"broker", opt.spool, ""});
                wake = std::min(wake, lastProgress + opt.leaseTtl);
                stranger = true;
            } else {
                topUpWorkers();
            }

            if (stranger && !waiter.watchingFiles()) {
                // Workers this broker did not fork write here too:
                // watch the files from now on, then rescan at once so
                // nothing they wrote before the watches is missed.
                waiter.watchFiles(opt.spool);
                continue;
            }
            waiter.wait(wake);
        }
    } catch (...) {
        killChildren();
        throw;
    }

    // Campaign over: the complete marker sends hand-started workers
    // home, and closing the wake channels sends the forked ones.
    // Stragglers are reaped the hard way after a short grace. From
    // here only child exits matter, so the file watches go now and
    // their teardown runs while the workers exit.
    spool.markComplete();
    for (LocalWorker &c : children) {
        ::close(c.wake);
        c.wake = -1;
    }
    waiter.dropFileWatches();
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

namespace
{

bool
workShard(Spool &spool, const std::vector<std::string> &cellKeys,
          const ProcJobFn &fn, const SpoolWorkerOptions &opt, int notify)
{
    const std::vector<std::string> ids = spool.listShardIds();
    const std::size_t first = scanOffset(ids.size());
    for (std::size_t k = 0; k < ids.size(); ++k) {
        const std::string &id = ids[(first + k) % ids.size()];
        ShardSpec s;
        if (!spool.readShard(id, s))
            continue;
        if (s.attempt >= s.budget)
            continue; // exhausted: the broker is quarantining it
        if (s.cells.empty())
            continue; // reclaimed after streaming every cell: retired
        if (!opt.fingerprint.empty() &&
            s.fingerprint != opt.fingerprint)
            continue; // config skew: not our campaign build
        Lease existing;
        if (spool.probeLease(id, s.token, existing) !=
            LeaseProbe::Absent)
            continue; // held (a worker's, kept once it finished the
                      // shard; broker backoff pacing; or a corrupt
                      // lease the broker will heal)
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
                // global cell index.
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

                RunResult r;
                try {
                    r = fn(static_cast<std::size_t>(cell));
                } catch (const Error &e) {
                    r.error = RunError::from(e);
                } catch (const std::exception &e) {
                    r.error = RunError::from(e);
                }
                rec.runJson = runToFlatJson(r);

                if (!out.append(rec)) {
                    streamedAll = false;
                    break;
                }
                if (notify >= 0)
                    poke(notify);
            }
        }
        JobWatchdog::progressHook({}, 0.2);

        // A shard streamed whole keeps its lease: held at this token,
        // it makes every worker skip the shard, and the broker retires
        // the shard on its stream alone. A fenced-off lease is not ours
        // to touch. Otherwise (I/O failure, foreign cell index) release
        // it and let the broker's ladder decide.
        if (!streamedAll && !lost)
            spool.releaseLease(lease);
        return true;
    }
    return false;
}

[[noreturn]] void
runLocalWorker(const std::string &root,
               const std::vector<std::string> &cellKeys,
               const ProcJobFn &fn, const SpoolWorkerOptions &opt,
               int wake, int notify)
{
    // Fault site (common/fault.hh): a worker that dies before its
    // first claim, as one that cannot start would.
    if (faultInjected("worker-start"))
        ::_exit(3);
    int code = 0;
    try {
        Spool spool(root);
        SpoolWaiter waiter;
        waiter.watchFd(wake);
        while (drainChannel(wake))
            if (!workShard(spool, cellKeys, fn, opt, notify))
                waiter.wait(spoolWallClock() + opt.idlePoll);
    } catch (const std::exception &e) {
        warn(std::string("spool worker: ") + e.what());
        code = 3;
    } catch (...) {
        code = 3;
    }
    std::fflush(nullptr);
    ::_exit(code);
}

} // namespace

bool
spoolWorkerStep(Spool &spool, const std::vector<std::string> &cellKeys,
                const ProcJobFn &fn, const SpoolWorkerOptions &opt)
{
    return workShard(spool, cellKeys, fn, opt, -1);
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
