/**
 * @file
 * Spool broker tests: restart-from-spool merging, duplicate-completion
 * idempotency, lease fencing against stale workers, adoption-time
 * salvage of superseded streams, baseline memoization, quarantine
 * provenance for exhausted shards, the pre-claim respawn guard, and
 * the event wake-ups of the spool's wait loops.
 *
 * Every test drives the real on-disk protocol (src/sim/shard_queue.hh)
 * under a private spool directory; the fencing test runs a live broker
 * on a second thread against a deliberately misbehaving "worker" on
 * this one.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hh"
#include "common/json.hh"
#include "sim/broker.hh"
#include "sim/shard_queue.hh"
#include "sim/sink.hh"
#include "sim/spool_wait.hh"

#include <sys/wait.h>
#include <unistd.h>

namespace pinte
{
namespace
{

constexpr const char *kDoc = "{\"campaign\": \"broker-test\"}";
constexpr const char *kFp = "test-fingerprint";

/** Fresh private spool directory for one test. */
std::string
freshSpool(const std::string &tag)
{
    const std::string root = ::testing::TempDir() + "pinte_spool_" + tag;
    std::filesystem::remove_all(root);
    return root;
}

/** A fast synthetic job result whose identity encodes the cell. */
RunResult
syntheticResult(std::size_t i)
{
    RunResult r;
    r.workload = "synthetic.cell";
    r.contention = "cell@" + std::to_string(i);
    r.metrics.ipc = 1.0 + static_cast<double>(i);
    r.metrics.llcAccesses = 100 + i;
    r.metrics.llcMisses = i;
    r.cpuSeconds = 0.25;
    return r;
}

std::vector<std::string>
syntheticKeys(std::size_t n)
{
    std::vector<std::string> keys;
    for (std::size_t i = 0; i < n; ++i)
        keys.push_back("fp|cell@" + std::to_string(i));
    return keys;
}

/** The writeRunJson document a record or baseline carries. */
std::string
runJsonOf(const RunResult &r)
{
    std::ostringstream os;
    {
        JsonWriter w(os, 0);
        writeRunJson(w, r);
    }
    return os.str();
}

/** Serialized result with cpu_seconds zeroed: bitwise comparison. */
std::string
canonical(RunResult r)
{
    r.cpuSeconds = 0.0;
    return runJsonOf(r);
}

BrokerOptions
brokerOptions(const std::string &spool)
{
    BrokerOptions opt;
    opt.spool = spool;
    opt.workers = 0; // this test process plays the workers
    opt.pollInterval = 0.02;
    return opt;
}

SpoolWorkerOptions
workerOptions()
{
    SpoolWorkerOptions opt;
    opt.fingerprint = kFp;
    opt.idlePoll = 0.01;
    return opt;
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** Drain every claimable shard with `fn`, as an external worker. */
std::size_t
drainAsWorker(Spool &spool, const std::vector<std::string> &keys,
              const ProcJobFn &fn)
{
    std::size_t shards = 0;
    while (spoolWorkerStep(spool, keys, fn, workerOptions()))
        ++shards;
    return shards;
}

/**
 * A broker started over a spool whose shards all completed in a
 * previous life must merge the streamed records without executing
 * anything — the restart path a crashed broker's successor takes.
 */
TEST(Broker, CompletedSpoolMergesWithoutExecution)
{
    const std::string root = freshSpool("merge");
    const auto keys = syntheticKeys(3);

    std::atomic<std::size_t> calls{0};
    const ProcJobFn fn = [&](std::size_t i) {
        ++calls;
        return syntheticResult(i);
    };

    {
        Spool spool(root);
        spool.writeCampaign(kDoc);
        ShardSpec s;
        s.id = "s000000";
        s.fingerprint = kFp;
        s.budget = 2;
        s.cells = {0, 1};
        spool.publishShard(s);
        s.id = "s000001";
        s.cells = {2};
        spool.publishShard(s);
        EXPECT_EQ(drainAsWorker(spool, keys, fn), 2u);
    }
    EXPECT_EQ(calls.load(), 3u);

    const auto results =
        runSpoolBroker(kDoc, kFp, keys, brokerOptions(root));
    ASSERT_EQ(results.size(), 3u);
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_FALSE(results[i].failed()) << results[i].error.message;
        EXPECT_EQ(canonical(results[i]), canonical(syntheticResult(i)));
    }
    // Merged from the spool alone: no cell ran a second time.
    EXPECT_EQ(calls.load(), 3u);
    EXPECT_TRUE(Spool(root).complete());
}

/**
 * Two completion records for the same cell (a worker that crashed
 * after streaming, was retried, and both streams survive) must merge
 * first-wins: replaying a stream is idempotent.
 */
TEST(Broker, DuplicateCompletionIsIdempotent)
{
    const std::string root = freshSpool("dup");
    const auto keys = syntheticKeys(1);

    Spool spool(root);
    spool.writeCampaign(kDoc);
    ShardSpec s;
    s.id = "s000000";
    s.fingerprint = kFp;
    s.cells = {0};
    spool.publishShard(s);

    RunResult poison = syntheticResult(0);
    poison.metrics.ipc = 999.0;
    {
        ResultAppender out(spool, s.id, s.token);
        SpoolRecord rec;
        rec.cell = 0;
        rec.token = s.token;
        rec.key = keys[0];
        rec.runJson = runJsonOf(syntheticResult(0));
        ASSERT_TRUE(out.append(rec));
        rec.runJson = runJsonOf(poison); // duplicate, must lose
        ASSERT_TRUE(out.append(rec));
    }
    spool.markDone(s.id, s.token);

    const auto results =
        runSpoolBroker(kDoc, kFp, keys, brokerOptions(root));
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].failed());
    EXPECT_EQ(canonical(results[0]), canonical(syntheticResult(0)));
}

/**
 * Records written under a superseded token must still merge when a
 * broker adopts the spool: a broker killed right after a token bump
 * left good records only the old stream holds. The journal key, not
 * stream liveness, guards record identity.
 */
TEST(Broker, AdoptionSalvagesSupersededStreams)
{
    const std::string root = freshSpool("salvage");
    const auto keys = syntheticKeys(1);

    Spool spool(root);
    spool.writeCampaign(kDoc);
    ShardSpec s;
    s.id = "s000000";
    s.fingerprint = kFp;
    s.token = 2; // already reclaimed once
    s.attempt = 1;
    s.budget = 3;
    s.cells = {0};
    s.attemptLog = {"attempt 1: lease expired"};
    spool.publishShard(s);
    {
        ResultAppender out(spool, s.id, /*token=*/1); // the old stream
        SpoolRecord rec;
        rec.cell = 0;
        rec.token = 1;
        rec.key = keys[0];
        rec.runJson = runJsonOf(syntheticResult(0));
        ASSERT_TRUE(out.append(rec));
    }
    // No done marker: only adoption-time salvage can resolve this.

    const auto results =
        runSpoolBroker(kDoc, kFp, keys, brokerOptions(root));
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].failed()) << results[0].error.message;
    EXPECT_EQ(canonical(results[0]), canonical(syntheticResult(0)));
}

/**
 * Lease fencing, live: a worker that claims a shard, stalls past the
 * lease TTL, and then completes anyway must not corrupt the campaign.
 * Its post-reclamation record and done marker carry the superseded
 * token and are ignored; the retried execution's data wins, bitwise.
 */
TEST(Broker, StaleWorkerIsFencedAfterReclamation)
{
    const std::string root = freshSpool("fence");
    const auto keys = syntheticKeys(1);

    BrokerOptions opt = brokerOptions(root);
    opt.maxRetries = 2;
    opt.backoffBase = 0.01;
    opt.leaseTtl = 0.2;

    std::vector<RunResult> results;
    std::thread broker([&] {
        results = runSpoolBroker(kDoc, kFp, keys, opt);
    });

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    const auto waitFor = [&](const char *what, auto pred) {
        while (!pred()) {
            ASSERT_LT(std::chrono::steady_clock::now(), deadline)
                << "timed out waiting for " << what;
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
    };

    Spool spool(root);
    ShardSpec s;
    waitFor("the shard to publish", [&] {
        const auto ids = spool.listShardIds();
        return !ids.empty() && spool.readShard(ids.front(), s);
    });
    if (::testing::Test::HasFatalFailure()) {
        broker.join();
        return;
    }
    ASSERT_EQ(s.token, 1u);

    // Claim the shard as a worker that then never renews. The short
    // deadline expires and the broker's ladder bumps the token.
    Lease lease;
    ASSERT_TRUE(spool.claimLease(s, /*ttl=*/0.2, lease));
    waitFor("lease reclamation", [&] {
        return spool.readShard(s.id, s) && s.token >= 2;
    });
    if (::testing::Test::HasFatalFailure()) {
        broker.join();
        return;
    }

    // The stale worker wakes up and "finishes" with poisoned data
    // under its superseded token: record and done marker must both be
    // fenced off by the token checks.
    RunResult poison = syntheticResult(0);
    poison.metrics.ipc = 999.0;
    {
        ResultAppender out(spool, s.id, /*token=*/1);
        SpoolRecord rec;
        rec.cell = 0;
        rec.token = 1;
        rec.key = keys[0];
        rec.runJson = runJsonOf(poison);
        ASSERT_TRUE(out.append(rec));
    }
    spool.markDone(s.id, /*token=*/1);

    // A healthy worker picks the shard up at the bumped token (once
    // the broker breaks the expired backoff lease) and completes.
    std::atomic<std::size_t> calls{0};
    const ProcJobFn fn = [&](std::size_t i) {
        ++calls;
        return syntheticResult(i);
    };
    waitFor("the retried execution", [&] {
        spoolWorkerStep(spool, keys, fn, workerOptions());
        return spool.complete();
    });
    broker.join();

    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].failed()) << results[0].error.message;
    EXPECT_EQ(calls.load(), 1u);
    // The stale worker's 999.0 never reached the merged campaign.
    EXPECT_EQ(canonical(results[0]), canonical(syntheticResult(0)));
}

/**
 * A shard adopted with its retry budget already exhausted quarantines
 * immediately, carrying full spool provenance: shard id, the fencing
 * token the shard held, and the verbatim attempt ladder.
 */
TEST(Broker, ExhaustedShardQuarantinesWithProvenance)
{
    const std::string root = freshSpool("quarantine");
    const auto keys = syntheticKeys(1);

    Spool spool(root);
    spool.writeCampaign(kDoc);
    ShardSpec s;
    s.id = "s000000";
    s.fingerprint = kFp;
    s.token = 3;
    s.attempt = 2;
    s.budget = 2;
    s.cells = {0};
    s.attemptLog = {"attempt 1: lease expired (token 1, pid 1 on x, "
                    "ttl 30s)",
                    "attempt 2: worker exited (token 2, pid 2 on x)"};
    spool.publishShard(s);

    BrokerOptions opt = brokerOptions(root);
    opt.maxRetries = 2;
    const auto results = runSpoolBroker(kDoc, kFp, keys, opt);
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].failed());
    const RunError &e = results[0].error;
    EXPECT_EQ(e.kind, "worker");
    EXPECT_EQ(e.component, "broker");
    EXPECT_EQ(e.shard, "s000000");
    EXPECT_EQ(e.fencingToken, 3u);
    EXPECT_EQ(e.attempts, 2u);
    ASSERT_EQ(e.attemptLog.size(), 2u);
    EXPECT_EQ(e.attemptLog[0], s.attemptLog[0]);
    EXPECT_EQ(e.attemptLog[1], s.attemptLog[1]);
}

/**
 * A cell whose journal key already has a content-addressed baseline
 * in the spool is served from it: the worker streams the memoized
 * document without calling the job function at all.
 */
TEST(Broker, BaselineMemoShortCircuitsExecution)
{
    const std::string root = freshSpool("memo");
    const auto keys = syntheticKeys(1);

    Spool spool(root);
    spool.writeCampaign(kDoc);
    spool.storeBaseline(keys[0], runJsonOf(syntheticResult(0)));
    ShardSpec s;
    s.id = "s000000";
    s.fingerprint = kFp;
    s.cells = {0};
    spool.publishShard(s);

    std::atomic<std::size_t> calls{0};
    const ProcJobFn fn = [&](std::size_t i) {
        ++calls;
        return syntheticResult(i);
    };
    EXPECT_EQ(drainAsWorker(spool, keys, fn), 1u);
    EXPECT_EQ(calls.load(), 0u);

    const auto results =
        runSpoolBroker(kDoc, kFp, keys, brokerOptions(root));
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].failed());
    EXPECT_EQ(canonical(results[0]), canonical(syntheticResult(0)));
}

/**
 * Config-skew fencing: a worker configured with a different machine
 * fingerprint must refuse a shard rather than stream incomparable
 * results into the campaign.
 */
TEST(Broker, WorkerRefusesForeignFingerprint)
{
    const std::string root = freshSpool("skew");
    const auto keys = syntheticKeys(1);

    Spool spool(root);
    spool.writeCampaign(kDoc);
    ShardSpec s;
    s.id = "s000000";
    s.fingerprint = "some-other-machine";
    s.cells = {0};
    spool.publishShard(s);

    const ProcJobFn fn = [](std::size_t i) {
        return syntheticResult(i);
    };
    EXPECT_FALSE(spoolWorkerStep(spool, keys, fn, workerOptions()));
    Lease l;
    EXPECT_FALSE(spool.readLease(s.id, s.token, l));
}

/**
 * A lease file that exists but does not parse (the shape a pre-atomic
 * claim protocol could leave behind a SIGKILL, now only operator
 * damage) must block claims — but probe as Corrupt, so the broker can
 * break it instead of waiting on a deadline it cannot read.
 */
TEST(Broker, CorruptLeaseBlocksClaimsUntilBroken)
{
    const std::string root = freshSpool("corrupt_lease");

    Spool spool(root);
    spool.writeCampaign(kDoc);
    ShardSpec s;
    s.id = "s000000";
    s.fingerprint = kFp;
    s.cells = {0};
    spool.publishShard(s);

    {
        std::ofstream torn(spool.leaseFile(s.id, s.token),
                           std::ios::binary);
        torn << "{\"schema\": \"pinte.spool.le"; // torn mid-write
    }
    Lease l;
    EXPECT_EQ(spool.probeLease(s.id, s.token, l),
              LeaseProbe::Corrupt);
    EXPECT_FALSE(spool.claimLease(s, /*ttl=*/1.0, l));

    spool.breakLease(s.id, s.token);
    EXPECT_EQ(spool.probeLease(s.id, s.token, l), LeaseProbe::Absent);
    EXPECT_TRUE(spool.claimLease(s, /*ttl=*/1.0, l));
    EXPECT_EQ(spool.probeLease(s.id, s.token, l), LeaseProbe::Valid);
}

/**
 * A live broker adopting a spool whose shard is wedged under a
 * corrupt lease must break it after the TTL grace and let a healthy
 * worker complete the campaign — a corrupt lease is a delay, never a
 * hang.
 */
TEST(Broker, BrokerHealsCorruptLeaseAfterGrace)
{
    const std::string root = freshSpool("heal_lease");
    const auto keys = syntheticKeys(1);

    {
        Spool spool(root);
        spool.writeCampaign(kDoc);
        ShardSpec s;
        s.id = "s000000";
        s.fingerprint = kFp;
        s.cells = {0};
        spool.publishShard(s);
        std::ofstream torn(spool.leaseFile(s.id, s.token),
                           std::ios::binary);
        torn << "not a lease";
    }

    BrokerOptions opt = brokerOptions(root);
    opt.leaseTtl = 0.2;
    std::vector<RunResult> results;
    std::thread broker([&] {
        results = runSpoolBroker(kDoc, kFp, keys, opt);
    });

    std::atomic<std::size_t> calls{0};
    const ProcJobFn fn = [&](std::size_t i) {
        ++calls;
        return syntheticResult(i);
    };
    Spool spool(root);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!spool.complete() &&
           std::chrono::steady_clock::now() < deadline) {
        spoolWorkerStep(spool, keys, fn, workerOptions());
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_TRUE(spool.complete())
        << "broker never healed the corrupt lease";
    broker.join();

    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].failed()) << results[0].error.message;
    EXPECT_EQ(calls.load(), 1u);
    EXPECT_EQ(canonical(results[0]), canonical(syntheticResult(0)));
}

/**
 * A shard or lease whose numbers are negative, fractional or too wide
 * for their field reads as damage (unreadable shard, corrupt lease),
 * never as an exception that would take the broker down.
 */
TEST(Broker, OutOfRangeNumbersReadAsDamage)
{
    const std::string root = freshSpool("bad_numbers");
    Spool spool(root);
    ShardSpec s;
    s.id = "s000000";
    s.fingerprint = kFp;
    s.cells = {0};
    for (const char *bad : {"-1", "0.5", "4294967296"}) {
        std::string json = shardToJson(s);
        const std::string field = "\"attempt\": 0";
        json.replace(json.find(field), field.size(),
                     std::string("\"attempt\": ") + bad);
        ShardSpec out;
        EXPECT_FALSE(shardFromJson(json, out)) << json;

        std::ofstream(spool.leaseFile(s.id, 1), std::ios::trunc)
            << "{\"shard\": \"s000000\", \"token\": " << bad
            << ", \"pid\": 1, \"host\": \"h\", \"deadline\": 1}";
        Lease lease;
        EXPECT_EQ(spool.probeLease(s.id, 1, lease), LeaseProbe::Corrupt)
            << bad;
    }
}

/**
 * Token-named lease files make renewal fencing structural: a stale
 * owner renewing after its shard was reclaimed must fail without
 * touching the bumped token's lease (the broker's backoff pacing),
 * and must not leave a resurrected file at the superseded path.
 */
TEST(Broker, StaleRenewalCannotClobberNewerTokenLease)
{
    const std::string root = freshSpool("renew_fence");

    Spool spool(root);
    spool.writeCampaign(kDoc);
    ShardSpec s;
    s.id = "s000000";
    s.fingerprint = kFp;
    s.cells = {0};
    spool.publishShard(s);

    Lease stale;
    ASSERT_TRUE(spool.claimLease(s, /*ttl=*/10.0, stale));

    // Broker-side reclamation by hand: backoff lease staged at the
    // new token, shard republished, old-token litter swept.
    ShardSpec bumped = s;
    bumped.token = 2;
    bumped.attempt = 1;
    Lease pause;
    pause.shard = s.id;
    pause.token = 2;
    pause.pid = 0;
    pause.host = "!backoff";
    pause.deadline = spoolWallClock() + 3600.0;
    spool.imposeLease(pause);
    spool.publishShard(bumped);
    spool.sweepStaleLeases(s.id, 2);

    EXPECT_FALSE(spool.renewLease(stale, /*ttl=*/10.0));

    Lease cur;
    ASSERT_TRUE(spool.readLease(s.id, 2, cur));
    EXPECT_EQ(cur.host, "!backoff");
    EXPECT_EQ(cur.deadline, pause.deadline); // pacing untouched
    Lease gone;
    EXPECT_EQ(spool.probeLease(s.id, 1, gone), LeaseProbe::Absent);
}

/**
 * A broker whose local worker argv cannot exec (children die
 * instantly with 127) must stop respawning instead of fork-storming,
 * and the campaign must still complete through external workers.
 */
TEST(Broker, UnexecableWorkerArgvDoesNotStallCampaign)
{
    const std::string root = freshSpool("exec_fail");
    const auto keys = syntheticKeys(2);

    BrokerOptions opt = brokerOptions(root);
    opt.workers = 2;
    opt.workerArgv = {"/nonexistent/pinte-no-such-binary", "--worker"};

    std::vector<RunResult> results;
    std::thread broker([&] {
        results = runSpoolBroker(kDoc, kFp, keys, opt);
    });

    std::atomic<std::size_t> calls{0};
    const ProcJobFn fn = [&](std::size_t i) {
        ++calls;
        return syntheticResult(i);
    };
    Spool spool(root);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!spool.complete() &&
           std::chrono::steady_clock::now() < deadline) {
        spoolWorkerStep(spool, keys, fn, workerOptions());
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_TRUE(spool.complete())
        << "campaign stalled behind exec-failing local workers";
    broker.join();

    ASSERT_EQ(results.size(), 2u);
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_FALSE(results[i].failed()) << results[i].error.message;
        EXPECT_EQ(canonical(results[i]), canonical(syntheticResult(i)));
    }
}

/**
 * Local children that die before they are ever seen holding a lease
 * (here: every one exits 3 at once, as a config-skewed worker would)
 * stop the respawning after three, and with no external worker to
 * carry the campaign it fails with a ConfigError quoting the exit
 * status instead of stalling silently.
 */
TEST(Broker, PreClaimDeathsStopRespawningAndFailLoudly)
{
    const std::string root = freshSpool("preclaim");
    const std::string spawnLog = root + ".spawns";
    std::filesystem::remove(spawnLog);
    const auto keys = syntheticKeys(2);

    BrokerOptions opt = brokerOptions(root);
    opt.workers = 2;
    opt.leaseTtl = 0.5;
    opt.workerArgv = {"/bin/sh", "-c",
                      "echo spawned >> '" + spawnLog + "'; exit 3"};

    const auto t0 = std::chrono::steady_clock::now();
    std::string what;
    try {
        runSpoolBroker(kDoc, kFp, keys, opt);
    } catch (const ConfigError &e) {
        what = e.what();
    }
    const double secs = secondsSince(t0);
    ASSERT_FALSE(what.empty()) << "the campaign did not fail";
    EXPECT_NE(what.find("exit status 3"), std::string::npos) << what;
    EXPECT_LT(secs, 10.0);

    std::ifstream log(spawnLog);
    std::size_t spawns = 0;
    for (std::string line; std::getline(log, line);)
        ++spawns;
    EXPECT_EQ(spawns, 3u);
}

/**
 * With both fallback ceilings at 30 s, a broker and an external
 * same-host worker still finish a 4-cell campaign in well under a
 * second: every wake comes from a file event (shard published, lease
 * claimed, record appended, complete marker), none from a timer. A
 * timer-only loop would need at least 30 s.
 */
TEST(Broker, WakesOnEventsNotTimers)
{
    const std::string root = freshSpool("events");
    const auto keys = syntheticKeys(4);

    BrokerOptions opt = brokerOptions(root);
    opt.pollInterval = 30.0;
    SpoolWorkerOptions wopt = workerOptions();
    wopt.idlePoll = 30.0;

    std::atomic<std::size_t> calls{0};
    const ProcJobFn fn = [&](std::size_t i) {
        ++calls;
        return syntheticResult(i);
    };
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<RunResult> results;
    std::thread broker([&] {
        results = runSpoolBroker(kDoc, kFp, keys, opt);
    });
    std::thread worker([&] { runSpoolWorker(root, keys, fn, wopt); });
    broker.join();
    worker.join();
    const double secs = secondsSince(t0);

    EXPECT_LT(secs, 5.0);
    EXPECT_EQ(calls.load(), 4u);
    ASSERT_EQ(results.size(), 4u);
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_FALSE(results[i].failed()) << results[i].error.message;
        EXPECT_EQ(canonical(results[i]), canonical(syntheticResult(i)));
    }
}

TEST(SpoolWaiter, FileEventEndsTheWait)
{
    const std::string root = freshSpool("wait_file");
    Spool spool(root);
    SpoolWaiter waiter(root);
    std::thread writer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        spool.markComplete();
    });
    const auto t0 = std::chrono::steady_clock::now();
    waiter.wait(spoolWallClock() + 30.0);
    writer.join();
    EXPECT_LT(secondsSince(t0), 5.0);
}

TEST(SpoolWaiter, ChildExitEndsTheWait)
{
    const std::string root = freshSpool("wait_child");
    Spool spool(root);
    SpoolWaiter waiter(root);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::usleep(50000);
        ::_exit(0);
    }
    waiter.watchChild(pid);
    const auto t0 = std::chrono::steady_clock::now();
    waiter.wait(spoolWallClock() + 30.0);
    EXPECT_LT(secondsSince(t0), 5.0);
    int status = 0;
    EXPECT_EQ(::waitpid(pid, &status, 0), pid);
    waiter.forgetChild(pid);
}

TEST(SpoolWaiter, DeadlineBoundsAQuietWait)
{
    const std::string root = freshSpool("wait_quiet");
    Spool spool(root);
    SpoolWaiter waiter(root);
    const auto t0 = std::chrono::steady_clock::now();
    waiter.wait(spoolWallClock() + 0.1);
    const double secs = secondsSince(t0);
    EXPECT_GE(secs, 0.09);
    EXPECT_LT(secs, 5.0);
}

/** A directory inotify cannot watch degrades to the timed sleep. */
TEST(SpoolWaiter, UnwatchableSpoolFallsBackToTheDeadline)
{
    SpoolWaiter waiter(freshSpool("wait_missing"));
    const auto t0 = std::chrono::steady_clock::now();
    waiter.wait(spoolWallClock() + 0.1);
    const double secs = secondsSince(t0);
    EXPECT_GE(secs, 0.09);
    EXPECT_LT(secs, 5.0);
}

} // namespace
} // namespace pinte
