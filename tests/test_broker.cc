/**
 * @file
 * Spool broker tests: restart-from-spool merging, duplicate-completion
 * idempotency, lease fencing against stale workers, adoption-time
 * salvage of superseded streams, trimmed republishing of reclaimed
 * shards, rate-limited lease renewal, quarantine provenance for
 * exhausted shards, the pre-claim respawn guard over forked workers,
 * the descriptors a forked worker keeps, and the event wake-ups of
 * the spool's wait loops.
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
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hh"
#include "common/fault.hh"
#include "common/json.hh"
#include "sim/broker.hh"
#include "sim/shard_queue.hh"
#include "sim/sink.hh"
#include "sim/spool_wait.hh"
#include "sim/watchdog.hh"

#include <sys/stat.h>
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

/** The writeRunJson document a record carries. */
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
 * A worker that streamed every cell of a shard keeps its lease, and
 * that lease alone turns the next worker away: a second step over the
 * finished shard claims nothing, and no done marker is written.
 */
TEST(Broker, FinishedShardKeepsItsLease)
{
    const std::string root = freshSpool("kept_lease");
    const auto keys = syntheticKeys(3);

    std::atomic<std::size_t> calls{0};
    const ProcJobFn fn = [&](std::size_t i) {
        ++calls;
        return syntheticResult(i);
    };

    Spool spool(root);
    spool.writeCampaign(kDoc);
    ShardSpec s;
    s.id = "s000000";
    s.fingerprint = kFp;
    s.cells = {0, 1, 2};
    spool.publishShard(s);

    EXPECT_TRUE(spoolWorkerStep(spool, keys, fn, workerOptions()));
    EXPECT_FALSE(spoolWorkerStep(spool, keys, fn, workerOptions()));
    EXPECT_EQ(calls.load(), s.cells.size());

    Lease l;
    ASSERT_TRUE(spool.readLease(s.id, s.token, l));
    EXPECT_EQ(l.pid, static_cast<std::int64_t>(::getpid()));
    EXPECT_FALSE(std::filesystem::exists(root + "/done"));
}

/**
 * A finished shard whose stream later lost its last record (damage to
 * an fsync'd file) is reclaimed once its kept lease expires, and the
 * retry re-runs only the lost cell: the report equals a clean run's.
 */
TEST(Broker, DamagedStreamIsReclaimedOnLeaseExpiry)
{
    const std::string root = freshSpool("damaged_stream");
    const auto keys = syntheticKeys(3);

    BrokerOptions opt = brokerOptions(root);
    opt.maxRetries = 2;
    opt.backoffBase = 0.01;
    opt.leaseTtl = 0.3;
    SpoolWorkerOptions wopt = workerOptions();
    wopt.leaseTtl = opt.leaseTtl;

    std::vector<std::size_t> ran;
    const ProcJobFn fn = [&](std::size_t i) {
        ran.push_back(i);
        return syntheticResult(i);
    };

    Spool spool(root);
    spool.writeCampaign(kDoc);
    ShardSpec s;
    s.id = "s000000";
    s.fingerprint = kFp;
    s.budget = opt.maxRetries;
    s.cells = {0, 1, 2};
    spool.publishShard(s);
    ASSERT_TRUE(spoolWorkerStep(spool, keys, fn, wopt));
    ASSERT_EQ(ran.size(), 3u);

    // Cut the last record in half.
    const std::string stream = spool.resultFile(s.id, s.token);
    const auto size = std::filesystem::file_size(stream);
    std::vector<SpoolRecord> recs;
    StreamScanner(spool).poll(s.id, s.token, recs);
    ASSERT_EQ(recs.size(), 3u);
    const std::uint64_t last =
        encodeFrame(FrameType::Record, packRecord(recs.back())).size();
    std::filesystem::resize_file(stream, size - last / 2);

    std::vector<RunResult> results;
    std::thread broker([&] {
        results = runSpoolBroker(kDoc, kFp, keys, opt);
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!spool.complete() &&
           std::chrono::steady_clock::now() < deadline) {
        if (!spoolWorkerStep(spool, keys, fn, wopt))
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    broker.join();

    EXPECT_EQ(ran, (std::vector<std::size_t>{0, 1, 2, 2}));
    ASSERT_EQ(results.size(), 3u);
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_FALSE(results[i].failed()) << results[i].error.message;
        EXPECT_EQ(canonical(results[i]), canonical(syntheticResult(i)));
    }
    ASSERT_TRUE(spool.readShard(s.id, s));
    EXPECT_EQ(s.token, 2u);
    EXPECT_EQ(s.cells, (std::vector<std::uint64_t>{2}));
    ASSERT_EQ(s.attemptLog.size(), 1u);
    EXPECT_NE(s.attemptLog[0].find("lease expired"), std::string::npos)
        << s.attemptLog[0];
}

/**
 * A forked worker's kept lease can expire while the worker runs the
 * next shard (here the finished shard's record does not merge: a
 * non-finite metric is written as null). The broker reclaims the
 * finished shard without killing the busy worker, so the next shard
 * completes on its first attempt.
 */
TEST(Broker, ExpiredKeptLeaseSparesABusyWorker)
{
    const std::string root = freshSpool("kept_lease_busy");
    const auto keys = syntheticKeys(2);

    BrokerOptions opt = brokerOptions(root);
    opt.workers = 1;
    opt.leaseTtl = 0.5;
    const ProcJobFn fn = [&](std::size_t i) {
        RunResult r = syntheticResult(i);
        if (i == 0) {
            r.metrics.ipc = std::numeric_limits<double>::quiet_NaN();
            return r;
        }
        const auto t0 = std::chrono::steady_clock::now();
        for (std::uint64_t inst = 1; secondsSince(t0) < 1.5; ++inst) {
            JobWatchdog::heartbeat(inst);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return r;
    };
    const auto results = runSpoolBroker(kDoc, kFp, keys, opt, fn);

    ASSERT_EQ(results.size(), 2u);
    ASSERT_TRUE(results[0].failed());
    ASSERT_EQ(results[0].error.attemptLog.size(), 1u);
    EXPECT_NE(results[0].error.attemptLog[0].find("lease expired"),
              std::string::npos);
    EXPECT_EQ(results[0].error.attemptLog[0].find("worker killed"),
              std::string::npos)
        << results[0].error.attemptLog[0];
    EXPECT_FALSE(results[1].failed()) << results[1].error.message;
    EXPECT_EQ(canonical(results[1]), canonical(syntheticResult(1)));
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
    // The current token's stream is empty: only adoption-time salvage
    // can resolve this.

    const auto results =
        runSpoolBroker(kDoc, kFp, keys, brokerOptions(root));
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].failed()) << results[0].error.message;
    EXPECT_EQ(canonical(results[0]), canonical(syntheticResult(0)));
}

/**
 * Lease fencing, live: a worker that claims a shard, stalls past the
 * lease TTL, and then completes anyway must not corrupt the campaign.
 * Its post-reclamation record carries the superseded token and is
 * ignored; the retried execution's data wins, bitwise.
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
    // under its superseded token: the record must be fenced off by the
    // token checks.
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
 * A reclaimed shard is republished with only the cells its dead
 * worker did not stream: the retry runs exactly the missing cells,
 * and the campaign still equals a fault-free run's.
 */
TEST(Broker, ReclaimedShardCarriesOnlyUnresolvedCells)
{
    const std::string root = freshSpool("trim");
    const auto keys = syntheticKeys(3);

    BrokerOptions opt = brokerOptions(root);
    opt.shardSize = 3;
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
    ASSERT_EQ(s.cells, (std::vector<std::uint64_t>{0, 1, 2}));

    // A worker claims the shard, streams cell 0, then dies: its lease
    // is never renewed, so the broker reclaims the shard.
    Lease lease;
    ASSERT_TRUE(spool.claimLease(s, /*ttl=*/0.2, lease));
    {
        ResultAppender out(spool, s.id, s.token);
        SpoolRecord rec;
        rec.cell = 0;
        rec.token = s.token;
        rec.key = keys[0];
        rec.runJson = runJsonOf(syntheticResult(0));
        ASSERT_TRUE(out.append(rec));
    }
    waitFor("lease reclamation", [&] {
        return spool.readShard(s.id, s) && s.token >= 2;
    });
    if (::testing::Test::HasFatalFailure()) {
        broker.join();
        return;
    }
    EXPECT_EQ(s.cells, (std::vector<std::uint64_t>{1, 2}));

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

    EXPECT_EQ(calls.load(), 2u);
    ASSERT_EQ(results.size(), 3u);
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_FALSE(results[i].failed()) << results[i].error.message;
        EXPECT_EQ(canonical(results[i]), canonical(syntheticResult(i)));
    }
}

/**
 * A worker whose one cell makes progress for three lease TTLs keeps
 * its lease, although renewLease rewrites the file only once the
 * deadline has aged: the shard resolves on its first attempt.
 */
TEST(Broker, LongCellKeepsItsLease)
{
    const std::string root = freshSpool("long_cell");
    const auto keys = syntheticKeys(1);

    BrokerOptions opt = brokerOptions(root);
    opt.leaseTtl = 0.4;
    SpoolWorkerOptions wopt = workerOptions();
    wopt.leaseTtl = opt.leaseTtl;

    std::atomic<std::size_t> calls{0};
    const ProcJobFn fn = [&](std::size_t i) {
        ++calls;
        const auto t0 = std::chrono::steady_clock::now();
        for (std::uint64_t inst = 1; secondsSince(t0) < 1.2; ++inst) {
            JobWatchdog::heartbeat(inst);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return syntheticResult(i);
    };
    std::vector<RunResult> results;
    std::thread broker([&] {
        results = runSpoolBroker(kDoc, kFp, keys, opt);
    });
    std::thread worker([&] { runSpoolWorker(root, keys, fn, wopt); });
    broker.join();
    worker.join();

    EXPECT_EQ(calls.load(), 1u);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].failed()) << results[0].error.message;
    EXPECT_EQ(canonical(results[0]), canonical(syntheticResult(0)));
    Spool spool(root);
    ShardSpec s;
    ASSERT_TRUE(spool.readShard("s000000", s));
    EXPECT_EQ(s.token, 1u);
    EXPECT_TRUE(s.attemptLog.empty());
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

/** Shard numbers at the top of their ranges round-trip exactly. */
TEST(Broker, ShardNumbersRoundTripAtTheirLimits)
{
    ShardSpec s;
    s.id = "s000000";
    s.fingerprint = kFp;
    s.token = 0xffffffffu;
    s.attempt = 0xffffffffu;
    s.budget = 0xffffffffu;
    s.cells = {0xffffffffull, 18446744073709551615ull};
    ShardSpec back;
    ASSERT_TRUE(shardFromJson(shardToJson(s), back));
    EXPECT_EQ(back.token, s.token);
    EXPECT_EQ(back.attempt, s.attempt);
    EXPECT_EQ(back.budget, s.budget);
    EXPECT_EQ(back.cells, s.cells);
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

/** A lease still far from its deadline renews without a write. */
TEST(Spool, FreshLeaseRenewalWritesNothing)
{
    const std::string root = freshSpool("renew_fresh");

    Spool spool(root);
    ShardSpec s;
    s.id = "s000000";
    s.fingerprint = kFp;
    s.cells = {0};
    spool.publishShard(s);

    Lease lease;
    ASSERT_TRUE(spool.claimLease(s, /*ttl=*/10.0, lease));
    const std::string path = spool.leaseFile(s.id, s.token);
    struct stat before {};
    ASSERT_EQ(::stat(path.c_str(), &before), 0);

    EXPECT_TRUE(spool.renewLease(lease, /*ttl=*/10.0));
    struct stat after {};
    ASSERT_EQ(::stat(path.c_str(), &after), 0);
    EXPECT_EQ(after.st_ino, before.st_ino);
    EXPECT_EQ(after.st_mtim.tv_sec, before.st_mtim.tv_sec);
    EXPECT_EQ(after.st_mtim.tv_nsec, before.st_mtim.tv_nsec);

    // The fencing checks still run on every call.
    s.token = 2;
    spool.publishShard(s);
    EXPECT_FALSE(spool.renewLease(lease, /*ttl=*/10.0));
}

/** A lease less than 3/4 of a TTL from its deadline is rewritten. */
TEST(Spool, AgedLeaseIsRewritten)
{
    const std::string root = freshSpool("renew_aged");

    Spool spool(root);
    ShardSpec s;
    s.id = "s000000";
    s.fingerprint = kFp;
    s.cells = {0};
    spool.publishShard(s);

    const double ttl = 10.0;
    Lease lease;
    ASSERT_TRUE(spool.claimLease(s, ttl, lease));
    Lease aged = lease;
    aged.deadline = spoolWallClock() + ttl / 2;
    spool.imposeLease(aged);

    const double before = spoolWallClock();
    EXPECT_TRUE(spool.renewLease(lease, ttl));
    Lease cur;
    ASSERT_TRUE(spool.readLease(s.id, s.token, cur));
    EXPECT_GE(cur.deadline, before + 0.75 * ttl);
}

/** Disarm the fault plan however a test exits. */
struct FaultScope
{
    explicit FaultScope(const char *spec) { armFault(spec); }
    ~FaultScope() { armFault(""); }
};

/**
 * A broker whose forked workers cannot start (worker-start: each
 * exits 3 before claiming anything) must stop respawning instead of
 * fork-storming, and the campaign must still complete through an
 * external worker — here this thread, whose claims the broker sees as
 * a stranger's.
 */
TEST(Broker, UnstartableLocalWorkersDoNotStallCampaign)
{
    const std::string root = freshSpool("start_fail");
    const auto keys = syntheticKeys(2);

    BrokerOptions opt = brokerOptions(root);
    opt.workers = 2;

    std::atomic<std::size_t> calls{0};
    const ProcJobFn fn = [&](std::size_t i) {
        ++calls;
        return syntheticResult(i);
    };
    FaultScope fault("worker-start:1");
    std::vector<RunResult> results;
    std::thread broker([&] {
        results = runSpoolBroker(kDoc, kFp, keys, opt, fn);
    });

    Spool spool(root);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!spool.complete() &&
           std::chrono::steady_clock::now() < deadline) {
        spoolWorkerStep(spool, keys, fn, workerOptions());
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_TRUE(spool.complete())
        << "campaign stalled behind local workers that cannot start";
    broker.join();

    ASSERT_EQ(results.size(), 2u);
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_FALSE(results[i].failed()) << results[i].error.message;
        EXPECT_EQ(canonical(results[i]), canonical(syntheticResult(i)));
    }
}

/**
 * Forked workers that die before they are ever seen holding a lease
 * (here: every one exits 3 at once, as one that cannot start would)
 * stop the respawning after three, and with no external worker to
 * carry the campaign it fails with a ConfigError quoting the streak
 * and the exit status instead of stalling silently.
 */
TEST(Broker, PreClaimDeathsStopRespawningAndFailLoudly)
{
    const std::string root = freshSpool("preclaim");
    const auto keys = syntheticKeys(2);

    BrokerOptions opt = brokerOptions(root);
    opt.workers = 2;
    opt.leaseTtl = 0.5;

    FaultScope fault("worker-start:1");
    const auto t0 = std::chrono::steady_clock::now();
    std::string what;
    try {
        runSpoolBroker(kDoc, kFp, keys, opt,
                       [](std::size_t i) { return syntheticResult(i); });
    } catch (const ConfigError &e) {
        what = e.what();
    }
    const double secs = secondsSince(t0);
    ASSERT_FALSE(what.empty()) << "the campaign did not fail";
    EXPECT_NE(what.find("exit status 3"), std::string::npos) << what;
    // Exactly three forks: one unproven child at a time after the
    // first pre-claim death.
    EXPECT_NE(what.find("3 local workers in a row"), std::string::npos)
        << what;
    EXPECT_LT(secs, 10.0);
}

/** Descriptors of this process whose /proc/self/fd link names `kind`. */
std::size_t
openFdsOf(const std::string &kind)
{
    namespace fs = std::filesystem;
    std::size_t n = 0;
    for (const auto &e : fs::directory_iterator("/proc/self/fd")) {
        std::error_code ec;
        const auto target = fs::read_symlink(e.path(), ec);
        if (!ec && target.string().find(kind) != std::string::npos)
            ++n;
    }
    return n;
}

/**
 * A forked worker closes the broker's descriptors it inherited and
 * arms no file watches of its own: it holds no inotify descriptor and
 * no pidfd while it runs a cell (each cell reports what it saw in its
 * result). With the fallback ceiling at 30 s the campaign still ends
 * in well under a second, so the broker woke on its workers' records
 * and exits, not on a timer.
 */
TEST(Broker, ForkedWorkerHoldsNoInotifyFd)
{
    const std::string root = freshSpool("forked_fds");
    const auto keys = syntheticKeys(4);

    BrokerOptions opt = brokerOptions(root);
    opt.workers = 2;
    opt.pollInterval = 30.0;

    const auto t0 = std::chrono::steady_clock::now();
    const auto results = runSpoolBroker(
        kDoc, kFp, keys, opt, [](std::size_t i) {
            RunResult r = syntheticResult(i);
            r.workload = "inotify=" + std::to_string(openFdsOf("inotify")) +
                         ",pidfd=" + std::to_string(openFdsOf("pidfd"));
            return r;
        });
    EXPECT_LT(secondsSince(t0), 5.0);
    ASSERT_EQ(results.size(), 4u);
    for (const RunResult &r : results) {
        EXPECT_FALSE(r.failed()) << r.error.message;
        EXPECT_EQ(r.workload, "inotify=0,pidfd=0");
    }
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
