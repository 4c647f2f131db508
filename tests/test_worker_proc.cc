/**
 * @file
 * Process-isolation tests: the CRC32-framed pipe protocol, and the
 * fork-isolated campaign backend's crash containment, hard timeout
 * escalation, retry/backoff, and rerun determinism.
 *
 * Worker-level faults are armed programmatically with armFault();
 * each campaign test arms its own plan and disarms afterwards, and
 * the forked workers inherit the armed plan across fork() — which is
 * exactly how the pintesim chaos test delivers PINTE_INJECT_FAULT to
 * its workers.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/fault.hh"
#include "common/json.hh"
#include "sim/experiment.hh"
#include "sim/sink.hh"
#include "sim/watchdog.hh"
#include "sim/wire.hh"
#include "sim/worker_proc.hh"
#include "trace/zoo.hh"

namespace pinte
{
namespace
{

/** Pipe pair that closes whatever is still open at scope exit. */
struct Pipe
{
    int rd = -1, wr = -1;
    Pipe()
    {
        int fds[2];
        EXPECT_EQ(::pipe(fds), 0);
        rd = fds[0];
        wr = fds[1];
    }
    ~Pipe()
    {
        closeRd();
        closeWr();
    }
    void closeRd()
    {
        if (rd >= 0)
            ::close(rd);
        rd = -1;
    }
    void closeWr()
    {
        if (wr >= 0)
            ::close(wr);
        wr = -1;
    }
};

TEST(Wire, FrameRoundTrip)
{
    Pipe p;
    const std::string payload = "{\"hello\":\"world\"}";
    ASSERT_TRUE(writeFrame(p.wr, FrameType::Result, payload));
    Frame f;
    EXPECT_EQ(readFrame(p.rd, f), WireStatus::Ok);
    EXPECT_EQ(f.type, FrameType::Result);
    EXPECT_EQ(f.payload, payload);
}

TEST(Wire, EmptyPayloadRoundTrip)
{
    Pipe p;
    ASSERT_TRUE(writeFrame(p.wr, FrameType::Shutdown, std::string()));
    Frame f;
    EXPECT_EQ(readFrame(p.rd, f), WireStatus::Ok);
    EXPECT_EQ(f.type, FrameType::Shutdown);
    EXPECT_TRUE(f.payload.empty());
}

TEST(Wire, JobPayloadRoundTrip)
{
    std::uint64_t index = 0;
    std::uint32_t attempt = 0;
    EXPECT_TRUE(unpackJob(packJob(11, 2), index, attempt));
    EXPECT_EQ(index, 11u);
    EXPECT_EQ(attempt, 2u);
    EXPECT_FALSE(unpackJob("short", index, attempt));
    EXPECT_FALSE(unpackJob(packJob(0, 0) + "x", index, attempt));
}

TEST(Wire, HeartbeatPayloadRoundTrip)
{
    std::uint64_t instructions = 0;
    EXPECT_TRUE(
        unpackHeartbeat(packHeartbeat(123456789ull), instructions));
    EXPECT_EQ(instructions, 123456789ull);
    EXPECT_FALSE(unpackHeartbeat("", instructions));
}

TEST(Wire, CleanEofAtFrameBoundary)
{
    Pipe p;
    ASSERT_TRUE(writeFrame(p.wr, FrameType::Heartbeat,
                           packHeartbeat(1)));
    p.closeWr();
    Frame f;
    EXPECT_EQ(readFrame(p.rd, f), WireStatus::Ok);
    EXPECT_EQ(readFrame(p.rd, f), WireStatus::Eof);
}

TEST(Wire, TornFrameIsErrorNotEof)
{
    // Capture a valid frame's bytes, then replay only a prefix — the
    // signature of a worker killed mid-write.
    Pipe capture;
    ASSERT_TRUE(
        writeFrame(capture.wr, FrameType::Result, "0123456789"));
    char buf[64];
    const ssize_t len = ::read(capture.rd, buf, sizeof(buf));
    ASSERT_GT(len, 12);

    Pipe torn;
    ASSERT_EQ(::write(torn.wr, buf, static_cast<size_t>(len - 5)),
              len - 5);
    torn.closeWr();
    Frame f;
    EXPECT_EQ(readFrame(torn.rd, f), WireStatus::Error);
}

TEST(Wire, CorruptCrcIsGarbage)
{
    Pipe p;
    ASSERT_TRUE(writeFrame(p.wr, FrameType::Result, "payload",
                           /*corrupt_crc=*/true));
    Frame f;
    EXPECT_EQ(readFrame(p.rd, f), WireStatus::Garbage);
}

TEST(Wire, BadMagicIsGarbage)
{
    Pipe p;
    const char junk[16] = "not-a-frame-at-";
    ASSERT_EQ(::write(p.wr, junk, sizeof(junk)),
              static_cast<ssize_t>(sizeof(junk)));
    p.closeWr();
    Frame f;
    EXPECT_EQ(readFrame(p.rd, f), WireStatus::Garbage);
}

TEST(Wire, OversizedLengthIsGarbage)
{
    // Valid magic, then a length beyond the cap: must classify as
    // Garbage before any attempt to allocate or read the payload.
    Pipe p;
    unsigned char head[9];
    head[0] = 'P';
    head[1] = 'N';
    head[2] = 'T';
    head[3] = 'W';
    head[4] = 1; // FrameType::Job
    const std::uint32_t len = kMaxFramePayload + 1;
    head[5] = static_cast<unsigned char>(len);
    head[6] = static_cast<unsigned char>(len >> 8);
    head[7] = static_cast<unsigned char>(len >> 16);
    head[8] = static_cast<unsigned char>(len >> 24);
    ASSERT_EQ(::write(p.wr, head, sizeof(head)),
              static_cast<ssize_t>(sizeof(head)));
    Frame f;
    EXPECT_EQ(readFrame(p.rd, f), WireStatus::Garbage);
}

TEST(Wire, ReassemblyExtractsFramesAcrossArbitraryChunks)
{
    // Feed one byte at a time: NeedMore until the last byte lands,
    // then the complete CRC-verified frame — the append-only spool
    // stream arrives in whatever chunks the page cache serves.
    const std::string bytes =
        encodeFrame(FrameType::Record, "{\"cell\": 7}");
    FrameReassembly r;
    Frame f;
    for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
        r.feed(bytes.data() + i, 1);
        EXPECT_EQ(r.next(f), ReassemblyStatus::NeedMore);
    }
    r.feed(bytes.data() + bytes.size() - 1, 1);
    ASSERT_EQ(r.next(f), ReassemblyStatus::Frame);
    EXPECT_EQ(f.type, FrameType::Record);
    EXPECT_EQ(f.payload, "{\"cell\": 7}");
    EXPECT_EQ(r.next(f), ReassemblyStatus::NeedMore);
    EXPECT_EQ(r.pending(), 0u);

    // Two frames in one chunk extract back to back.
    const std::string two = encodeFrame(FrameType::Record, "a") +
                            encodeFrame(FrameType::Record, "b");
    r.feed(two.data(), two.size());
    ASSERT_EQ(r.next(f), ReassemblyStatus::Frame);
    EXPECT_EQ(f.payload, "a");
    ASSERT_EQ(r.next(f), ReassemblyStatus::Frame);
    EXPECT_EQ(f.payload, "b");
    EXPECT_EQ(r.next(f), ReassemblyStatus::NeedMore);
}

TEST(Wire, ReassemblyKeepsTornTailBuffered)
{
    // A complete frame plus half of the next — a worker killed
    // mid-append. The full frame extracts; the tail stays pending
    // (NeedMore, never Garbage): liveness is the lease's call, not
    // the stream's.
    const std::string whole = encodeFrame(FrameType::Record, "whole");
    const std::string torn = encodeFrame(FrameType::Record, "torn");
    FrameReassembly r;
    r.feed(whole.data(), whole.size());
    r.feed(torn.data(), torn.size() / 2);
    Frame f;
    ASSERT_EQ(r.next(f), ReassemblyStatus::Frame);
    EXPECT_EQ(f.payload, "whole");
    EXPECT_EQ(r.next(f), ReassemblyStatus::NeedMore);
    EXPECT_EQ(r.pending(), torn.size() / 2);
}

TEST(Wire, ReassemblyGarbageIsSticky)
{
    const std::string bad =
        encodeFrame(FrameType::Record, "x", /*corrupt_crc=*/true);
    const std::string good = encodeFrame(FrameType::Record, "y");
    FrameReassembly r;
    r.feed(bad.data(), bad.size());
    Frame f;
    EXPECT_EQ(r.next(f), ReassemblyStatus::Garbage);
    // Resynchronizing past a CRC failure could silently skip records;
    // the stream stays condemned even when clean frames follow.
    r.feed(good.data(), good.size());
    EXPECT_EQ(r.next(f), ReassemblyStatus::Garbage);
}

TEST(WorkerProc, RetryBackoffIsDeterministicWindowedDecorrelated)
{
    const double base = 0.05;
    for (std::uint32_t a = 0; a < 5; ++a) {
        const double lo = base * static_cast<double>(1u << a);
        const double d = retryBackoffSeconds(base, a, 42);
        // Same (base, attempt, key) -> the same delay, forever.
        EXPECT_EQ(d, retryBackoffSeconds(base, a, 42));
        // Inside the doubling window [base*2^a, base*2^(a+1)).
        EXPECT_GE(d, lo);
        EXPECT_LT(d, 2.0 * lo);
    }
    // Distinct keys land at distinct points of the window: retries of
    // cells lost to one event do not re-collide.
    const double d1 = retryBackoffSeconds(base, 1, 1);
    const double d2 = retryBackoffSeconds(base, 1, 2);
    const double d3 = retryBackoffSeconds(base, 1, 3);
    EXPECT_FALSE(d1 == d2 && d2 == d3);
}

/** Disarm the fault plan however a test exits. */
struct FaultScope
{
    explicit FaultScope(const char *spec) { armFault(spec); }
    ~FaultScope() { armFault(""); }
};

/** A fast synthetic job: no simulation, but a fully serializable
 *  result whose identity encodes the cell index. */
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

TEST(WorkerProc, ZeroCellsIsEmpty)
{
    ProcOptions opt;
    const auto results = runProcessCampaign(
        0, [](std::size_t) { return RunResult(); }, opt);
    EXPECT_TRUE(results.empty());
}

TEST(WorkerProc, ResultsArriveInSubmissionOrder)
{
    ProcOptions opt;
    opt.workers = 3;
    std::vector<int> merged(8, 0);
    const auto results = runProcessCampaign(
        8, [](std::size_t i) { return syntheticResult(i); }, opt,
        [&](std::size_t i, const RunResult &r) {
            merged[i]++;
            EXPECT_FALSE(r.failed());
        });
    ASSERT_EQ(results.size(), 8u);
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_FALSE(results[i].failed());
        EXPECT_EQ(results[i].contention, "cell@" + std::to_string(i));
        EXPECT_EQ(results[i].metrics.ipc,
                  1.0 + static_cast<double>(i));
        EXPECT_EQ(merged[i], 1) << "merge-on-arrival fired per cell";
    }
}

TEST(WorkerProc, InChildCleanFailureIsFinalNotRetried)
{
    // A result that *parses* but carries a RunError is a
    // deterministic simulation failure: quarantined immediately, no
    // retry attempts consumed — identical to thread-mode semantics.
    ProcOptions opt;
    opt.workers = 2;
    opt.maxRetries = 3;
    const auto results = runProcessCampaign(
        4,
        [](std::size_t i) {
            if (i != 2)
                return syntheticResult(i);
            RunResult r;
            r.workload = "synthetic.cell";
            r.contention = "cell@2";
            r.error.kind = "trace";
            r.error.component = "trace_io";
            r.error.message = "truncated trace";
            return r;
        },
        opt);
    ASSERT_EQ(results.size(), 4u);
    EXPECT_TRUE(results[2].failed());
    EXPECT_EQ(results[2].error.kind, "trace");
    EXPECT_EQ(results[2].error.attempts, 0u)
        << "clean failures must not consume retry attempts";
    EXPECT_TRUE(results[2].error.attemptLog.empty());
    for (const std::size_t i : {0u, 1u, 3u})
        EXPECT_FALSE(results[i].failed());
}

TEST(WorkerProc, CrashIsQuarantinedWithSignalAndAttemptLog)
{
    FaultScope fault("worker-crash:2"); // cell index 1, every attempt
    ProcOptions opt;
    opt.workers = 2;
    opt.maxRetries = 2;
    opt.backoffBase = 0.01;
    const auto results = runProcessCampaign(
        4, [](std::size_t i) { return syntheticResult(i); }, opt);
    ASSERT_EQ(results.size(), 4u);

    const RunResult &lost = results[1];
    ASSERT_TRUE(lost.failed());
    EXPECT_EQ(lost.error.kind, "worker");
    EXPECT_EQ(lost.error.component, "worker_proc");
    EXPECT_EQ(lost.error.signal, SIGABRT);
    EXPECT_EQ(lost.error.attempts, 2u);
    ASSERT_EQ(lost.error.attemptLog.size(), 2u);
    EXPECT_NE(lost.error.attemptLog[0].find("attempt 1"),
              std::string::npos);
    EXPECT_NE(lost.error.attemptLog[1].find("attempt 2"),
              std::string::npos);
    // Labels are the campaign driver's (sim/campaign.hh): a lost cell
    // comes back unlabeled from the backend itself.
    EXPECT_TRUE(lost.workload.empty());

    // The crash was contained: every other cell completed.
    for (const std::size_t i : {0u, 2u, 3u})
        EXPECT_FALSE(results[i].failed()) << "cell " << i;
}

TEST(WorkerProc, GarbageFrameIsDiscardedNotTrusted)
{
    FaultScope fault("worker-garbage:1");
    ProcOptions opt;
    opt.workers = 2;
    opt.maxRetries = 1;
    const auto results = runProcessCampaign(
        3, [](std::size_t i) { return syntheticResult(i); }, opt);
    ASSERT_EQ(results.size(), 3u);
    ASSERT_TRUE(results[0].failed());
    EXPECT_EQ(results[0].error.kind, "worker");
    ASSERT_EQ(results[0].error.attemptLog.size(), 1u);
    EXPECT_NE(results[0].error.attemptLog[0].find(
                  "corrupt result frame"),
              std::string::npos);
    EXPECT_FALSE(results[1].failed());
    EXPECT_FALSE(results[2].failed());
}

TEST(WorkerProc, TimeoutEscalationStartsWithSigterm)
{
    // A worker that blocks without heartbeats past the deadline gets
    // SIGTERM first; a cooperative (default-disposition) worker dies
    // of it and the cell reports kind "timeout" + that signal.
    ProcOptions opt;
    opt.workers = 1;
    opt.jobTimeout = 0.4;
    opt.killGrace = 5.0; // escalation must not be needed here
    const auto results = runProcessCampaign(
        1,
        [](std::size_t) {
            std::this_thread::sleep_for(std::chrono::seconds(30));
            return RunResult();
        },
        opt);
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].failed());
    EXPECT_EQ(results[0].error.kind, "timeout");
    EXPECT_EQ(results[0].error.signal, SIGTERM);
    EXPECT_EQ(results[0].error.attempts, 1u);
    EXPECT_NE(results[0].error.message.find("--job-timeout"),
              std::string::npos);
}

TEST(WorkerProc, NonCooperativeHangNeedsSigkill)
{
    // The worker-hang fault ignores SIGTERM and blocks in pause():
    // the exact shape the cooperative watchdog can never catch (see
    // watchdog.hh's blind-spot note). Only the parent's escalation to
    // SIGKILL ends it.
    FaultScope fault("worker-hang:1");
    ProcOptions opt;
    opt.workers = 1;
    opt.jobTimeout = 0.4;
    opt.killGrace = 0.3;
    const auto results = runProcessCampaign(
        1, [](std::size_t i) { return syntheticResult(i); }, opt);
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].failed());
    EXPECT_EQ(results[0].error.kind, "timeout");
    EXPECT_EQ(results[0].error.signal, SIGKILL);
    EXPECT_EQ(results[0].error.attempts, 1u);
}

TEST(WorkerProc, TornFrameThenWedgeIsKilledByDeadlineNotDeadlock)
{
    // The worker-torn-frame fault writes half a Result frame and then
    // wedges with SIGTERM ignored. A parent that read frames
    // blockingly would deadlock right here, forever (the pre-fix
    // DESIGN.md §4i limitation); the non-blocking reassembly buffer
    // keeps the torn bytes pending while the hard deadline escalates
    // to SIGKILL, and the half-frame never surfaces as a result.
    FaultScope fault("worker-torn-frame:1");
    ProcOptions opt;
    opt.workers = 1;
    opt.jobTimeout = 0.4;
    opt.killGrace = 0.3;
    const auto results = runProcessCampaign(
        1, [](std::size_t i) { return syntheticResult(i); }, opt);
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].failed());
    EXPECT_EQ(results[0].error.kind, "timeout");
    EXPECT_EQ(results[0].error.signal, SIGKILL);
    EXPECT_EQ(results[0].error.attempts, 1u);
}

TEST(WorkerProc, HeartbeatsKeepSlowJobsAlive)
{
    // A job slower than --job-timeout but making steady instruction
    // progress must never be killed: heartbeats forwarded over the
    // pipe keep extending the parent's deadline.
    ProcOptions opt;
    opt.workers = 1;
    opt.jobTimeout = 0.5;
    const auto results = runProcessCampaign(
        1,
        [](std::size_t i) {
            for (std::uint64_t tick = 1; tick <= 30; ++tick) {
                JobWatchdog::heartbeat(tick * 1000);
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(50));
            }
            return syntheticResult(i);
        },
        opt);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].failed())
        << results[0].error.message;
}

/** Serialize a result with cpuSeconds zeroed: bitwise comparison of
 *  everything a simulation deterministically produces. */
std::string
canonical(RunResult r)
{
    r.cpuSeconds = 0.0;
    std::ostringstream os;
    JsonWriter w(os, 0);
    writeRunJson(w, r);
    return os.str();
}

TEST(WorkerProc, RetriedCellIsBitwiseIdenticalToFreshRun)
{
    // Real simulations: a worker-flaky cell dies on its first attempt
    // and succeeds on retry; the recovered result must be
    // bitwise-identical (modulo cpu_seconds) to a fault-free run.
    const WorkloadSpec w = findWorkload("450.soplex");
    const std::vector<double> points = {0.0, 0.1, 0.2};
    auto job = [&](std::size_t i) {
        ExperimentParams params;
        params.warmup = 2000;
        params.roi = 4000;
        params.sampleEvery = 2000;
        ExperimentSpec spec((MachineConfig::scaled()));
        spec.workload(w).params(params);
        if (points[i] > 0.0)
            spec.pinte(points[i]);
        return spec.tryRun().result;
    };

    ProcOptions opt;
    opt.workers = 2;
    opt.maxRetries = 2;
    opt.backoffBase = 0.01;

    const auto fresh = runProcessCampaign(points.size(), job, opt);
    std::vector<RunResult> retried;
    {
        FaultScope fault("worker-flaky:2"); // cell 1, first attempt
        retried = runProcessCampaign(points.size(), job, opt);
    }

    ASSERT_EQ(fresh.size(), retried.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
        EXPECT_FALSE(fresh[i].failed());
        EXPECT_FALSE(retried[i].failed());
        EXPECT_EQ(canonical(fresh[i]), canonical(retried[i]))
            << "cell " << i
            << " diverged across a retry — rerun determinism broken";
    }
}

} // namespace
} // namespace pinte
