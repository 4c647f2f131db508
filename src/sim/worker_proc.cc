#include "worker_proc.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <sstream>
#include <thread>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/error.hh"
#include "common/fault.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "sim/sink.hh"
#include "sim/watchdog.hh"
#include "sim/wire.hh"

namespace pinte
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point then, Clock::time_point now)
{
    return std::chrono::duration<double>(now - then).count();
}

Clock::time_point
plusSeconds(Clock::time_point t, double s)
{
    return t + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(s));
}

std::string
fmtSeconds(double s)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", s);
    return buf;
}

/**
 * Worker main loop: read Job frames, execute, ship Result frames.
 * Runs in the forked child; never returns. Exits via _Exit so the
 * parent's atexit handlers and stdio buffers (flushed before fork)
 * are not replayed.
 */
[[noreturn]] void
childLoop(int job_fd, int result_fd, const ProcJobFn &fn,
          double job_timeout)
{
    // Beat often enough that the parent's hard deadline cannot be
    // starved by the rate limiter on a short --job-timeout.
    double interval = 0.2;
    if (job_timeout > 0.0)
        interval = std::min(interval, job_timeout / 4.0);
    JobWatchdog::pipeHeartbeats(result_fd, interval);

    for (;;) {
        Frame f;
        const WireStatus st = readFrame(job_fd, f);
        if (st == WireStatus::Eof)
            std::_Exit(0); // parent closed the pipe: campaign is over
        if (st != WireStatus::Ok || f.type == FrameType::Shutdown) {
            if (st == WireStatus::Ok && f.type == FrameType::Shutdown)
                std::_Exit(0);
            std::_Exit(3); // torn/garbled command stream
        }
        std::uint64_t index = 0;
        std::uint32_t attempt = 0;
        if (f.type != FrameType::Job ||
            !unpackJob(f.payload, index, attempt))
            std::_Exit(3);

        // Fault-injection sites (see common/fault.hh): these model
        // worker-level losses, so they strike before tryRun's
        // quarantine can see anything.
        if (faultArmedForCell("worker-crash", index))
            std::abort();
        if (attempt == 0 && faultArmedForCell("worker-flaky", index))
            std::abort(); // first attempt dies; the retry succeeds
        if (faultArmedForCell("worker-hang", index)) {
            // A non-cooperative hang: ignores SIGTERM, never calls
            // heartbeat(). Only the parent's SIGKILL ends it.
            ::signal(SIGTERM, SIG_IGN);
            for (;;)
                ::pause();
        }
        if (faultArmedForCell("worker-torn-frame", index)) {
            // The nastiest loss mode: write the head and part of the
            // payload of a well-formed Result frame, then wedge
            // without completing it. A parent that reads frames
            // blockingly deadlocks here (the pre-fix DESIGN.md §4i
            // limitation); the reassembly-buffer parent keeps polling
            // and the hard deadline kills us.
            const std::string frame =
                encodeFrame(FrameType::Result, std::string(64, '{'));
            const std::string torn = frame.substr(0, frame.size() / 2);
            [[maybe_unused]] const ::ssize_t wrote =
                ::write(result_fd, torn.data(), torn.size());
            ::signal(SIGTERM, SIG_IGN);
            for (;;)
                ::pause();
        }

        // Re-arm the in-child cooperative watchdog per job (fresh
        // stall clock), keeping its early TimeoutError for stalls the
        // simulation loop *can* observe; arm() leaves the pipe
        // forwarding installed above untouched.
        if (job_timeout > 0.0)
            JobWatchdog::arm(job_timeout);

        RunResult r;
        try {
            r = fn(static_cast<std::size_t>(index));
        } catch (const Error &e) {
            // Belt and braces: fn is expected to be a tryRun wrapper
            // that captures its own failures.
            r.error = RunError::from(e);
        } catch (const std::exception &e) {
            r.error = RunError::from(e);
        }

        std::ostringstream os;
        {
            JsonWriter w(os, 0);
            writeRunJson(w, r);
        }
        const bool corrupt = faultArmedForCell("worker-garbage", index);
        if (!writeFrame(result_fd, FrameType::Result, os.str(),
                        corrupt))
            std::_Exit(3); // parent went away
    }
}

/** How a worker process ended, from waitpid(). */
struct Death
{
    int signal = 0;   // WTERMSIG when signaled
    int exitCode = 0; // WEXITSTATUS when it exited
    std::string what; // human-readable classification
};

Death
reapWorker(pid_t pid)
{
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    Death d;
    if (WIFSIGNALED(status)) {
        d.signal = WTERMSIG(status);
        const char *name = ::strsignal(d.signal);
        d.what = "killed by signal " + std::to_string(d.signal) +
                 (name ? std::string(" (") + name + ")" : "");
    } else if (WIFEXITED(status)) {
        d.exitCode = WEXITSTATUS(status);
        d.what = "exited with status " + std::to_string(d.exitCode);
    } else {
        d.what = "ended with wait status " + std::to_string(status);
    }
    return d;
}

/** One worker process and the cell currently dispatched to it. */
struct Slot
{
    pid_t pid = -1;
    int toChild = -1;   // parent writes Job/Shutdown frames
    int fromChild = -1; // parent reads Heartbeat/Result frames
    bool busy = false;
    std::size_t job = 0;
    std::uint32_t attempt = 0;       // 0-based
    Clock::time_point lastLive;      // dispatch or last heartbeat
    bool terming = false;            // SIGTERM sent, SIGKILL pending
    bool timedOut = false;           // this loss is a deadline kill
    bool sawGarbage = false;         // this loss is a corrupt frame
    bool tornFrame = false;          // this loss left a partial frame
    Clock::time_point killAt;        // when to escalate to SIGKILL
    FrameReassembly rx;              // partial-frame-safe decoder
};

void
closeSlotPipes(Slot &s)
{
    if (s.toChild >= 0)
        ::close(s.toChild);
    if (s.fromChild >= 0)
        ::close(s.fromChild);
    s.toChild = s.fromChild = -1;
}

/** Fork a worker into `s`. Throws SimError on pipe/fork failure. */
void
spawnWorker(Slot &s, const ProcJobFn &fn, double job_timeout)
{
    int job_pipe[2];    // parent -> child
    int result_pipe[2]; // child -> parent
    if (::pipe(job_pipe) < 0)
        throw SimError(std::string("worker pipe: ") +
                           std::strerror(errno),
                       {"worker_proc", "", ""});
    if (::pipe(result_pipe) < 0) {
        ::close(job_pipe[0]);
        ::close(job_pipe[1]);
        throw SimError(std::string("worker pipe: ") +
                           std::strerror(errno),
                       {"worker_proc", "", ""});
    }

    // The child inherits buffered stdio; flush so a worker that
    // aborts cannot replay half-written parent output.
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(job_pipe[0]);
        ::close(job_pipe[1]);
        ::close(result_pipe[0]);
        ::close(result_pipe[1]);
        throw SimError(std::string("worker fork: ") +
                           std::strerror(errno),
                       {"worker_proc", "", ""});
    }
    if (pid == 0) {
        ::close(job_pipe[1]);
        ::close(result_pipe[0]);
        ::signal(SIGPIPE, SIG_IGN); // dead parent -> EPIPE, not death
        childLoop(job_pipe[0], result_pipe[1], fn, job_timeout);
    }
    ::close(job_pipe[0]);
    ::close(result_pipe[1]);
    // The parent must never block on a partial frame: a worker that
    // writes half a Result and wedges would otherwise stall the whole
    // poll loop (the old DESIGN.md §4i limitation). Reads drain what
    // is available and FrameReassembly re-frames it incrementally.
    const int fl = ::fcntl(result_pipe[0], F_GETFL);
    if (fl < 0 ||
        ::fcntl(result_pipe[0], F_SETFL, fl | O_NONBLOCK) < 0) {
        ::kill(pid, SIGKILL);
        reapWorker(pid);
        ::close(job_pipe[1]);
        ::close(result_pipe[0]);
        throw SimError(std::string("worker pipe flags: ") +
                           std::strerror(errno),
                       {"worker_proc", "", ""});
    }
    s.pid = pid;
    s.toChild = job_pipe[1];
    s.fromChild = result_pipe[0];
    s.busy = false;
    s.terming = false;
    s.timedOut = false;
    s.sawGarbage = false;
    s.tornFrame = false;
    s.rx = FrameReassembly();
}

/** Restore the previous SIGPIPE disposition on scope exit. */
class SigpipeGuard
{
  public:
    SigpipeGuard() { prev_ = ::signal(SIGPIPE, SIG_IGN); }
    ~SigpipeGuard() { ::signal(SIGPIPE, prev_); }
    SigpipeGuard(const SigpipeGuard &) = delete;
    SigpipeGuard &operator=(const SigpipeGuard &) = delete;

  private:
    void (*prev_)(int) = nullptr;
};

/** Kill and reap every live worker; used on exit and on parent-side
 *  failure so no campaign ever leaks children. */
void
killAllWorkers(std::vector<Slot> &slots)
{
    for (Slot &s : slots) {
        if (s.pid < 0)
            continue;
        ::kill(s.pid, SIGKILL);
        reapWorker(s.pid);
        closeSlotPipes(s);
        s.pid = -1;
    }
}

} // namespace

double
retryBackoffSeconds(double base, std::uint32_t attempt,
                    std::uint64_t key)
{
    // splitmix64 finalizer over (key, attempt): a cheap, well-mixed
    // hash whose low bias is irrelevant here — we only need distinct
    // cells to land at distinct points of the window, reproducibly.
    std::uint64_t z =
        key + 0x9e3779b97f4a7c15ull * (std::uint64_t(attempt) + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    const double u = static_cast<double>(z >> 11) * 0x1.0p-53;
    // Uniform over [base * 2^a, base * 2^(a+1)).
    return base * std::ldexp(1.0 + u, static_cast<int>(attempt));
}

std::vector<RunResult>
runProcessCampaign(std::size_t n, const ProcJobFn &fn,
                   const ProcOptions &opt, const ProcResultFn &onResult)
{
    std::vector<RunResult> results(n);
    if (n == 0)
        return results;

    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;
    const std::size_t width = std::min<std::size_t>(
        n, opt.workers ? opt.workers : hw);
    const unsigned max_attempts = std::max(1u, opt.maxRetries);

    // A worker dying mid-write makes the parent's next write hit
    // EPIPE; that must be an error return, not parent death.
    SigpipeGuard sigpipe;

    // Cell scheduling state. `ready` holds dispatchable (job,
    // attempt) pairs; `delayed` holds retries still serving their
    // backoff. Attempt history accumulates per cell across retries.
    std::deque<std::pair<std::size_t, std::uint32_t>> ready;
    struct Delayed
    {
        std::size_t job;
        std::uint32_t attempt;
        Clock::time_point at;
    };
    std::vector<Delayed> delayed;
    std::vector<std::vector<std::string>> attemptLog(n);
    std::size_t completed = 0;
    for (std::size_t i = 0; i < n; ++i)
        ready.emplace_back(i, 0u);

    std::vector<Slot> slots(width);

    const auto finishCell = [&](std::size_t job, RunResult r) {
        results[job] = std::move(r);
        ++completed;
        if (onResult)
            onResult(job, results[job]);
    };

    // Quarantine `job` after its final failed attempt.
    const auto quarantineCell = [&](std::size_t job, const Slot &s,
                                    const Death &d) {
        RunResult q;
        RunError &e = q.error;
        e.kind = s.timedOut ? "timeout" : "worker";
        e.component = "worker_proc";
        e.signal = d.signal;
        e.exitCode = d.exitCode;
        e.attempts = static_cast<std::uint32_t>(attemptLog[job].size());
        e.attemptLog = attemptLog[job];
        e.message =
            "worker lost (" + d.what + ") after " +
            std::to_string(e.attempts) + " attempt(s)" +
            (s.timedOut ? "; hard --job-timeout=" +
                              fmtSeconds(opt.jobTimeout) +
                              "s deadline (SIGTERM, then SIGKILL)"
                        : "");
        finishCell(job, std::move(q));
    };

    // A worker was lost (EOF / torn frame / garbage / kill): reap it,
    // account the in-flight attempt, and schedule a retry or
    // quarantine the cell.
    const auto workerLost = [&](Slot &s) {
        if (s.sawGarbage && s.pid >= 0)
            ::kill(s.pid, SIGKILL); // don't trust it to exit cleanly
        const Death d = reapWorker(s.pid);
        closeSlotPipes(s);
        s.pid = -1;
        if (!s.busy)
            return; // idle worker died; nothing was lost
        s.busy = false;

        std::string line =
            "attempt " + std::to_string(s.attempt + 1) + ": ";
        if (s.sawGarbage)
            line += "corrupt result frame; ";
        if (s.tornFrame)
            line += "torn partial result frame (" +
                    std::to_string(s.rx.pending()) +
                    " byte(s) discarded); ";
        if (s.timedOut)
            line += "no progress for --job-timeout=" +
                    fmtSeconds(opt.jobTimeout) + "s; ";
        line += d.what;
        attemptLog[s.job].push_back(line);

        const std::uint32_t next = s.attempt + 1;
        if (next < max_attempts) {
            const double delay =
                retryBackoffSeconds(opt.backoffBase, s.attempt, s.job);
            delayed.push_back(
                {s.job, next, plusSeconds(Clock::now(), delay)});
        } else {
            quarantineCell(s.job, s, d);
        }
    };

    // One readable event on a worker's result pipe: drain whatever is
    // available without blocking, then consume every complete frame
    // the reassembly buffer holds. A partial frame just stays
    // buffered — the poll loop keeps running and the hard deadline
    // stays enforceable even against a worker wedged mid-write.
    const auto onReadable = [&](Slot &s) {
        bool eof = false;
        char buf[4096];
        for (;;) {
            const ::ssize_t got =
                ::read(s.fromChild, buf, sizeof(buf));
            if (got > 0) {
                s.rx.feed(buf, static_cast<std::size_t>(got));
                if (static_cast<std::size_t>(got) < sizeof(buf))
                    break;
                continue;
            }
            if (got == 0) {
                eof = true;
                break;
            }
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            eof = true; // read error: same as a vanished worker
            break;
        }

        for (;;) {
            Frame f;
            const ReassemblyStatus st = s.rx.next(f);
            if (st == ReassemblyStatus::NeedMore)
                break;
            if (st == ReassemblyStatus::Garbage) {
                s.sawGarbage = true;
                workerLost(s);
                return;
            }
            if (f.type == FrameType::Heartbeat) {
                std::uint64_t instructions = 0;
                if (!unpackHeartbeat(f.payload, instructions)) {
                    s.sawGarbage = true;
                    workerLost(s);
                    return;
                }
                if (!s.terming)
                    s.lastLive = Clock::now();
                continue;
            }
            if (f.type == FrameType::Result && s.busy) {
                std::string err;
                const JsonValue v = parseJson(f.payload, &err);
                if (err.empty()) {
                    RunResult r;
                    bool parsed = true;
                    try {
                        r = runFromJson(v);
                    } catch (const Error &) {
                        parsed = false;
                    }
                    if (parsed) {
                        // In-simulation failures arrive as valid
                        // failed results; they are deterministic and
                        // final (no retry), exactly like thread mode.
                        const std::size_t job = s.job;
                        s.busy = false;
                        s.terming = false;
                        s.timedOut = false;
                        finishCell(job, std::move(r));
                        continue;
                    }
                }
            }
            // A frame that makes no sense here (unexpected type, or a
            // Result that does not parse back) — lost worker.
            s.sawGarbage = true;
            workerLost(s);
            return;
        }

        if (eof) {
            // Clean EOF at a frame boundary is a crashed worker;
            // leftover bytes mean its final frame was torn mid-write.
            s.tornFrame = s.rx.pending() > 0;
            workerLost(s);
        }
    };

    try {
        for (Slot &s : slots)
            spawnWorker(s, fn, opt.jobTimeout);

        while (completed < n) {
            const Clock::time_point now = Clock::now();

            // Promote retries whose backoff has elapsed.
            for (auto it = delayed.begin(); it != delayed.end();) {
                if (it->at <= now) {
                    ready.emplace_back(it->job, it->attempt);
                    it = delayed.erase(it);
                } else {
                    ++it;
                }
            }

            // Respawn dead slots while there is work to keep busy.
            std::size_t live = 0;
            for (const Slot &s : slots)
                if (s.pid >= 0)
                    ++live;
            const std::size_t outstanding = n - completed;
            for (Slot &s : slots) {
                if (live >= std::min(width, outstanding))
                    break;
                if (s.pid < 0) {
                    spawnWorker(s, fn, opt.jobTimeout);
                    ++live;
                }
            }

            // Dispatch ready cells to idle workers.
            for (Slot &s : slots) {
                if (ready.empty())
                    break;
                if (s.pid < 0 || s.busy)
                    continue;
                const auto [job, attempt] = ready.front();
                if (!writeFrame(s.toChild, FrameType::Job,
                                packJob(job, attempt))) {
                    // Worker died while idle; reap it, keep the cell
                    // queued, and let the respawn pass replace it.
                    workerLost(s);
                    continue;
                }
                ready.pop_front();
                s.busy = true;
                s.job = job;
                s.attempt = attempt;
                s.lastLive = Clock::now();
                s.terming = false;
                s.timedOut = false;
                s.sawGarbage = false;
                s.tornFrame = false;
            }

            // Enforce hard deadlines: SIGTERM at expiry, SIGKILL
            // after the grace period.
            for (Slot &s : slots) {
                if (s.pid < 0 || !s.busy)
                    continue;
                if (!s.terming && opt.jobTimeout > 0.0 &&
                    secondsSince(s.lastLive, now) > opt.jobTimeout) {
                    s.terming = true;
                    s.timedOut = true;
                    s.killAt = plusSeconds(now, opt.killGrace);
                    ::kill(s.pid, SIGTERM);
                } else if (s.terming && now >= s.killAt) {
                    ::kill(s.pid, SIGKILL);
                    // Death arrives as EOF on the result pipe.
                }
            }

            // Sleep until the next deadline, retry promotion, or
            // worker event.
            double wait = 0.5;
            for (const Slot &s : slots) {
                if (s.pid < 0 || !s.busy)
                    continue;
                if (s.terming)
                    wait = std::min(
                        wait, secondsSince(now, s.killAt));
                else if (opt.jobTimeout > 0.0)
                    wait = std::min(
                        wait, opt.jobTimeout -
                                  secondsSince(s.lastLive, now));
            }
            for (const Delayed &d : delayed)
                wait = std::min(wait, secondsSince(now, d.at));
            if (!ready.empty()) {
                // Idle workers exist only transiently here (all
                // dispatched above); a queued cell with every worker
                // busy just waits for an event.
                bool idle = false;
                for (const Slot &s : slots)
                    idle = idle || (s.pid >= 0 && !s.busy);
                if (idle)
                    wait = 0.0;
            }
            const int timeout_ms = std::max(
                10, static_cast<int>(std::ceil(wait * 1000.0)));

            std::vector<pollfd> fds;
            std::vector<std::size_t> owner;
            for (std::size_t i = 0; i < slots.size(); ++i) {
                if (slots[i].pid < 0)
                    continue;
                fds.push_back({slots[i].fromChild, POLLIN, 0});
                owner.push_back(i);
            }
            if (fds.empty())
                continue; // everything died; respawn next iteration
            const int rv =
                ::poll(fds.data(), (nfds_t)fds.size(), timeout_ms);
            if (rv < 0) {
                if (errno == EINTR)
                    continue;
                throw SimError(std::string("worker poll: ") +
                                   std::strerror(errno),
                               {"worker_proc", "", ""});
            }
            for (std::size_t i = 0; i < fds.size(); ++i) {
                if (fds[i].revents &
                    (POLLIN | POLLHUP | POLLERR)) {
                    Slot &s = slots[owner[i]];
                    if (s.pid >= 0)
                        onReadable(s);
                }
            }
        }
    } catch (...) {
        killAllWorkers(slots);
        throw;
    }

    // Orderly shutdown: a Shutdown frame (and the closed pipe behind
    // it) ends each worker's read loop.
    for (Slot &s : slots) {
        if (s.pid < 0)
            continue;
        writeFrame(s.toChild, FrameType::Shutdown, std::string());
        closeSlotPipes(s);
        reapWorker(s.pid);
        s.pid = -1;
    }
    return results;
}

} // namespace pinte
