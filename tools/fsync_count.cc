/**
 * @file
 * LD_PRELOAD shim that counts a process's fsync() and fdatasync()
 * calls and writes the total to stderr when the process exits, one
 * line per process:
 *
 *     pinte-fsync-count role=worker pid=4242 calls=48
 *
 * `role` is "worker" for a `pintesim --worker` process and for any
 * process forked from the one that loaded the shim (the broker's
 * local workers), and "main" for anything else. Forked workers leave
 * through _exit(), which runs no destructors, so the shim reports from
 * an _exit()/_Exit() hook as well as at normal exit.
 * check_fsync_budget.cmake preloads it into spool sweeps and holds the
 * workers to their per-cell fsync budget. Not usable in sanitizer
 * builds, whose runtime must be the first library loaded.
 */

#include <dlfcn.h>
#include <pthread.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>

namespace
{

std::atomic<unsigned long> calls{0};
bool forked = false;   // this process is a fork of the one that loaded us
bool reported = false; // the count is written once per process

template <typename Fn>
Fn
realFn(const char *name)
{
    return reinterpret_cast<Fn>(::dlsym(RTLD_NEXT, name));
}

/** True when this process is a forked child or its argv carries
 *  `--worker`. */
bool
isWorker()
{
    if (forked)
        return true;
    std::FILE *f = std::fopen("/proc/self/cmdline", "rb");
    if (!f)
        return false;
    char buf[4096];
    const std::size_t n = std::fread(buf, 1, sizeof(buf), f);
    std::fclose(f);
    for (std::size_t i = 0; i < n;) {
        const char *arg = buf + i;
        const std::size_t len = ::strnlen(arg, n - i);
        if (len == 8 && std::memcmp(arg, "--worker", 8) == 0)
            return true;
        i += len + 1;
    }
    return false;
}

__attribute__((constructor)) void
watchForks()
{
    // A fork starts counting its own calls from zero.
    ::pthread_atfork(nullptr, nullptr, [] {
        forked = true;
        calls = 0;
    });
}

__attribute__((destructor)) void
report()
{
    if (reported)
        return;
    reported = true;
    char line[128];
    const int len = std::snprintf(
        line, sizeof(line), "pinte-fsync-count role=%s pid=%ld calls=%lu\n",
        isWorker() ? "worker" : "main", static_cast<long>(::getpid()),
        calls.load());
    if (len > 0) {
        const ::ssize_t written =
            ::write(2, line, static_cast<std::size_t>(len));
        (void)written; // nowhere left to report a failed write
    }
}

} // namespace

extern "C" int
fsync(int fd)
{
    static const auto real = realFn<int (*)(int)>("fsync");
    ++calls;
    return real(fd);
}

extern "C" [[noreturn]] void
_exit(int status)
{
    static const auto real = realFn<void (*)(int)>("_exit");
    report();
    real(status);
    __builtin_unreachable();
}

extern "C" [[noreturn]] void
_Exit(int status)
{
    static const auto real = realFn<void (*)(int)>("_Exit");
    report();
    real(status);
    __builtin_unreachable();
}

extern "C" int
fdatasync(int fd)
{
    static const auto real = realFn<int (*)(int)>("fdatasync");
    ++calls;
    return real(fd);
}
