#include "spool_wait.hh"

#include <poll.h>
#include <sys/inotify.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstring>

#include "common/logging.hh"
#include "sim/shard_queue.hh"

namespace pinte
{

namespace
{

/** Every change a spool writer can make: AtomicFile renames, link()ed
 *  claims, unlinked leases and markers, result-stream appends. */
constexpr std::uint32_t kSpoolEvents = IN_CREATE | IN_MOVED_TO |
                                       IN_MOVED_FROM | IN_DELETE |
                                       IN_MODIFY | IN_CLOSE_WRITE;

int
openPidfd(pid_t pid)
{
#ifdef SYS_pidfd_open
    // pidfds are close-on-exec, so later children never inherit them.
    return static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
#else
    (void)pid;
    errno = ENOSYS;
    return -1;
#endif
}

} // namespace

SpoolWaiter::SpoolWaiter(const std::string &root)
{
    inotify_ = ::inotify_init1(IN_NONBLOCK | IN_CLOEXEC);
    if (inotify_ < 0) {
        degrade(std::string("inotify_init1: ") + std::strerror(errno));
        return;
    }
    for (const char *sub : {"", "/shards", "/leases", "/results", "/done"}) {
        const std::string dir = root + sub;
        if (::inotify_add_watch(inotify_, dir.c_str(), kSpoolEvents) < 0) {
            degrade("inotify_add_watch " + dir + ": " +
                    std::strerror(errno));
            ::close(inotify_);
            inotify_ = -1;
            return;
        }
    }
}

SpoolWaiter::~SpoolWaiter()
{
    if (inotify_ >= 0)
        ::close(inotify_);
    for (const auto &c : children_)
        ::close(c.second);
}

void
SpoolWaiter::degrade(const std::string &why)
{
    if (warned_)
        return;
    warned_ = true;
    warn("spool waits fall back to timed polling (" + why + ")");
}

void
SpoolWaiter::watchChild(pid_t pid)
{
    const int fd = openPidfd(pid);
    if (fd < 0) {
        degrade("pidfd_open: " + std::string(std::strerror(errno)));
        return;
    }
    children_.emplace_back(pid, fd);
}

void
SpoolWaiter::forgetChild(pid_t pid)
{
    const auto it =
        std::find_if(children_.begin(), children_.end(),
                     [&](const auto &c) { return c.first == pid; });
    if (it == children_.end())
        return;
    ::close(it->second);
    children_.erase(it);
}

void
SpoolWaiter::drain()
{
    if (inotify_ < 0)
        return;
    alignas(struct inotify_event) char buf[4096];
    while (::read(inotify_, buf, sizeof(buf)) > 0) {
    }
}

void
SpoolWaiter::wait(double deadline)
{
    std::vector<struct pollfd> fds;
    if (inotify_ >= 0)
        fds.push_back({inotify_, POLLIN, 0});
    for (const auto &c : children_)
        fds.push_back({c.second, POLLIN, 0});
    // Round up, so a wake never lands just before the deadline it was
    // set for and turns into a zero-timeout spin.
    const double left = std::ceil((deadline - spoolWallClock()) * 1e3);
    const int ms = left <= 0.0 ? 0
                   : left >= static_cast<double>(INT_MAX)
                       ? INT_MAX
                       : static_cast<int>(left);
    // EINTR simply ends the wait early: the caller rescans anyway.
    ::poll(fds.data(), fds.size(), ms);
    drain();
}

} // namespace pinte
