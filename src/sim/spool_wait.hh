/**
 * @file
 * Event wake-ups for the spool's wait loops (sim/broker.hh).
 *
 * A SpoolWaiter blocks in a single poll() until one of its sources
 * fires or a deadline passes:
 *  - file watches: one inotify descriptor on the spool root and its
 *    shards/, leases/ and results/ directories, armed only
 *    where a writer the waiter's owner did not fork can exist (a
 *    hand-started worker, or a broker that sees one);
 *  - one pidfd per local child it was told about;
 *  - channels (socket pairs): the broker's forked workers send a byte
 *    to one the broker holds after each record, and each of them
 *    reads one of its own whose EOF means the campaign is over.
 * The events' contents are never read: callers rescan the spool after
 * every wake, so a lost or merged event can only delay a wake until
 * the deadline, never change what the scan decides.
 *
 * The deadline is the caller's fallback ceiling (the broker's
 * pollInterval, a worker's idlePoll): it is what wakes a loop for
 * writers no source can see, such as workers on other hosts writing
 * over NFS. When inotify or a pidfd cannot be set up, the waiter
 * warns once and the wait degrades to exactly that timed sleep.
 *
 * Teardown of file watches is not free: closing an inotify descriptor
 * that held watches (which a process's exit also does) waits for a
 * kernel RCU grace period, 0.1-20 ms on a shared 4-vCPU VM, unless the
 * watches went some 30 ms earlier. That is why the broker's forked
 * workers carry none, and why a process that is about to wait only on
 * children drops its file watches first (dropFileWatches), letting
 * that grace period run while it waits.
 */

#ifndef PINTE_SIM_SPOOL_WAIT_HH
#define PINTE_SIM_SPOOL_WAIT_HH

#include <string>
#include <utility>
#include <vector>

#include <sys/types.h>

namespace pinte
{

class SpoolWaiter
{
  public:
    /** A waiter with no sources yet: it wakes on the deadline. */
    SpoolWaiter() = default;
    /** A waiter with file watches on `root` (watchFiles). */
    explicit SpoolWaiter(const std::string &root) { watchFiles(root); }
    ~SpoolWaiter();
    SpoolWaiter(const SpoolWaiter &) = delete;
    SpoolWaiter &operator=(const SpoolWaiter &) = delete;

    /** Arm the file watches on `root` (an existing spool directory
     *  tree); a no-op once armed. Arm before the scan that must not
     *  be missed: whatever changes after this call either shows in
     *  that scan or wakes the next wait(). */
    void watchFiles(const std::string &root);

    /** True once watchFiles() was called (armed, or degraded to the
     *  deadline). */
    bool watchingFiles() const { return filesArmed_; }

    /** Wake when `fd` (the caller's; a channel end) turns readable or
     *  hangs up. The caller drains it. */
    void watchFd(int fd) { fds_.push_back(fd); }

    /** Wake on the exit of child `pid` (forked, not yet reaped). */
    void watchChild(pid_t pid);

    /** Stop watching `pid`; call once it is reaped, since an exited
     *  child's pidfd stays readable until closed. */
    void forgetChild(pid_t pid);

    /** Stop watching the spool's directories, keeping the child
     *  pidfds: later waits end on a child's exit or the deadline. */
    void dropFileWatches();

    /** In a forked child: close the descriptors this waiter owns. The
     *  parent keeps its own copies, so nothing is torn down for it. */
    void closeInChild();

    /** Discard every queued file event. */
    void drain();

    /** Block until a file event, a watched fd, a watched child's
     *  exit, or `deadline` (spoolWallClock() seconds), then drain(). */
    void wait(double deadline);

  private:
    void degrade(const std::string &why);

    int inotify_ = -1;
    std::vector<int> watches_; //!< inotify watch descriptors
    std::vector<int> fds_;     //!< the caller's channel ends
    std::vector<std::pair<pid_t, int>> children_; //!< pid, pidfd
    bool filesArmed_ = false;
    bool warned_ = false;
};

} // namespace pinte

#endif // PINTE_SIM_SPOOL_WAIT_HH
