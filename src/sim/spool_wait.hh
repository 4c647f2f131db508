/**
 * @file
 * Event wake-ups for the spool's wait loops (sim/broker.hh).
 *
 * A SpoolWaiter holds one inotify descriptor watching the spool root
 * and its shards/, leases/, results/ and done/ directories, plus one
 * pidfd per local child it was told about. wait() blocks in a single
 * poll() until a file in those directories changes, a watched child
 * exits, or the deadline passes, then drains every queued event and
 * returns. The events' contents are never read: callers rescan the
 * spool after every wake, so a lost or merged event can only delay a
 * wake until the deadline, never change what the scan decides.
 *
 * The deadline is the caller's fallback ceiling (the broker's
 * pollInterval, a worker's idlePoll): it is what wakes a loop for
 * writers inotify cannot see, such as workers on other hosts writing
 * over NFS. When inotify or a pidfd cannot be set up, the waiter
 * warns once and the wait degrades to exactly that timed sleep.
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
    /** Arm the watches on `root` (an existing spool directory tree).
     *  Arm before the first scan, so nothing that happens during the
     *  scan can be missed by the next wait(). */
    explicit SpoolWaiter(const std::string &root);
    ~SpoolWaiter();
    SpoolWaiter(const SpoolWaiter &) = delete;
    SpoolWaiter &operator=(const SpoolWaiter &) = delete;

    /** Wake on the exit of child `pid` (forked, not yet reaped). */
    void watchChild(pid_t pid);

    /** Stop watching `pid`; call once it is reaped, since an exited
     *  child's pidfd stays readable until closed. */
    void forgetChild(pid_t pid);

    /** Discard every queued file event. */
    void drain();

    /** Block until a file event, a watched child's exit, or
     *  `deadline` (spoolWallClock() seconds), then drain(). */
    void wait(double deadline);

  private:
    void degrade(const std::string &why);

    int inotify_ = -1;
    std::vector<std::pair<pid_t, int>> children_; //!< pid, pidfd
    bool warned_ = false;
};

} // namespace pinte

#endif // PINTE_SIM_SPOOL_WAIT_HH
