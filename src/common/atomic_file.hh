/**
 * @file
 * Crash-safe file writes: write-to-temp + fsync + atomic rename.
 *
 * Every artifact the tools emit (--out reports, trace files, the
 * resume journal's initial truncation) goes through this class so a
 * crash or SIGKILL mid-write can never leave a half-written file at
 * the destination path: readers either see the complete new content
 * or nothing/the previous content. The temp file lives next to the
 * target (`path` + ".tmp") so the final rename stays within one
 * filesystem; an uncommitted temp is unlinked by the destructor.
 *
 * A target that exists and is not a regular file (symlinks followed:
 * /dev/null, a FIFO, a terminal) is written in place instead: no
 * temp, no rename over the node, no fsync of a device.
 */

#ifndef PINTE_COMMON_ATOMIC_FILE_HH
#define PINTE_COMMON_ATOMIC_FILE_HH

#include <fstream>
#include <ostream>
#include <string>

namespace pinte
{

/** Writer whose content only appears at `path` after commit(). */
class AtomicFile
{
  public:
    /**
     * Open `path` + ".tmp" for writing (truncating any stale temp
     * left by a crashed predecessor), or `path` itself when it is not
     * a regular file.
     * @throws ConfigError when the file cannot be opened
     */
    explicit AtomicFile(std::string path);

    AtomicFile(const AtomicFile &) = delete;
    AtomicFile &operator=(const AtomicFile &) = delete;

    /** Discards the temp file if commit() was never reached. */
    ~AtomicFile();

    /** The stream to write content into. */
    std::ostream &stream() { return out_; }

    /** Destination path this writer will publish to. */
    const std::string &path() const { return path_; }

    /**
     * Flush, fsync, and atomically rename the temp file onto `path`
     * (then fsync the containing directory so the rename is durable);
     * for an in-place target, flush and close only.
     * Idempotent; a failure leaves a regular destination untouched.
     * @throws SimError on any I/O failure
     */
    void commit();

  private:
    std::string path_;
    std::string tmp_;
    std::ofstream out_;
    bool committed_ = false;
};

} // namespace pinte

#endif // PINTE_COMMON_ATOMIC_FILE_HH
