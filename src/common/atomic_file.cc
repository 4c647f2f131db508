#include "atomic_file.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>

#include "common/error.hh"
#include "common/fault.hh"

namespace pinte
{

namespace
{

/** fsync a path (file or directory); best-effort for directories. */
void
syncPath(const std::string &path, bool required)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        if (required)
            throw SimError("cannot fsync '" + path + "'",
                           {"atomic_file", path, ""});
        return;
    }
    const int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0 && required)
        throw SimError("fsync failed for '" + path + "'",
                       {"atomic_file", path, ""});
}

std::string
parentDir(const std::string &path)
{
    const auto slash = path.find_last_of('/');
    if (slash == std::string::npos)
        return ".";
    if (slash == 0)
        return "/";
    return path.substr(0, slash);
}

/** True when `path` (symlinks followed) exists and is not a regular
 *  file: a device, a FIFO, a socket or a directory. */
bool
isSpecial(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode);
}

} // namespace

AtomicFile::AtomicFile(std::string path)
    : path_(std::move(path)),
      tmp_(isSpecial(path_) ? path_ : path_ + ".tmp"), out_(tmp_)
{
    if (!out_)
        throw ConfigError("cannot open '" + tmp_ + "' for writing",
                          {"atomic_file", path_, ""});
}

AtomicFile::~AtomicFile()
{
    if (!committed_) {
        out_.close();
        if (tmp_ != path_)
            std::remove(tmp_.c_str());
    }
}

void
AtomicFile::commit()
{
    if (committed_)
        return;
    out_.flush();
    if (!out_)
        throw SimError("write failed for '" + tmp_ + "'",
                       {"atomic_file", path_, ""});
    out_.close();
    if (faultInjected("report-write"))
        throw SimError("injected fault: report-write at '" + path_ +
                           "'",
                       {"atomic_file", path_, ""});
    if (tmp_ == path_) { // written in place: nothing to rename or sync
        committed_ = true;
        return;
    }
    syncPath(tmp_, true);
    if (std::rename(tmp_.c_str(), path_.c_str()) != 0)
        throw SimError("cannot rename '" + tmp_ + "' to '" + path_ +
                           "'",
                       {"atomic_file", path_, ""});
    // Make the rename itself durable; a missing/odd parent (e.g. on
    // exotic filesystems) is not worth failing a finished campaign.
    syncPath(parentDir(path_), false);
    committed_ = true;
}

} // namespace pinte
