#include "shard_queue.hh"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/atomic_file.hh"
#include "common/error.hh"
#include "common/json.hh"

namespace pinte
{

namespace
{

/** Read a whole file into `out`; false when it cannot be opened. */
bool
slurp(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    out = buf.str();
    return true;
}

void
makeDir(const std::string &path)
{
    if (::mkdir(path.c_str(), 0777) == 0 || errno == EEXIST)
        return;
    throw ConfigError("cannot create spool directory " + path + ": " +
                          std::strerror(errno),
                      {"shard_queue", path, ""});
}

std::string
leaseToJson(const Lease &l)
{
    std::ostringstream os;
    {
        JsonWriter w(os, 0);
        w.beginObject();
        w.member("schema", "pinte.spool.lease");
        w.member("shard", l.shard);
        w.member("token", std::uint64_t(l.token));
        w.member("pid", std::uint64_t(l.pid));
        w.member("host", l.host);
        w.member("deadline", l.deadline);
        w.endObject();
    }
    return os.str();
}

/** An unsigned integer a peer wrote, no larger than `max`. False, not
 *  a throw, on anything else: a reader of a dying peer's bytes must
 *  classify damage, not raise it. */
bool
uintOf(const JsonValue *v, std::uint64_t max, std::uint64_t &out)
{
    if (!v || !v->isNumber())
        return false;
    try {
        out = v->asU64();
    } catch (const Error &) {
        return false;
    }
    return out <= max;
}

constexpr std::uint64_t kU32Max = 0xffffffffull;
constexpr std::uint64_t kI64Max = 0x7fffffffffffffffull;

bool
leaseFromJson(const std::string &json, Lease &out)
{
    std::string err;
    const JsonValue v = parseJson(json, &err);
    if (!err.empty() || !v.isObject())
        return false;
    const JsonValue *shard = v.find("shard");
    const JsonValue *host = v.find("host");
    const JsonValue *deadline = v.find("deadline");
    std::uint64_t token = 0, pid = 0;
    if (!shard || !shard->isString() ||
        !uintOf(v.find("token"), kU32Max, token) ||
        !uintOf(v.find("pid"), kI64Max, pid) || !host ||
        !host->isString() || !deadline || !deadline->isNumber())
        return false;
    out.shard = shard->asString();
    out.token = static_cast<std::uint32_t>(token);
    out.pid = static_cast<std::int64_t>(pid);
    out.host = host->asString();
    out.deadline = deadline->asDouble();
    return true;
}

/** Decode the single frame a whole-file blob should contain. */
bool
decodeSingleFrame(const std::string &blob, FrameType want, Frame &out)
{
    FrameReassembly rx;
    rx.feed(blob.data(), blob.size());
    if (rx.next(out) != ReassemblyStatus::Frame)
        return false;
    return out.type == want;
}

} // namespace

double
spoolWallClock()
{
    struct timespec ts;
    ::clock_gettime(CLOCK_REALTIME, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string
spoolHostName()
{
    char buf[256] = {0};
    if (::gethostname(buf, sizeof(buf) - 1) != 0)
        return "unknown-host";
    return buf;
}

Spool::Spool(std::string root) : root_(std::move(root))
{
    makeDir(root_);
    makeDir(root_ + "/shards");
    makeDir(root_ + "/leases");
    makeDir(root_ + "/results");
    makeDir(root_ + "/done");
    makeDir(root_ + "/baselines");
}

std::string
Spool::shardFile(const std::string &id) const
{
    return root_ + "/shards/" + id + ".shard";
}

std::string
Spool::leaseFile(const std::string &id, std::uint32_t token) const
{
    return root_ + "/leases/" + id + ".t" + std::to_string(token) +
           ".lease";
}

std::string
Spool::resultFile(const std::string &id, std::uint32_t token) const
{
    return root_ + "/results/" + id + ".t" + std::to_string(token);
}

std::string
Spool::doneFile(const std::string &id) const
{
    return root_ + "/done/" + id + ".done";
}

bool
Spool::hasCampaign() const
{
    struct stat st;
    return ::stat((root_ + "/campaign.json").c_str(), &st) == 0;
}

void
Spool::writeCampaign(const std::string &json)
{
    AtomicFile f(root_ + "/campaign.json");
    f.stream() << json;
    f.commit();
}

std::string
Spool::readCampaign() const
{
    std::string text;
    if (!slurp(root_ + "/campaign.json", text))
        throw ConfigError("spool has no campaign document: " + root_,
                          {"shard_queue", root_, ""});
    return text;
}

void
Spool::publishShard(const ShardSpec &s)
{
    AtomicFile f(shardFile(s.id));
    f.stream() << encodeFrame(FrameType::Shard, shardToJson(s));
    f.commit();
}

std::vector<std::string>
Spool::listShardIds() const
{
    std::vector<std::string> ids;
    DIR *d = ::opendir((root_ + "/shards").c_str());
    if (!d)
        return ids;
    while (struct dirent *e = ::readdir(d)) {
        const std::string name = e->d_name;
        const std::string suffix = ".shard";
        if (name.size() > suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0)
            ids.push_back(name.substr(0, name.size() - suffix.size()));
    }
    ::closedir(d);
    std::sort(ids.begin(), ids.end());
    return ids;
}

bool
Spool::readShard(const std::string &id, ShardSpec &out) const
{
    std::string blob;
    if (!slurp(shardFile(id), blob))
        return false;
    Frame f;
    if (!decodeSingleFrame(blob, FrameType::Shard, f))
        return false;
    return shardFromJson(f.payload, out);
}

bool
Spool::claimLease(const ShardSpec &s, double ttl, Lease &out)
{
    out.shard = s.id;
    out.token = s.token;
    out.pid = static_cast<std::int64_t>(::getpid());
    out.host = spoolHostName();
    out.deadline = spoolWallClock() + ttl;
    const std::string json = leaseToJson(out);
    // Two-phase atomic claim: stage the lease whole under a private
    // name, then link() it into place. link() fails with EEXIST when
    // another claimant won, and a claimer SIGKILLed at any instant
    // leaves either no lease file or a complete one — never a torn
    // claim that would block every future claim while parsing as
    // nothing. (Staging litter is swept when the token moves on.)
    const std::string path = leaseFile(s.id, s.token);
    const std::string tmp =
        path + ".claim." + out.host + "." + std::to_string(out.pid);
    const int fd =
        ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0666);
    if (fd < 0)
        return false;
    const bool ok =
        ::write(fd, json.data(), json.size()) ==
        static_cast<::ssize_t>(json.size());
    ::fsync(fd);
    ::close(fd);
    if (!ok) {
        ::unlink(tmp.c_str());
        return false;
    }
    const bool won = ::link(tmp.c_str(), path.c_str()) == 0;
    ::unlink(tmp.c_str());
    return won;
}

LeaseProbe
Spool::probeLease(const std::string &id, std::uint32_t token,
                  Lease &out, double *mtime) const
{
    const std::string path = leaseFile(id, token);
    struct stat st;
    if (::stat(path.c_str(), &st) != 0)
        return LeaseProbe::Absent;
    if (mtime)
        *mtime = static_cast<double>(st.st_mtim.tv_sec) +
                 static_cast<double>(st.st_mtim.tv_nsec) * 1e-9;
    std::string text;
    if (!slurp(path, text))
        return LeaseProbe::Absent; // unlinked under us: claimable
    Lease l;
    if (!leaseFromJson(text, l) || l.shard != id || l.token != token)
        return LeaseProbe::Corrupt;
    out = l;
    return LeaseProbe::Valid;
}

bool
Spool::readLease(const std::string &id, std::uint32_t token,
                 Lease &out) const
{
    return probeLease(id, token, out) == LeaseProbe::Valid;
}

bool
Spool::renewLease(const Lease &l, double ttl)
{
    // Verify the claim still stands before rewriting: the broker may
    // have reclaimed the shard (bumped its token and swept this
    // lease) behind our back. The lease path carries the token, so
    // this rewrite can never land on the backoff lease or a new
    // claimant's lease — those live at the bumped token's path.
    Lease cur;
    if (!readLease(l.shard, l.token, cur))
        return false;
    if (cur.pid != l.pid || cur.host != l.host)
        return false;
    ShardSpec s;
    if (!readShard(l.shard, s) || s.token != l.token)
        return false;
    Lease renewed = l;
    renewed.deadline = spoolWallClock() + ttl;
    AtomicFile f(leaseFile(l.shard, l.token));
    f.stream() << leaseToJson(renewed);
    f.commit();
    // A reclamation that raced the commit above has already swept
    // this path; the rename just resurrected a file at a
    // superseded-token path nobody reads. Detect, clean up after
    // ourselves, and abandon.
    if (!readShard(l.shard, s) || s.token != l.token) {
        ::unlink(leaseFile(l.shard, l.token).c_str());
        return false;
    }
    return true;
}

void
Spool::releaseLease(const Lease &l)
{
    Lease cur;
    if (!readLease(l.shard, l.token, cur))
        return;
    if (cur.pid == l.pid && cur.host == l.host)
        ::unlink(leaseFile(l.shard, l.token).c_str());
}

void
Spool::breakLease(const std::string &id, std::uint32_t token)
{
    ::unlink(leaseFile(id, token).c_str());
}

void
Spool::imposeLease(const Lease &l)
{
    AtomicFile f(leaseFile(l.shard, l.token));
    f.stream() << leaseToJson(l);
    f.commit();
}

void
Spool::sweepStaleLeases(const std::string &id, std::uint32_t curToken)
{
    const std::string dir = root_ + "/leases";
    DIR *d = ::opendir(dir.c_str());
    if (!d)
        return;
    const std::string prefix = id + ".t";
    while (struct dirent *e = ::readdir(d)) {
        const std::string name = e->d_name;
        if (name.compare(0, prefix.size(), prefix) != 0)
            continue;
        char *end = nullptr;
        const unsigned long long tok =
            std::strtoull(name.c_str() + prefix.size(), &end, 10);
        if (end == name.c_str() + prefix.size() || *end != '.')
            continue;
        if (tok < curToken)
            ::unlink((dir + "/" + name).c_str());
    }
    ::closedir(d);
}

void
Spool::markDone(const std::string &id, std::uint32_t token)
{
    AtomicFile f(doneFile(id));
    f.stream() << token << "\n";
    f.commit();
}

bool
Spool::readDone(const std::string &id, std::uint32_t &token) const
{
    std::string text;
    if (!slurp(doneFile(id), text))
        return false;
    try {
        token = static_cast<std::uint32_t>(std::stoul(text));
    } catch (...) {
        return false;
    }
    return true;
}

void
Spool::clearDone(const std::string &id)
{
    ::unlink(doneFile(id).c_str());
}

void
Spool::markComplete()
{
    AtomicFile f(root_ + "/complete");
    f.stream() << "complete\n";
    f.commit();
}

bool
Spool::complete() const
{
    struct stat st;
    return ::stat((root_ + "/complete").c_str(), &st) == 0;
}

std::string
Spool::contentHash(const std::string &key)
{
    // FNV-1a 64: tiny, stable, and collision-checked at load time (the
    // baseline file stores the full key), so quality only affects the
    // miss rate, never correctness.
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : key) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

bool
Spool::loadBaseline(const std::string &key, std::string &runJson) const
{
    std::string blob;
    if (!slurp(root_ + "/baselines/" + contentHash(key) + ".json",
               blob))
        return false;
    Frame f;
    if (!decodeSingleFrame(blob, FrameType::Record, f))
        return false;
    SpoolRecord rec;
    if (!unpackRecord(f.payload, rec) || rec.key != key)
        return false;
    runJson = rec.runJson;
    return true;
}

void
Spool::storeBaseline(const std::string &key, const std::string &runJson)
{
    SpoolRecord rec;
    rec.key = key;
    rec.runJson = runJson;
    AtomicFile f(root_ + "/baselines/" + contentHash(key) + ".json");
    f.stream() << encodeFrame(FrameType::Record, packRecord(rec));
    f.commit();
}

std::string
shardToJson(const ShardSpec &s)
{
    std::ostringstream os;
    {
        JsonWriter w(os, 0);
        w.beginObject();
        w.member("schema", "pinte.spool.shard");
        w.member("id", s.id);
        w.member("fingerprint", s.fingerprint);
        w.member("token", std::uint64_t(s.token));
        w.member("attempt", std::uint64_t(s.attempt));
        w.member("budget", std::uint64_t(s.budget));
        w.key("cells");
        w.beginArray();
        for (const std::uint64_t c : s.cells)
            w.value(c);
        w.endArray();
        w.key("attempt_log");
        w.beginArray();
        for (const std::string &line : s.attemptLog)
            w.value(line);
        w.endArray();
        w.endObject();
    }
    return os.str();
}

bool
shardFromJson(const std::string &json, ShardSpec &out)
{
    std::string err;
    const JsonValue v = parseJson(json, &err);
    if (!err.empty() || !v.isObject())
        return false;
    const JsonValue *id = v.find("id");
    const JsonValue *fp = v.find("fingerprint");
    const JsonValue *cells = v.find("cells");
    const JsonValue *log = v.find("attempt_log");
    std::uint64_t token = 0, attempt = 0, budget = 0;
    if (!id || !id->isString() || !fp || !fp->isString() ||
        !uintOf(v.find("token"), kU32Max, token) ||
        !uintOf(v.find("attempt"), kU32Max, attempt) ||
        !uintOf(v.find("budget"), kU32Max, budget) || !cells ||
        !cells->isArray() || !log || !log->isArray())
        return false;
    out.id = id->asString();
    out.fingerprint = fp->asString();
    out.token = static_cast<std::uint32_t>(token);
    out.attempt = static_cast<std::uint32_t>(attempt);
    out.budget = static_cast<std::uint32_t>(budget);
    out.cells.clear();
    for (const JsonValue &c : cells->array) {
        std::uint64_t cell = 0;
        if (!uintOf(&c, ~std::uint64_t{0}, cell))
            return false;
        out.cells.push_back(cell);
    }
    out.attemptLog.clear();
    for (const JsonValue &line : log->array) {
        if (!line.isString())
            return false;
        out.attemptLog.push_back(line.asString());
    }
    return true;
}

std::string
packRecord(const SpoolRecord &rec)
{
    std::string p;
    p.reserve(20 + rec.key.size() + rec.runJson.size());
    wirePutU64(p, rec.cell);
    wirePutU32(p, rec.token);
    wirePutU32(p, static_cast<std::uint32_t>(rec.key.size()));
    p += rec.key;
    wirePutU32(p, static_cast<std::uint32_t>(rec.runJson.size()));
    p += rec.runJson;
    return p;
}

bool
unpackRecord(const std::string &payload, SpoolRecord &out)
{
    const unsigned char *p =
        reinterpret_cast<const unsigned char *>(payload.data());
    std::size_t n = payload.size();
    if (n < 20)
        return false;
    out.cell = wireGetU64(p);
    out.token = wireGetU32(p + 8);
    const std::uint32_t keyLen = wireGetU32(p + 12);
    if (16 + std::size_t(keyLen) + 4 > n)
        return false;
    out.key.assign(payload, 16, keyLen);
    const std::uint32_t runLen = wireGetU32(p + 16 + keyLen);
    if (16 + std::size_t(keyLen) + 4 + runLen != n)
        return false;
    out.runJson.assign(payload, 20 + keyLen, runLen);
    return true;
}

ResultAppender::ResultAppender(const Spool &spool,
                               const std::string &id,
                               std::uint32_t token)
{
    const std::string path = spool.resultFile(id, token);
    fd_ = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0666);
    if (fd_ < 0)
        throw SimError("cannot open result stream " + path + ": " +
                           std::strerror(errno),
                       {"shard_queue", path, ""});
}

ResultAppender::~ResultAppender()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
ResultAppender::append(const SpoolRecord &rec, bool torn_prefix)
{
    std::string frame = encodeFrame(FrameType::Record, packRecord(rec));
    if (torn_prefix)
        frame.resize(frame.size() / 2);
    // One write per frame: O_APPEND makes concurrent appenders safe
    // (there are none by design — one token, one owner — but a stale
    // worker racing its own reclamation must still not interleave
    // bytes inside another record).
    const char *data = frame.data();
    std::size_t len = frame.size();
    while (len) {
        const ::ssize_t n = ::write(fd_, data, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += n;
        len -= static_cast<std::size_t>(n);
    }
    return ::fsync(fd_) == 0 || errno == EINVAL;
}

void
StreamScanner::poll(const std::string &id, std::uint32_t token,
                    std::vector<SpoolRecord> &out)
{
    Stream &st = streams_[id];
    if (st.token != token) {
        // Reclamation moved the shard to a new token; the old stream
        // is fenced off and never read again.
        st = Stream();
        st.token = token;
    }
    if (st.dead)
        return;
    std::ifstream in(spool_->resultFile(id, token), std::ios::binary);
    if (!in)
        return;
    in.seekg(static_cast<std::streamoff>(st.offset));
    if (!in)
        return;
    char buf[65536];
    for (;;) {
        in.read(buf, sizeof(buf));
        const std::streamsize got = in.gcount();
        if (got <= 0)
            break;
        st.rx.feed(buf, static_cast<std::size_t>(got));
        st.offset += static_cast<std::size_t>(got);
    }
    for (;;) {
        Frame f;
        const ReassemblyStatus rs = st.rx.next(f);
        if (rs == ReassemblyStatus::NeedMore)
            break;
        if (rs == ReassemblyStatus::Garbage) {
            st.dead = true;
            break;
        }
        SpoolRecord rec;
        if (f.type != FrameType::Record ||
            !unpackRecord(f.payload, rec)) {
            st.dead = true;
            break;
        }
        out.push_back(std::move(rec));
    }
}

void
StreamScanner::forget(const std::string &id)
{
    streams_.erase(id);
}

} // namespace pinte
