#include "snapshot.hh"

#include <cstring>
#include <fstream>
#include <sstream>

#include "common/atomic_file.hh"
#include "common/crc32.hh"
#include "common/error.hh"

namespace pinte
{

namespace
{

/** 'PNTESNAP' little-endian; rejects non-snapshot files at open. */
constexpr std::uint64_t snapshotMagic = 0x50414e5345544e50ull;

} // namespace

void
SnapshotWriter::put32(std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
SnapshotWriter::put64(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
SnapshotWriter::putDouble(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    put64(bits);
}

void
SnapshotWriter::putString(const std::string &s)
{
    put64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
}

void
SnapshotWriter::putVec64(const std::vector<std::uint64_t> &v)
{
    put64(v.size());
    for (const std::uint64_t x : v)
        put64(x);
}

void
SnapshotWriter::putVec8(const std::vector<std::uint8_t> &v)
{
    put64(v.size());
    buf_.insert(buf_.end(), v.begin(), v.end());
}

void
SnapshotWriter::putVecBool(const std::vector<bool> &v)
{
    put64(v.size());
    for (const bool b : v)
        put8(b ? 1 : 0);
}

void
SnapshotReader::need(std::size_t n) const
{
    if (buf_.size() - pos_ < n)
        throw SimError("snapshot payload truncated",
                       {"snapshot", "", std::to_string(pos_)});
}

std::uint8_t
SnapshotReader::get8()
{
    need(1);
    return buf_[pos_++];
}

std::uint32_t
SnapshotReader::get32()
{
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= std::uint32_t(buf_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return v;
}

std::uint64_t
SnapshotReader::get64()
{
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= std::uint64_t(buf_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
}

double
SnapshotReader::getDouble()
{
    const std::uint64_t bits = get64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::size_t
SnapshotReader::getCount(std::size_t elementBytes)
{
    const std::uint64_t n = get64();
    if (remaining() / elementBytes < n)
        throw SimError("snapshot payload truncated",
                       {"snapshot", "", std::to_string(n)});
    return static_cast<std::size_t>(n);
}

void
SnapshotReader::getCountOf(std::size_t expected,
                           const std::string &component)
{
    const std::uint64_t n = get64();
    if (n != expected)
        throw SimError("snapshot array has " + std::to_string(n) +
                           " elements where the configuration has " +
                           std::to_string(expected),
                       {component, "", std::to_string(n)});
}

void
SnapshotReader::getVec64Into(std::vector<std::uint64_t> &v,
                             const std::string &component)
{
    getCountOf(v.size(), component);
    for (std::uint64_t &x : v)
        x = get64();
}

void
SnapshotReader::getVec8Into(std::vector<std::uint8_t> &v,
                            const std::string &component,
                            std::uint8_t maxValue)
{
    getCountOf(v.size(), component);
    for (std::uint8_t &x : v)
        if ((x = get8()) > maxValue)
            throw SimError("snapshot byte " + std::to_string(x) +
                               " is above its maximum " +
                               std::to_string(maxValue),
                           {component, "", std::to_string(x)});
}

std::string
SnapshotReader::getString()
{
    const std::size_t n = getCount(1);
    std::string s(buf_.begin() + pos_, buf_.begin() + pos_ + n);
    pos_ += n;
    return s;
}

std::vector<std::uint64_t>
SnapshotReader::getVec64()
{
    const std::size_t n = getCount(8);
    std::vector<std::uint64_t> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        v.push_back(get64());
    return v;
}

std::vector<std::uint8_t>
SnapshotReader::getVec8()
{
    const std::size_t n = getCount(1);
    std::vector<std::uint8_t> v(buf_.begin() + pos_,
                                buf_.begin() + pos_ + n);
    pos_ += n;
    return v;
}

std::vector<bool>
SnapshotReader::getVecBool()
{
    const std::size_t n = getCount(1);
    std::vector<bool> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        v.push_back(get8() != 0);
    return v;
}

void
writeSnapshotFile(const std::string &path,
                  const std::string &fingerprint,
                  const std::vector<std::uint8_t> &payload)
{
    SnapshotWriter head;
    head.put64(snapshotMagic);
    head.put32(snapshotFormatVersion);
    head.putString(fingerprint);
    head.put64(payload.size());

    std::uint32_t crc = 0;
    crc = crc32(crc, head.bytes().data(), head.bytes().size());
    crc = crc32(crc, payload.data(), payload.size());

    AtomicFile file(path);
    std::ostream &os = file.stream();
    os.write(reinterpret_cast<const char *>(head.bytes().data()),
             static_cast<std::streamsize>(head.bytes().size()));
    os.write(reinterpret_cast<const char *>(payload.data()),
             static_cast<std::streamsize>(payload.size()));
    SnapshotWriter tail;
    tail.put32(crc);
    os.write(reinterpret_cast<const char *>(tail.bytes().data()),
             static_cast<std::streamsize>(tail.bytes().size()));
    if (!os)
        throw SimError("snapshot write failed: " + path,
                       {"snapshot", path, ""});
    file.commit();
}

std::vector<std::uint8_t>
readSnapshotFile(const std::string &path,
                 const std::string &expect_fingerprint)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw SimError("cannot open snapshot: " + path,
                       {"snapshot", path, ""});
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string raw = ss.str();

    // The CRC footer covers everything before it.
    if (raw.size() < 4)
        throw SimError("snapshot file truncated: " + path,
                       {"snapshot", path, std::to_string(raw.size())});
    const std::size_t body = raw.size() - 4;
    std::uint32_t stored = 0;
    for (int i = 0; i < 4; ++i)
        stored |= std::uint32_t(std::uint8_t(raw[body + i])) << (8 * i);
    const std::uint32_t computed = crc32(raw.data(), body);
    if (stored != computed)
        throw SimError("snapshot CRC mismatch: " + path,
                       {"snapshot", path, std::to_string(stored)});

    SnapshotReader r(std::vector<std::uint8_t>(raw.begin(),
                                               raw.begin() + body));
    if (r.get64() != snapshotMagic)
        throw SimError("not a snapshot file: " + path,
                       {"snapshot", path, ""});
    const std::uint32_t version = r.get32();
    if (version != snapshotFormatVersion)
        throw SimError("snapshot format version " +
                           std::to_string(version) + " unsupported: " +
                           path,
                       {"snapshot", path, std::to_string(version)});
    const std::string fingerprint = r.getString();
    if (!expect_fingerprint.empty() &&
        fingerprint != expect_fingerprint)
        throw SimError("snapshot taken under a different machine: " +
                           path,
                       {"snapshot", path, fingerprint});
    const std::uint64_t length = r.get64();
    if (length != r.remaining())
        throw SimError("snapshot payload length mismatch: " + path,
                       {"snapshot", path, std::to_string(length)});
    std::vector<std::uint8_t> payload;
    payload.reserve(length);
    for (std::uint64_t i = 0; i < length; ++i)
        payload.push_back(r.get8());
    return payload;
}

} // namespace pinte
