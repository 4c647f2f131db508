/**
 * @file
 * Fuzz harness for the spool's peer-written readers: the bytes a
 * worker or broker that died mid-write can leave in a spool
 * (sim/shard_queue.hh).
 *
 * Every input goes through three readers:
 *  - result streams: the bytes reach a FrameReassembly in chunks whose
 *    lengths are taken from the input itself, and each Record frame is
 *    decoded with unpackRecord until the stream dies, as
 *    StreamScanner does. The records must not depend on where the
 *    writes were split: the harness aborts when they differ from a
 *    one-piece read;
 *  - shards: the bytes as a shard spec through shardFromJson, and as
 *    a shard file (bare and wrapped in a Shard frame) through
 *    Spool::readShard;
 *  - leases: the bytes as a lease file in a scratch spool, through
 *    Spool::probeLease.
 * None of them may crash or throw.
 *
 * Same build modes as fuzz_trace.cc: replay driver by default (the
 * fuzz_smoke ctest entry), libFuzzer driver under -DPINTE_FUZZ=ON.
 */

#include <stdlib.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "sim/shard_queue.hh"
#include "sim/wire.hh"

namespace
{

using namespace pinte;

/** The records a scanner merges from `bytes` arriving in chunks of
 *  the given lengths (cycled, each >= 1), up to the stream's death. */
std::vector<SpoolRecord>
scanInChunks(const std::string &bytes,
             const std::vector<std::size_t> &chunks)
{
    FrameReassembly rx;
    std::vector<SpoolRecord> out;
    std::size_t pos = 0;
    for (std::size_t k = 0; pos < bytes.size(); ++k) {
        const std::size_t len =
            std::min(chunks[k % chunks.size()], bytes.size() - pos);
        rx.feed(bytes.data() + pos, len);
        pos += len;
        for (;;) {
            Frame f;
            const ReassemblyStatus rs = rx.next(f);
            if (rs == ReassemblyStatus::NeedMore)
                break;
            SpoolRecord rec;
            if (rs == ReassemblyStatus::Garbage ||
                f.type != FrameType::Record ||
                !unpackRecord(f.payload, rec))
                return out;
            out.push_back(std::move(rec));
        }
    }
    return out;
}

bool
sameRecords(const std::vector<SpoolRecord> &a,
            const std::vector<SpoolRecord> &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const SpoolRecord &x, const SpoolRecord &y) {
                          return x.cell == y.cell && x.token == y.token &&
                                 x.key == y.key && x.runJson == y.runJson;
                      });
}

void
checkStream(const std::string &bytes,
            const std::vector<std::size_t> &chunks)
{
    if (bytes.empty())
        return;
    const auto whole = scanInChunks(bytes, {bytes.size()});
    const auto split = scanInChunks(bytes, chunks);
    if (!sameRecords(whole, split)) {
        std::fprintf(stderr,
                     "fuzz_spool: %zu record(s) read whole, %zu split\n",
                     whole.size(), split.size());
        std::abort();
    }
}

/** A spool directory of this process's own, removed at exit. */
class ScratchSpool
{
  public:
    ScratchSpool()
    {
        const char *tmp = std::getenv("TMPDIR");
        std::string dir = std::string(tmp && *tmp ? tmp : "/tmp") +
                          "/pinte_fuzz_spool_XXXXXX";
        if (!::mkdtemp(dir.data())) {
            std::perror("fuzz_spool: mkdtemp");
            std::abort();
        }
        root_ = dir;
        spool_ = std::make_unique<Spool>(root_);
    }
    ~ScratchSpool() { std::filesystem::remove_all(root_); }

    Spool &spool() { return *spool_; }

    static void
    put(const std::string &path, const std::string &bytes)
    {
        std::ofstream(path, std::ios::binary | std::ios::trunc)
            .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }

  private:
    std::string root_;
    std::unique_ptr<Spool> spool_;
};

ScratchSpool &
scratch()
{
    static ScratchSpool s;
    return s;
}

void
checkFiles(const std::string &bytes)
{
    const std::string id = "s000000";
    Spool &spool = scratch().spool();

    ShardSpec shard;
    (void)shardFromJson(bytes, shard);
    ScratchSpool::put(spool.shardFile(id), bytes);
    (void)spool.readShard(id, shard);
    ScratchSpool::put(spool.shardFile(id),
                      encodeFrame(FrameType::Shard, bytes));
    (void)spool.readShard(id, shard);

    ScratchSpool::put(spool.leaseFile(id, 1), bytes);
    Lease lease;
    double mtime = 0.0;
    (void)spool.probeLease(id, 1, lease, &mtime);
}

} // namespace

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    const std::string bytes(reinterpret_cast<const char *>(data), size);
    // The write boundaries come from the input: chunk i is
    // 1 + (byte i mod 61) bytes long.
    std::vector<std::size_t> chunks{1};
    for (std::size_t i = 0; i < std::min<std::size_t>(size, 64); ++i)
        chunks.push_back(1 + data[i] % 61);
    checkStream(bytes, chunks);
    checkFiles(bytes);
    return 0;
}

#ifndef PINTE_HAVE_LIBFUZZER
int
main(int argc, char **argv)
{
    int replayed = 0;
    for (int i = 1; i < argc; ++i) {
        std::ifstream in(argv[i], std::ios::binary);
        if (!in) {
            std::fprintf(stderr, "fuzz_spool: cannot open %s\n", argv[i]);
            return 1;
        }
        const std::string bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
        LLVMFuzzerTestOneInput(
            reinterpret_cast<const std::uint8_t *>(bytes.data()),
            bytes.size());
        // Also replay each input under fixed splits: byte by byte,
        // mid-header, and prime-sized runs that straddle frames.
        for (const std::vector<std::size_t> &chunks :
             {std::vector<std::size_t>{1}, {4, 9}, {13}, {2, 3, 5, 7, 11}})
            checkStream(bytes, chunks);
        ++replayed;
    }
    std::printf("fuzz_spool: replayed %d corpus input(s) cleanly\n",
                replayed);
    return 0;
}
#endif
