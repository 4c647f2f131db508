/**
 * @file
 * Fuzz harness for checkpoint restore (common/snapshot.hh and
 * System::loadState): the snapshot a crashed run, a foreign build or a
 * bad disk may leave at a --checkpoint path.
 *
 * Every input is restored into a fresh small machine twice:
 *  - as given, through System::restore(), where most mutations stop at
 *    the magic, version, fingerprint, length or CRC check;
 *  - re-sealed: the payload length field and the CRC footer are
 *    rewritten to match the bytes, so a mutated payload passes those
 *    checks and reaches every component's loadState().
 * Each restore must succeed or throw a typed pinte::Error; anything
 * else escapes and aborts the harness. Readers bound every length
 * prefix by the bytes left, so no input drives an allocation larger
 * than itself. A restore that succeeds is then stepped a few hundred
 * instructions (a bounded number of quanta), since a component that
 * accepted a foreign geometry fails only when it next runs: that step
 * too must finish or throw a typed Error.
 *
 * `fuzz_checkpoint --write-seeds DIR` writes the committed seeds: a
 * checkpoint of a tiny run, the same truncated, the same with an
 * inflated element count, and the same with core 0's load ring and
 * with the first DRAM bank's slot ring emptied, each re-sealed.
 *
 * Same build modes as fuzz_trace.cc: replay driver by default (the
 * fuzz_smoke ctest entry), libFuzzer driver under -DPINTE_FUZZ=ON.
 */

#include <stdlib.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>

#include "common/crc32.hh"
#include "common/error.hh"
#include "common/snapshot.hh"
#include "sim/machine.hh"
#include "trace/generator.hh"
#include "trace/record.hh"
#include "trace/zoo.hh"

namespace
{

using namespace pinte;

/** A directory of this process's own, removed at exit. */
class ScratchDir
{
  public:
    ScratchDir()
    {
        const char *tmp = std::getenv("TMPDIR");
        std::string dir = std::string(tmp && *tmp ? tmp : "/tmp") +
                          "/pinte_fuzz_checkpoint_XXXXXX";
        if (!::mkdtemp(dir.data())) {
            std::perror("fuzz_checkpoint: mkdtemp");
            std::abort();
        }
        root_ = dir;
    }
    ~ScratchDir() { std::filesystem::remove_all(root_); }

    std::string snapshot() const { return root_ + "/checkpoint.snap"; }

  private:
    std::string root_;
};

ScratchDir &
scratch()
{
    static ScratchDir d;
    return d;
}

/** A small machine with the stateful extras on (PInTE, LHD, prefetch)
 *  and one DRAM bank, which keeps its checkpoint small. */
struct Rig
{
    TraceGenerator gen{findWorkload("450.soplex")};
    std::unique_ptr<System> sys;

    Rig()
    {
        MachineConfig m = MachineConfig::scaled();
        m.pinte.pInduce = 0.2;
        m.llc.replacement = ReplacementKind::Lhd;
        m.prefetch = PrefetchConfig::parse("NNN");
        m.dram.channels = 1;
        m.dram.banksPerChannel = 1;
        sys = std::make_unique<System>(m, std::vector<TraceSource *>{&gen});
    }
};

std::uint64_t
getLe64(const std::string &bytes, std::size_t at)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= std::uint64_t(std::uint8_t(bytes[at + i])) << (8 * i);
    return v;
}

void
putLe(std::string &bytes, std::size_t at, std::uint64_t v, int width)
{
    for (int i = 0; i < width; ++i)
        bytes[at + i] = static_cast<char>(v >> (8 * i));
}

/**
 * Offset of the payload length field, or 0 when `bytes` cannot hold a
 * header. The layout is magic u64 | version u32 | fingerprint (u64
 * length + bytes) | payload length u64 | payload | CRC u32.
 */
std::size_t
lengthField(const std::string &bytes)
{
    constexpr std::size_t fpAt = 12;
    if (bytes.size() < fpAt + 8)
        return 0;
    const std::uint64_t fpLen = getLe64(bytes, fpAt);
    if (fpLen > bytes.size() || fpAt + 8 + fpLen + 8 + 4 > bytes.size())
        return 0;
    return fpAt + 8 + fpLen;
}

/** `bytes` with the payload length field and the CRC footer rewritten
 *  to match; unchanged when it cannot hold a header. */
std::string
reseal(std::string bytes)
{
    const std::size_t at = lengthField(bytes);
    if (!at)
        return bytes;
    const std::size_t body = bytes.size() - 4;
    putLe(bytes, at, body - at - 8, 8);
    putLe(bytes, body, crc32(bytes.data(), body), 4);
    return bytes;
}

/** Restore `bytes` into a fresh machine; a typed Error is an outcome. */
void
restore(const std::string &bytes)
{
    const std::string path = scratch().snapshot();
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    Rig rig;
    try {
        rig.sys->restore(path);
    } catch (const Error &) {
        return;
    }
    // Bounded by quanta, not instructions: a restored cycle count far
    // in the future must not stall the harness.
    constexpr InstCount steps = 300;
    const InstCount target = rig.sys->core(0).retired() + steps;
    try {
        for (int q = 0; q < 64 && rig.sys->core(0).retired() < target; ++q)
            rig.sys->runQuantum();
    } catch (const Error &) {
    }
}

} // namespace

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    const std::string bytes(reinterpret_cast<const char *>(data), size);
    restore(bytes);
    restore(reseal(bytes));
    return 0;
}

#ifndef PINTE_HAVE_LIBFUZZER
namespace
{

/** `bytes` with the u64-counted u64 vector at `at` emptied, re-sealed. */
std::string
emptyVec64(const std::string &bytes, std::size_t at)
{
    std::string out = bytes.substr(0, at) + std::string(8, '\0');
    out += bytes.substr(at + 8 + 8 * getLe64(bytes, at));
    return reseal(out);
}

/** Write the five committed seeds into `dir`. */
int
writeSeeds(const std::string &dir)
{
    Rig rig;
    rig.sys->warmup(2000);
    rig.sys->runUntilCore0(2000);
    const std::string tiny = dir + "/checkpoint_tiny.snap";
    rig.sys->snapshot(tiny);
    std::ifstream in(tiny, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());

    std::ofstream(dir + "/checkpoint_truncated.snap", std::ios::binary)
        << bytes.substr(0, bytes.size() / 2);

    // The payload opens with the core count (u32) and core 0's state;
    // core 0's L1I follows with its tags (u64 count + tags) and then
    // the count of its owner ids, which is inflated here.
    SnapshotWriter core;
    rig.sys->core(0).saveState(core);
    const std::size_t tags = lengthField(bytes) + 8 + 4 + core.bytes().size();
    std::string inflated = bytes;
    putLe(inflated, tags + 8 + 8 * getLe64(bytes, tags), 1ull << 60, 8);
    std::ofstream(dir + "/checkpoint_inflated_count.snap", std::ios::binary)
        << reseal(inflated);

    // Core 0's state opens with three u64 counters, the ROB (count +
    // entries), the register scoreboard and four more u64 fields; its
    // load ring follows.
    const std::size_t core0 = lengthField(bytes) + 8 + 4;
    const std::size_t ring = core0 + 24 + 8 + 8 * getLe64(bytes, core0 + 24) +
                             8 * numArchRegs + 32;
    std::ofstream(dir + "/checkpoint_empty_load_ring.snap", std::ios::binary)
        << emptyVec64(bytes, ring);

    // DRAM's state is its banks' open rows (u64 + bool each), then each
    // bank's slot ring.
    SnapshotWriter dram;
    rig.sys->dram().saveState(dram);
    const std::string dram_bytes(dram.bytes().begin(), dram.bytes().end());
    const std::size_t banks =
        std::size_t(rig.sys->dram().config().channels) *
        rig.sys->dram().config().banksPerChannel;
    std::ofstream(dir + "/checkpoint_empty_bank_ring.snap", std::ios::binary)
        << emptyVec64(bytes, bytes.find(dram_bytes) + 9 * banks);
    std::printf("fuzz_checkpoint: wrote 5 seeds (%zu-byte checkpoint) "
                "to %s\n",
                bytes.size(), dir.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 3 && std::string(argv[1]) == "--write-seeds")
        return writeSeeds(argv[2]);
    int replayed = 0;
    for (int i = 1; i < argc; ++i) {
        std::ifstream in(argv[i], std::ios::binary);
        if (!in) {
            std::fprintf(stderr, "fuzz_checkpoint: cannot open %s\n",
                         argv[i]);
            return 1;
        }
        const std::string bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
        LLVMFuzzerTestOneInput(
            reinterpret_cast<const std::uint8_t *>(bytes.data()),
            bytes.size());
        ++replayed;
    }
    std::printf("fuzz_checkpoint: replayed %d corpus input(s) cleanly\n",
                replayed);
    return 0;
}
#endif
