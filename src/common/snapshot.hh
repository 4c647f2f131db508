/**
 * @file
 * Architectural checkpoint serialization: a versioned, CRC-guarded
 * byte-stream format every stateful component reads and writes itself
 * into.
 *
 * The interval engine snapshots a whole System mid-run and restores it
 * into a freshly constructed one, so the format has to capture every
 * bit of microarchitectural state that influences future behavior:
 * cache SoA arrays, SWAR LRU words, policy/prefetcher/predictor
 * tables, DRAM bank and calendar state, PInTE engine RNG streams, and
 * trace-source positions. Components expose
 * `saveState(SnapshotWriter&)` / `loadState(SnapshotReader&)` pairs
 * that write fields in a fixed order; the writer/reader are dumb typed
 * streams, so "restore is bitwise-identical to never having stopped"
 * reduces to "every component round-trips its own fields", which
 * tests/test_checkpoint.cc pins per configuration.
 *
 * On disk a snapshot is
 *
 *     magic u64 | format version u32 | fingerprint string |
 *     payload length u64 | payload bytes | CRC-32 u32
 *
 * written through AtomicFile so a crash mid-checkpoint never leaves a
 * torn file at the destination. Readers validate magic, version, CRC
 * and (when the caller supplies one) the machine fingerprint before
 * handing out the payload, so a snapshot can never be restored into a
 * differently configured System.
 */

#ifndef PINTE_COMMON_SNAPSHOT_HH
#define PINTE_COMMON_SNAPSHOT_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"

namespace pinte
{

/** On-disk format version; bump on any layout change. */
constexpr std::uint32_t snapshotFormatVersion = 1;

/** Typed append-only byte stream components serialize into. */
class SnapshotWriter
{
  public:
    void put8(std::uint8_t v) { buf_.push_back(v); }
    void put32(std::uint32_t v);
    void put64(std::uint64_t v);
    void putBool(bool v) { put8(v ? 1 : 0); }
    void putDouble(double v);
    void putString(const std::string &s);

    /** Length-prefixed vector of u64 (the workhorse for SoA arrays). */
    void putVec64(const std::vector<std::uint64_t> &v);

    /** Length-prefixed vector of bytes (RRPV tables, packed flags). */
    void putVec8(const std::vector<std::uint8_t> &v);

    /** Length-prefixed vector of bool, one byte per element. */
    void putVecBool(const std::vector<bool> &v);

    const std::vector<std::uint8_t> &bytes() const { return buf_; }

    /** Drop the bytes written so far, keeping the buffer for reuse. */
    void clear() { buf_.clear(); }

    /** Make room for `n` bytes, so writing that many allocates nothing. */
    void reserve(std::size_t n) { buf_.reserve(n); }

  private:
    std::vector<std::uint8_t> buf_;
};

/**
 * Bounds-checked reader over a serialized payload. Every getter
 * throws SimError on truncation, so a short or shuffled payload is a
 * typed failure, never garbage state.
 */
class SnapshotReader
{
  public:
    explicit SnapshotReader(std::vector<std::uint8_t> bytes)
        : buf_(std::move(bytes))
    {
    }

    std::uint8_t get8();
    std::uint32_t get32();
    std::uint64_t get64();
    bool getBool() { return get8() != 0; }
    double getDouble();
    std::string getString();
    std::vector<std::uint64_t> getVec64();
    std::vector<std::uint8_t> getVec8();
    std::vector<bool> getVecBool();

    /**
     * Read a u64 element count and check that that many elements of at
     * least `elementBytes` bytes each fit in the bytes left, so a
     * corrupt count throws instead of driving a huge allocation.
     */
    std::size_t getCount(std::size_t elementBytes);

    /**
     * Read a u64 element count that must equal `expected`, the length
     * the configured geometry gives the array being restored.
     * @throws SimError naming `component` when it differs
     */
    void getCountOf(std::size_t expected, const std::string &component);

    /** Length-prefixed u64 vector into `v`, which keeps its length:
     *  getCountOf(v.size()) then the elements. */
    void getVec64Into(std::vector<std::uint64_t> &v,
                      const std::string &component);

    /** Length-prefixed byte vector into `v`, which keeps its length;
     *  every byte must be at most `maxValue`. */
    void getVec8Into(std::vector<std::uint8_t> &v,
                     const std::string &component,
                     std::uint8_t maxValue = 0xff);

    /** True when every byte has been consumed. */
    bool exhausted() const { return pos_ == buf_.size(); }

    /** Bytes not yet consumed. */
    std::size_t remaining() const { return buf_.size() - pos_; }

  private:
    void need(std::size_t n) const;

    std::vector<std::uint8_t> buf_;
    std::size_t pos_ = 0;
};

/** Serialize an RNG stream (the four xoshiro256** state words). */
inline void
saveRng(SnapshotWriter &w, const Rng &rng)
{
    for (const std::uint64_t s : rng.state())
        w.put64(s);
}

/** Restore an RNG stream captured with saveRng(). */
inline void
loadRng(SnapshotReader &r, Rng &rng)
{
    std::array<std::uint64_t, 4> s;
    for (std::uint64_t &x : s)
        x = r.get64();
    rng.setState(s);
}

/**
 * Publish `payload` at `path` (atomic write), stamped with the
 * machine `fingerprint` the payload was taken under.
 * @throws SimError on I/O failure
 */
void writeSnapshotFile(const std::string &path,
                       const std::string &fingerprint,
                       const std::vector<std::uint8_t> &payload);

/**
 * Load and validate the snapshot at `path`: magic, format version,
 * CRC, and — when `expect_fingerprint` is non-empty — the machine
 * fingerprint. Returns the payload on success.
 * @throws SimError when the file is missing, corrupt, a different
 *         format version, or taken under a different machine
 */
std::vector<std::uint8_t>
readSnapshotFile(const std::string &path,
                 const std::string &expect_fingerprint);

} // namespace pinte

#endif // PINTE_COMMON_SNAPSHOT_HH
