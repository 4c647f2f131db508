/**
 * @file
 * Differential tests for the DRAM slot table (dram/dram.hh SlotTable)
 * against a reference model: the one-ring-per-resource calendar that
 * stored u64 absolute slot ids, kept here verbatim.
 *
 * The table stores u32 epochs in one interleaved block instead, and
 * claims to be the same predicate for every slot it can represent and
 * to serialize the same bytes. Random streams with backward jumps
 * within and beyond the window, multi-slot bookings, power-of-two and
 * other granularities, and save/load in mid-stream must therefore see
 * identical start cycles and identical saveState bytes.
 */

#include <gtest/gtest.h>

#include "expect_error.hh"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/snapshot.hh"
#include "dram/dram.hh"

using namespace pinte;

namespace ref
{

/** The per-resource ring calendar the table replaced. */
class SlotCalendar
{
  public:
    SlotCalendar(Cycle granularity, std::size_t slots)
        : gran_(granularity ? granularity : 1), booked_(slots, 0)
    {
    }

    Cycle
    book(Cycle t, unsigned count)
    {
        if (count == 0)
            count = 1;
        const std::size_t n = booked_.size();
        std::uint64_t s = t / gran_;
        for (;;) {
            bool free = true;
            for (unsigned k = 0; k < count; ++k) {
                if (booked_[(s + k) % n] == s + k + 1) {
                    free = false;
                    s = s + k + 1;
                    break;
                }
            }
            if (free) {
                for (unsigned k = 0; k < count; ++k)
                    booked_[(s + k) % n] = s + k + 1;
                // The first slot may start before t (slot-boundary
                // rounding); service begins no earlier than requested.
                return std::max<Cycle>(t, s * gran_);
            }
        }
    }

    void saveState(SnapshotWriter &w) const { w.putVec64(booked_); }
    void loadState(SnapshotReader &r) { booked_ = r.getVec64(); }

  private:
    Cycle gran_;
    /** Absolute slot id + 1 occupying each ring entry; 0 = free. */
    std::vector<std::uint64_t> booked_;
};

} // namespace ref

namespace
{

/** The reference rings of every resource, saved in resource order. */
std::vector<std::uint8_t>
refBytes(const std::vector<ref::SlotCalendar> &rings)
{
    SnapshotWriter w;
    for (const ref::SlotCalendar &c : rings)
        c.saveState(w);
    return w.bytes();
}

std::vector<std::uint8_t>
tableBytes(const SlotTable &table)
{
    SnapshotWriter w;
    table.saveState(w);
    return w.bytes();
}

struct Geometry
{
    Cycle gran;
    std::size_t slots;
    unsigned resources;
};

/**
 * Drive a table and its reference rings with one random stream of
 * `steps` bookings, comparing every start cycle, and every few hundred
 * bookings their saved bytes. Half of those checkpoints also restore
 * the table from the reference's bytes and go on with the copy.
 */
void
runStream(const Geometry &g, std::uint64_t seed, int steps)
{
    SCOPED_TRACE(::testing::Message()
                 << "gran " << g.gran << " slots " << g.slots
                 << " resources " << g.resources << " seed " << seed);
    SlotTable table(g.gran, g.slots, g.resources);
    std::vector<ref::SlotCalendar> rings(g.resources,
                                         ref::SlotCalendar(g.gran, g.slots));
    Rng rng(seed);
    const Cycle gran = std::max<Cycle>(g.gran, 1);
    const Cycle window = gran * g.slots;
    Cycle t = 3 * window;
    const unsigned counts[] = {1, 1, 1, 2, 7, 13};
    for (int i = 0; i < steps; ++i) {
        const double kind = rng.drawUnit();
        if (kind < 0.55) {
            t += rng.drawRange(3 * gran);                // mostly forward
        } else if (kind < 0.85) {
            t -= std::min<Cycle>(t, rng.drawRange(window)); // within
        } else if (kind < 0.95) {
            t -= std::min<Cycle>(t, window + rng.drawRange(2 * window));
        } else {
            t += window + rng.drawRange(2 * window);   // leap ahead
        }
        const unsigned r =
            static_cast<unsigned>(rng.drawRange(g.resources));
        const unsigned count = counts[rng.drawRange(6)];
        const Cycle want = rings[r].book(t, count);
        ASSERT_EQ(table.book(r, t, count), want)
            << "booking " << i << " at " << t << " x" << count;

        if (i % 397 == 396) {
            const std::vector<std::uint8_t> bytes = refBytes(rings);
            ASSERT_EQ(tableBytes(table), bytes) << "after booking " << i;
            if ((i / 397) % 2) {
                SlotTable copy(g.gran, g.slots, g.resources);
                SnapshotReader rd(bytes);
                copy.loadState(rd);
                EXPECT_TRUE(rd.exhausted());
                table = copy;
                for (ref::SlotCalendar &c : rings) {
                    // The reference round-trips through its own bytes.
                    SnapshotWriter w;
                    c.saveState(w);
                    SnapshotReader back(w.bytes());
                    c.loadState(back);
                }
            }
        }
    }
    EXPECT_EQ(tableBytes(table), refBytes(rings));
}

} // namespace

TEST(SlotTable, MatchesRingCalendarOnBankGeometry)
{
    // The DRAM bank table: 4-cycle slots, 4096 per ring, 32 banks; and
    // a short ring that wraps constantly.
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        runStream({4, 4096, 32}, seed, 20000);
        runStream({4, 64, 3}, seed, 20000);
    }
}

TEST(SlotTable, MatchesRingCalendarOnBusGeometry)
{
    // The channel-bus table at transfer 2 and the halved-resource
    // transfer 4.
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        runStream({2, 8192, 2}, seed, 20000);
        runStream({4, 4096, 1}, seed, 20000);
        runStream({2, 128, 2}, seed, 20000);
    }
}

TEST(SlotTable, MatchesRingCalendarWithoutPowerOfTwo)
{
    // A transfer of 3 cycles gives 16384 / 3 = 5461 slots; also each
    // of granularity and ring size alone off a power of two.
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        runStream({3, 16384 / 3, 2}, seed, 20000);
        runStream({3, 64, 2}, seed, 20000);
        runStream({4, 100, 3}, seed, 20000);
        runStream({0, 50, 1}, seed, 5000); // granularity 0 means 1
    }
}

TEST(SlotTable, ExactUpToTheLastEpoch)
{
    // Epochs are u32: slot s is representable while s / slots + 1 fits,
    // i.e. below (2^32 - 1) * slots. Right below the bound the table
    // still agrees with the ring; at the bound it refuses to alias.
    const std::uint64_t bound = (std::uint64_t(1) << 32) - 1;
    for (const Geometry g : {Geometry{4, 64, 1}, Geometry{3, 100, 1}}) {
        SlotTable table(g.gran, g.slots, g.resources);
        ref::SlotCalendar ring(g.gran, g.slots);
        const Cycle last = (bound * g.slots - 1) * g.gran;
        EXPECT_EQ(table.book(0, last, 1), ring.book(last, 1));
        EXPECT_EQ(table.book(0, last - g.gran, 1),
                  ring.book(last - g.gran, 1));
        SnapshotWriter w;
        ring.saveState(w);
        EXPECT_EQ(tableBytes(table), w.bytes());
        // The next booking would need epoch 2^32.
        EXPECT_ERROR(table.book(0, last, 1), SimError, "last epoch");
        EXPECT_ERROR(table.book(0, last - g.gran, 2), SimError,
                     "last epoch");
    }
}

TEST(SlotTable, LoadRejectsForeignGeometry)
{
    SlotTable table(4, 64, 2);
    table.book(1, 40, 3);

    // An empty ring: the old calendar loaded it and the next booking
    // divided by zero.
    {
        SnapshotWriter w;
        w.putVec64({});
        w.putVec64(std::vector<std::uint64_t>(64, 0));
        SnapshotReader r(w.bytes());
        EXPECT_ERROR(table.loadState(r), SimError, "elements");
    }
    // A ring one slot short.
    {
        SnapshotWriter w;
        w.putVec64(std::vector<std::uint64_t>(64, 0));
        w.putVec64(std::vector<std::uint64_t>(63, 0));
        SnapshotReader r(w.bytes());
        EXPECT_ERROR(table.loadState(r), SimError, "elements");
    }
    // An entry holding a slot that does not map to its index.
    {
        std::vector<std::uint64_t> ring(64, 0);
        ring[5] = 7; // slot 6 lives at index 6
        SnapshotWriter w;
        w.putVec64(ring);
        w.putVec64(std::vector<std::uint64_t>(64, 0));
        SnapshotReader r(w.bytes());
        EXPECT_ERROR(table.loadState(r), SimError, "its index");
    }
    // A slot past the last representable epoch.
    {
        std::vector<std::uint64_t> ring(64, 0);
        ring[0] = (std::uint64_t(1) << 32) * 64 + 1;
        SnapshotWriter w;
        w.putVec64(ring);
        w.putVec64(std::vector<std::uint64_t>(64, 0));
        SnapshotReader r(w.bytes());
        EXPECT_ERROR(table.loadState(r), SimError, "its index");
    }
}

TEST(SlotTable, DramCheckpointRejectsShrunkCalendar)
{
    DramConfig cfg;
    cfg.channels = 2;
    cfg.banksPerChannel = 4;
    Dram dram(cfg);
    MemAccess req;
    req.addr = 0x4000;
    dram.access(req);
    SnapshotWriter w;
    dram.saveState(w);

    // The same machine with a different transfer time has bus rings of
    // another length; its calendar cannot be restored here.
    DramConfig other = cfg;
    other.transfer = 4;
    Dram foreign(other);
    SnapshotReader r(w.bytes());
    EXPECT_ERROR(foreign.loadState(r), SimError, "elements");

    Dram same(cfg);
    SnapshotReader ok(w.bytes());
    same.loadState(ok);
    EXPECT_TRUE(ok.exhausted());
    SnapshotWriter again;
    same.saveState(again);
    EXPECT_EQ(again.bytes(), w.bytes());
}

TEST(SlotTable, ZeroTransferIsAConfigError)
{
    DramConfig cfg;
    cfg.transfer = 0;
    EXPECT_ERROR(Dram dram(cfg), ConfigError, "transfer");
}
