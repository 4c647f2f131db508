/**
 * @file
 * Tests for the shared trace store (trace/trace_store.hh): the compact
 * encoding round-trips any record, and a replay cursor cannot be told
 * apart from a live generator at the same position, by its records,
 * its checkpoint bytes, skip(), loadState() or the store's byte
 * budget, with one reader or several on threads.
 */

#include <gtest/gtest.h>

#include "expect_error.hh"

#include <cstring>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "common/snapshot.hh"
#include "sim/experiment.hh"
#include "trace/trace_store.hh"
#include "trace/zoo.hh"

using namespace pinte;

namespace
{

/** Field-wise equality, with the record's index in the message. */
::testing::AssertionResult
sameRecord(const TraceRecord &a, const TraceRecord &b, std::uint64_t at)
{
    const bool eq =
        a.ip == b.ip && a.loadAddr[0] == b.loadAddr[0] &&
        a.loadAddr[1] == b.loadAddr[1] && a.storeAddr[0] == b.storeAddr[0] &&
        a.storeAddr[1] == b.storeAddr[1] &&
        a.branchTarget == b.branchTarget && a.srcReg[0] == b.srcReg[0] &&
        a.srcReg[1] == b.srcReg[1] && a.dstReg == b.dstReg &&
        a.numLoads == b.numLoads && a.numStores == b.numStores &&
        a.isBranch == b.isBranch && a.branchTaken == b.branchTaken &&
        a.execLatency == b.execLatency;
    if (eq)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure() << "records differ at " << at;
}

/** Advance both sources `n` records, requiring equal records. */
::testing::AssertionResult
sameStream(TraceSource &a, TraceSource &b, std::uint64_t n,
           std::uint64_t from = 0)
{
    for (std::uint64_t i = 0; i < n; ++i) {
        const auto r = sameRecord(a.next(), b.next(), from + i);
        if (!r)
            return r;
    }
    return ::testing::AssertionSuccess();
}

std::vector<std::uint8_t>
stateBytes(const TraceSource &s)
{
    SnapshotWriter w;
    s.saveState(w);
    return w.bytes();
}

std::shared_ptr<TraceStore>
storeOf(const std::string &name)
{
    return std::make_shared<TraceStore>(findWorkload(name));
}

TraceRecord
randomRecord(Rng &rng)
{
    // Mostly arbitrary bytes in every field, so the raw escape runs;
    // every fifth record is shaped like a generated one, so the
    // compact path does too.
    TraceRecord r;
    const auto byte = [&] { return static_cast<std::uint8_t>(rng.next()); };
    if (rng.drawRange(5) == 0) {
        r.ip = rng.next();
        r.numLoads = static_cast<std::uint8_t>(rng.drawRange(3));
        r.numStores = static_cast<std::uint8_t>(rng.drawRange(3));
        for (unsigned i = 0; i < r.numLoads; ++i)
            r.loadAddr[i] = rng.next();
        for (unsigned i = 0; i < r.numStores; ++i)
            r.storeAddr[i] = rng.next();
        r.isBranch = rng.drawBool(0.5);
        r.branchTaken = r.isBranch && rng.drawBool(0.5);
        r.branchTarget = r.isBranch ? rng.next() : 0;
        r.dstReg = static_cast<std::uint8_t>(rng.drawRange(64));
        r.srcReg[0] = rng.drawBool(0.5) ? noReg : r.dstReg;
        r.execLatency = static_cast<std::uint8_t>(rng.drawRange(16));
        return r;
    }
    r.ip = rng.next();
    r.loadAddr[0] = rng.next();
    r.loadAddr[1] = rng.next();
    r.storeAddr[0] = rng.next();
    r.storeAddr[1] = rng.next();
    r.branchTarget = rng.next();
    r.srcReg[0] = byte();
    r.srcReg[1] = byte();
    r.dstReg = byte();
    r.numLoads = byte();
    r.numStores = byte();
    r.isBranch = byte();
    r.branchTaken = byte();
    r.execLatency = byte();
    return r;
}

} // namespace

TEST(RecordCodec, RoundTripsRandomAndExtremeRecords)
{
    std::vector<TraceRecord> recs;
    TraceRecord max;
    max.ip = max.branchTarget = ~Addr{0};
    max.loadAddr[0] = max.loadAddr[1] = ~Addr{0};
    max.storeAddr[0] = max.storeAddr[1] = ~Addr{0};
    max.srcReg[0] = max.srcReg[1] = max.dstReg = 0xff;
    max.numLoads = max.numStores = max.isBranch = max.branchTaken =
        max.execLatency = 0xff;
    recs.push_back(max);
    recs.push_back(TraceRecord{});
    // The largest values the compact layout holds, and a step past
    // each.
    TraceRecord edge;
    edge.ip = ~Addr{0};
    edge.numLoads = edge.numStores = maxMemOps;
    edge.loadAddr[0] = edge.storeAddr[1] = ~Addr{0};
    edge.isBranch = edge.branchTaken = 1;
    edge.branchTarget = 0;
    edge.dstReg = edge.srcReg[0] = 63;
    edge.execLatency = 15;
    recs.push_back(edge);
    for (const auto bump : {+[](TraceRecord &r) { r.dstReg = 64; },
                            +[](TraceRecord &r) { r.srcReg[1] = 64; },
                            +[](TraceRecord &r) { r.execLatency = 16; },
                            +[](TraceRecord &r) { r.isBranch = 2; }}) {
        TraceRecord r = edge;
        bump(r);
        recs.push_back(r);
    }
    Rng rng(2024);
    for (int i = 0; i < 20000; ++i)
        recs.push_back(randomRecord(rng));

    std::vector<std::uint8_t> bytes;
    RecordCodecState enc;
    for (const TraceRecord &r : recs)
        encodeRecord(bytes, enc, r);
    const std::uint8_t *p = bytes.data();
    RecordCodecState dec;
    for (std::size_t i = 0; i < recs.size(); ++i)
        ASSERT_TRUE(sameRecord(decodeRecord(p, dec), recs[i], i));
    EXPECT_EQ(p, bytes.data() + bytes.size());
}

TEST(RecordCodec, GeneratedRecordsAreCompact)
{
    for (const WorkloadSpec &spec : fullZoo()) {
        TraceGenerator g(spec);
        std::vector<std::uint8_t> bytes;
        RecordCodecState st;
        for (int i = 0; i < 20000; ++i)
            encodeRecord(bytes, st, g.next());
        // A raw record is 57 bytes; generated ones take 5 to 6.
        EXPECT_LT(bytes.size(), 10u * 20000) << spec.name;
    }
}

TEST(TraceReplay, MatchesLiveGeneratorAcrossChunks)
{
    // 403.gcc has three phases; 429.mcf chases pointers far past the
    // LLC.
    for (const char *name : {"403.gcc", "429.mcf", "416.gamess"}) {
        auto store = storeOf(name);
        TraceReplay cursor(store);
        TraceGenerator live(findWorkload(name));
        EXPECT_TRUE(sameStream(cursor, live,
                               3 * TraceStore::chunkRecords + 123))
            << name;
        EXPECT_FALSE(cursor.detached());
        EXPECT_EQ(store->chunks(), 4u);

        // A second reader replays the stored chunks.
        TraceReplay again(store);
        TraceGenerator live2(findWorkload(name));
        EXPECT_TRUE(sameStream(again, live2, 4 * TraceStore::chunkRecords));
        EXPECT_EQ(store->chunks(), 4u);

        // reset() restarts the stream.
        cursor.reset();
        live.reset();
        EXPECT_TRUE(sameStream(cursor, live, 5000));
    }
}

TEST(TraceReplay, ConcurrentReadersSeeTheLiveStream)
{
    auto store = storeOf("450.soplex");
    const std::uint64_t n = 12 * TraceStore::chunkRecords + 7;
    bool ok[2] = {false, false};
    std::vector<std::thread> readers;
    for (int t = 0; t < 2; ++t)
        readers.emplace_back([&, t] {
            TraceReplay cursor(store);
            TraceGenerator live(findWorkload("450.soplex"));
            ok[t] = static_cast<bool>(sameStream(cursor, live, n));
        });
    for (std::thread &t : readers)
        t.join();
    EXPECT_TRUE(ok[0]);
    EXPECT_TRUE(ok[1]);
    EXPECT_EQ(store->chunks(), 13u);
}

TEST(TraceReplay, SaveStateBytesMatchLiveGenerator)
{
    const WorkloadSpec spec = findWorkload("403.gcc");
    auto store = std::make_shared<TraceStore>(spec);
    TraceReplay cursor(store);
    TraceGenerator live(spec);
    EXPECT_EQ(stateBytes(cursor), stateBytes(live));

    // Chunk edges plus random offsets, in increasing order.
    std::vector<std::uint64_t> stops = {1, 4095, 4096, 4097, 8192};
    Rng rng(77);
    for (int i = 0; i < 20; ++i)
        stops.push_back(stops.back() + 1 + rng.drawRange(9000));
    std::uint64_t at = 0;
    for (const std::uint64_t stop : stops) {
        ASSERT_TRUE(sameStream(cursor, live, stop - at, at));
        at = stop;
        ASSERT_EQ(stateBytes(cursor), stateBytes(live)) << "at " << at;
    }
    // Saving is read-only: the cursor still replays the store.
    EXPECT_FALSE(cursor.detached());
    EXPECT_TRUE(sameStream(cursor, live, 10000, at));
}

TEST(TraceReplay, SkipDetachesOntoTheLiveStream)
{
    const WorkloadSpec spec = findWorkload("403.gcc");
    auto store = std::make_shared<TraceStore>(spec);
    TraceReplay cursor(store);
    TraceGenerator live(spec);
    ASSERT_TRUE(sameStream(cursor, live, 6000));
    // skip() moves the phase clock, so the stream that follows is not
    // the stored one: the cursor must continue from a live generator.
    cursor.skip(50000);
    live.skip(50000);
    EXPECT_TRUE(cursor.detached());
    EXPECT_TRUE(sameStream(cursor, live, 30000));
    EXPECT_EQ(stateBytes(cursor), stateBytes(live));
    cursor.skip(7);
    live.skip(7);
    EXPECT_TRUE(sameStream(cursor, live, 1000));

    // A skip before the first record detaches at record 0.
    TraceReplay fresh(store);
    TraceGenerator live2(spec);
    fresh.skip(20000);
    live2.skip(20000);
    EXPECT_TRUE(sameStream(fresh, live2, 10000));

    // reset() re-attaches to the store.
    cursor.reset();
    live.reset();
    EXPECT_FALSE(cursor.detached());
    EXPECT_TRUE(sameStream(cursor, live, 9000));
}

TEST(TraceReplay, CheckpointResumeMatchesLiveGenerator)
{
    const WorkloadSpec spec = findWorkload("401.bzip2");
    auto store = std::make_shared<TraceStore>(spec);
    TraceReplay cursor(store);
    TraceGenerator live(spec);
    ASSERT_TRUE(sameStream(cursor, live, 10001));
    const std::vector<std::uint8_t> saved = stateBytes(cursor);

    // Resume into a fresh cursor on the same store, and into a live
    // generator: both continue the stream.
    TraceReplay resumed(store);
    SnapshotReader r(saved);
    resumed.loadState(r);
    EXPECT_TRUE(resumed.detached());
    TraceGenerator resumedLive(spec);
    SnapshotReader r2(saved);
    resumedLive.loadState(r2);
    TraceGenerator reference = live;
    EXPECT_TRUE(sameStream(resumed, live, 20000, 10001));
    EXPECT_TRUE(sameStream(resumedLive, reference, 20000, 10001));

    // A bad snapshot is rejected, as by a live generator.
    std::vector<std::uint8_t> bad = saved;
    bad.resize(bad.size() - 1);
    SnapshotReader r3(bad);
    TraceReplay victim(store);
    EXPECT_ERROR(victim.loadState(r3), SimError, "");
}

TEST(TraceReplay, FullStoreDetachesExactly)
{
    const WorkloadSpec spec = findWorkload("416.gamess");
    auto store = std::make_shared<TraceStore>(spec);
    TraceReplay cursor(store);
    TraceGenerator live(spec);
    std::uint64_t at = 0;
    while (!cursor.detached()) {
        ASSERT_TRUE(sameStream(cursor, live, 1000, at));
        at += 1000;
        ASSERT_LT(at, 10'000'000u) << "the store never filled";
    }
    const std::size_t chunks = store->chunks();
    EXPECT_GE(store->bytes(), TraceStore::byteBudget);
    EXPECT_LT(store->bytes(), TraceStore::byteBudget + 64 * 1024);
    // The cursor left exactly at the end of the last stored chunk.
    EXPECT_LT(chunks * TraceStore::chunkRecords, at);
    EXPECT_GE(chunks * TraceStore::chunkRecords + 1000, at);
    EXPECT_TRUE(sameStream(cursor, live, 50000, at));
    EXPECT_EQ(stateBytes(cursor), stateBytes(live));
    EXPECT_EQ(store->chunks(), chunks);

    // A second reader replays the full store, then detaches too.
    TraceReplay second(store);
    TraceGenerator live2(spec);
    EXPECT_TRUE(sameStream(second, live2,
                           chunks * TraceStore::chunkRecords + 20000));
    EXPECT_TRUE(second.detached());
    EXPECT_EQ(store->chunks(), chunks);
}

TEST(TraceReplay, StoresSharingABudgetStopGrowingTogether)
{
    // A total that fits one chunk of gamess and not two: the first
    // store takes one chunk and stops, the second none. Every cursor
    // still reads the live stream; a dead store hands its bytes on.
    const WorkloadSpec a = findWorkload("416.gamess");
    WorkloadSpec b = a;
    b.dataBase += 0x800000000ull;
    std::size_t chunkBytes = 0;
    {
        auto probe = std::make_shared<TraceStore>(a);
        TraceReplay cursor(probe);
        cursor.next();
        chunkBytes = probe->bytes();
    }
    auto budget = std::make_shared<TraceBudget>(chunkBytes * 3 / 2);
    auto first = std::make_shared<TraceStore>(a, budget);
    auto second = std::make_shared<TraceStore>(b, budget);

    auto c1 = std::make_unique<TraceReplay>(first);
    TraceGenerator live1(a);
    EXPECT_TRUE(sameStream(*c1, live1, 3 * TraceStore::chunkRecords));
    EXPECT_TRUE(c1->detached());
    EXPECT_EQ(first->chunks(), 1u);
    EXPECT_EQ(budget->used(), first->bytes());

    TraceReplay c2(second);
    TraceGenerator live2(b);
    EXPECT_TRUE(sameStream(c2, live2, 2 * TraceStore::chunkRecords));
    EXPECT_TRUE(c2.detached());
    EXPECT_EQ(second->chunks(), 0u);
    EXPECT_EQ(stateBytes(c2), stateBytes(live2));

    // A later reader of the stopped store replays its one chunk, then
    // goes live at the same record.
    auto c3 = std::make_unique<TraceReplay>(first);
    TraceGenerator live3(a);
    EXPECT_TRUE(sameStream(*c3, live3, 2 * TraceStore::chunkRecords));
    EXPECT_EQ(first->chunks(), 1u);

    // Once the first store is gone (with its readers), a new one can
    // grow.
    c1.reset();
    c3.reset();
    first.reset();
    EXPECT_EQ(budget->used(), 0u);
    auto third = std::make_shared<TraceStore>(a, budget);
    TraceReplay c4(third);
    TraceGenerator live4(a);
    EXPECT_TRUE(sameStream(c4, live4, 10));
    EXPECT_EQ(third->chunks(), 1u);
}

TEST(TraceReplay, AttachedTokenBuildsNoGenerator)
{
    // A TracePump marks a token per block and rewinds to one on every
    // checkpoint: an attached cursor's token is its place in the
    // store, so neither builds a live generator, and rewinding to one
    // resumes the stored stream, across chunk edges too.
    const WorkloadSpec spec = findWorkload("403.gcc");
    auto store = std::make_shared<TraceStore>(spec);
    TraceReplay cursor(store);
    TraceReplay twin(store);
    // Tokens at record 0, 6001 (mid-chunk), 12288 (a chunk edge),
    // 20479 and 28673 (either side of one) and 47673, each followed
    // by 5000 records read ahead and rewound.
    std::uint64_t at = 0;
    for (const std::uint64_t step :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{287},
          std::uint64_t{2191}, std::uint64_t{2194}, std::uint64_t{13000}}) {
        ASSERT_TRUE(sameStream(cursor, twin, step, at));
        at += step;
        SnapshotWriter w;
        cursor.mark(w);
        for (int k = 0; k < 5000; ++k)
            cursor.next();
        SnapshotReader r(w.bytes());
        cursor.rewind(r);
        EXPECT_FALSE(cursor.detached()) << "at " << at;
        ASSERT_TRUE(sameStream(cursor, twin, 6000, at));
        at += 6000;
    }
    EXPECT_EQ(store->liveBuilds(), 0u);

    // A detached cursor's token is its generator's state; an attached
    // token taken before the detach re-attaches it.
    SnapshotWriter attached;
    cursor.mark(attached);
    const std::uint64_t marked = at;
    cursor.skip(1000);
    ASSERT_TRUE(cursor.detached());
    SnapshotWriter detached;
    cursor.mark(detached);
    std::vector<TraceRecord> ahead;
    for (int k = 0; k < 3000; ++k)
        ahead.push_back(cursor.next());
    SnapshotReader back(detached.bytes());
    cursor.rewind(back);
    VectorTraceSource replayed(ahead);
    EXPECT_TRUE(sameStream(cursor, replayed, ahead.size()));

    SnapshotReader front(attached.bytes());
    cursor.rewind(front);
    EXPECT_FALSE(cursor.detached());
    TraceGenerator live(spec);
    for (std::uint64_t k = 0; k < marked; ++k)
        live.next();
    EXPECT_TRUE(sameStream(cursor, live, 5000, marked));
}

TEST(TraceReplay, RunResultsEqualLiveGeneration)
{
    // A pair: core 1's stream lives in its own address space, so its
    // store realizes coreWorkload(1), not the zoo spec.
    ExperimentParams p;
    p.warmup = 3000;
    p.roi = 9000;
    const ExperimentSpec cell = ExperimentSpec(MachineConfig::scaled())
                                    .workload(findWorkload("450.soplex"))
                                    .secondTrace(findWorkload("470.lbm"))
                                    .params(p);
    const std::vector<RunResult> live = cell.runAll();
    const TraceStores traces = {
        std::make_shared<TraceStore>(cell.coreWorkload(0)),
        std::make_shared<TraceStore>(cell.coreWorkload(1))};
    for (int pass = 0; pass < 2; ++pass) {
        const std::vector<RunResult> shared = cell.runAll({}, traces);
        ASSERT_EQ(shared.size(), live.size());
        for (std::size_t c = 0; c < live.size(); ++c) {
            EXPECT_EQ(shared[c].metrics.ipc, live[c].metrics.ipc);
            EXPECT_EQ(shared[c].metrics.llcAccesses,
                      live[c].metrics.llcAccesses);
            EXPECT_EQ(shared[c].metrics.llcMisses,
                      live[c].metrics.llcMisses);
        }
    }

    // A store of another stream is refused.
    const TraceStores swapped = {traces[1], traces[0]};
    EXPECT_ERROR(cell.runAll({}, swapped), ConfigError,
                 "trace store realizes");
}
