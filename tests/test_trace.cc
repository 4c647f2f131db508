/**
 * @file
 * Tests for the trace substrate: generator determinism, pattern
 * properties, the SPEC-like zoo, and trace file I/O.
 */

#include <gtest/gtest.h>

#include "expect_error.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/snapshot.hh"
#include "trace/generator.hh"
#include "trace/trace_io.hh"
#include "trace/zoo.hh"

using namespace pinte;

namespace
{

WorkloadSpec
tinySpec()
{
    WorkloadSpec s;
    s.name = "tiny";
    s.seed = 5;
    s.footprintLines = 64;
    s.hotLines = 8;
    return s;
}

/** FNV-1a over every field of each record a source yields. */
std::uint64_t
fnvWord(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t
digestRecords(TraceSource &src, std::uint64_t n,
              std::uint64_t h = 0xcbf29ce484222325ull)
{
    for (std::uint64_t i = 0; i < n; ++i) {
        const TraceRecord r = src.next();
        for (const Addr a : {r.ip, r.loadAddr[0], r.loadAddr[1],
                             r.storeAddr[0], r.storeAddr[1],
                             r.branchTarget})
            h = fnvWord(h, a);
        h = fnvWord(h, std::uint64_t{r.srcReg[0]} |
                           std::uint64_t{r.srcReg[1]} << 8 |
                           std::uint64_t{r.dstReg} << 16 |
                           std::uint64_t{r.numLoads} << 24 |
                           std::uint64_t{r.numStores} << 32 |
                           std::uint64_t{r.isBranch} << 40 |
                           std::uint64_t{r.branchTaken} << 48 |
                           std::uint64_t{r.execLatency} << 56);
    }
    return h;
}

/** Generator snapshot bytes with the given cursor fields and
 *  otherwise fresh state, laid out as TraceGenerator::saveState. */
struct CraftedState
{
    std::uint64_t seq = 0, stride = 0, chase = 0;
    std::uint32_t site = 0, blockPos = 0, recentHead = 0;
};

std::vector<std::uint8_t>
craft(const CraftedState &c, std::uint64_t nsites)
{
    SnapshotWriter w;
    saveRng(w, Rng(1));
    w.put64(0); // generated
    w.put64(c.seq);
    w.put64(c.stride);
    w.put64(c.chase);
    w.put32(c.site);
    w.put64(0x400000); // ip
    w.put32(c.blockPos);
    w.put32(c.recentHead);
    for (int i = 0; i < 8; ++i)
        w.put8(1);
    w.put64(nsites);
    for (std::uint64_t i = 0; i < nsites; ++i)
        w.put32(0);
    return w.bytes();
}

} // namespace

TEST(TraceGenerator, DeterministicForSameSeed)
{
    TraceGenerator a(tinySpec()), b(tinySpec());
    for (int i = 0; i < 5000; ++i) {
        const TraceRecord ra = a.next();
        const TraceRecord rb = b.next();
        ASSERT_EQ(ra.ip, rb.ip);
        ASSERT_EQ(ra.numLoads, rb.numLoads);
        ASSERT_EQ(ra.loadAddr[0], rb.loadAddr[0]);
        ASSERT_EQ(ra.isBranch, rb.isBranch);
        ASSERT_EQ(ra.branchTaken, rb.branchTaken);
    }
}

TEST(TraceGenerator, RunSeedPerturbsStream)
{
    TraceGenerator a(tinySpec(), 0), b(tinySpec(), 1);
    int diff = 0;
    for (int i = 0; i < 1000; ++i) {
        if (a.next().loadAddr[0] != b.next().loadAddr[0])
            ++diff;
    }
    EXPECT_GT(diff, 0);
}

TEST(TraceGenerator, ResetReproducesStream)
{
    TraceGenerator g(tinySpec());
    std::vector<Addr> first;
    for (int i = 0; i < 1000; ++i)
        first.push_back(g.next().ip);
    g.reset();
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(g.next().ip, first[i]);
    EXPECT_EQ(g.generated(), 1000u);
}

TEST(TraceGenerator, LoadsStayInsideFootprint)
{
    WorkloadSpec s = tinySpec();
    TraceGenerator g(s);
    const Addr lo = s.dataBase;
    const Addr hi = s.dataBase + s.footprintLines * blockSize;
    for (int i = 0; i < 20000; ++i) {
        const TraceRecord r = g.next();
        for (unsigned l = 0; l < r.numLoads; ++l) {
            ASSERT_GE(r.loadAddr[l], lo);
            ASSERT_LT(r.loadAddr[l], hi);
        }
        for (unsigned st = 0; st < r.numStores; ++st) {
            ASSERT_GE(r.storeAddr[st], lo);
            ASSERT_LT(r.storeAddr[st], hi);
        }
    }
}

TEST(TraceGenerator, LoadFractionApproximatelyHonored)
{
    WorkloadSpec s = tinySpec();
    s.loadFraction = 0.25;
    TraceGenerator g(s);
    int loads = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        if (g.next().numLoads > 0)
            ++loads;
    EXPECT_NEAR(loads / double(n), 0.25, 0.02);
}

TEST(TraceGenerator, BranchesArePresentAndBounded)
{
    WorkloadSpec s = tinySpec();
    s.branchFraction = 0.15;
    TraceGenerator g(s);
    int branches = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        if (g.next().isBranch)
            ++branches;
    EXPECT_GT(branches, n / 20);
    EXPECT_LT(branches, n / 3);
}

TEST(TraceGenerator, BranchTargetsMatchSites)
{
    TraceGenerator g(tinySpec());
    for (int i = 0; i < 20000; ++i) {
        const TraceRecord r = g.next();
        if (r.isBranch && r.branchTaken)
            ASSERT_NE(r.branchTarget, 0u);
    }
}

TEST(TraceGenerator, ChasePermutationIsSingleCycle)
{
    // A Sattolo cycle must visit every line exactly once before
    // returning to the start: chase-only workload touches the whole
    // footprint.
    WorkloadSpec s = tinySpec();
    s.hotFraction = 0.0;
    s.streamFraction = 0.0;
    s.strideFraction = 0.0;
    s.randomFraction = 0.0;
    s.chaseFraction = 1.0;
    s.loadFraction = 1.0;
    s.storeFraction = 0.0;
    s.footprintLines = 32;
    TraceGenerator g(s);
    std::set<Addr> lines;
    int loads_seen = 0;
    while (loads_seen < 32) {
        const TraceRecord r = g.next();
        for (unsigned l = 0; l < r.numLoads; ++l) {
            lines.insert(lineNumber(r.loadAddr[l]));
            ++loads_seen;
            if (loads_seen >= 32)
                break;
        }
    }
    // Second loads (8% gather probability) may duplicate, so require
    // near-complete coverage rather than exact.
    EXPECT_GE(lines.size(), 28u);
}

TEST(TraceGenerator, PhasesChangeAccessMix)
{
    WorkloadSpec s = tinySpec();
    s.phases = 2;
    s.phaseLength = 5000;
    s.hotFraction = 0.9;
    TraceGenerator g(s);
    // Count hot-set accesses in phase 0 vs phase 1: phase 1 halves
    // hotFraction, so hot accesses should drop.
    auto hot_share = [&](int n) {
        int hot = 0, total = 0;
        for (int i = 0; i < n; ++i) {
            const TraceRecord r = g.next();
            for (unsigned l = 0; l < r.numLoads; ++l) {
                ++total;
                if (lineNumber(r.loadAddr[l]) - lineNumber(s.dataBase) <
                    s.hotLines)
                    ++hot;
            }
        }
        return total ? hot / double(total) : 0.0;
    };
    const double phase0 = hot_share(5000);
    const double phase1 = hot_share(5000);
    EXPECT_GT(phase0, phase1 + 0.1);
}

TEST(TraceGenerator, CodeFootprintIsBounded)
{
    // Instruction pointers must stay inside the declared code segment
    // so the L1I working set is controlled.
    WorkloadSpec s = tinySpec();
    s.branchSites = 64;
    TraceGenerator g(s);
    const Addr lo = s.codeBase;
    const Addr hi = s.codeBase + 64 * 6 * 4 + 64; // sites*blk*instBytes
    for (int i = 0; i < 20000; ++i) {
        const Addr ip = g.next().ip;
        ASSERT_GE(ip, lo);
        ASSERT_LT(ip, hi);
    }
}

TEST(TraceGenerator, CodeBaseOffsetRelocatesIps)
{
    WorkloadSpec a = tinySpec();
    WorkloadSpec b = tinySpec();
    b.codeBase += 0x1000000;
    TraceGenerator ga(a), gb(b);
    for (int i = 0; i < 1000; ++i) {
        const TraceRecord ra = ga.next();
        const TraceRecord rb = gb.next();
        ASSERT_EQ(ra.ip + 0x1000000, rb.ip);
        ASSERT_EQ(ra.isBranch, rb.isBranch);
    }
}

TEST(TraceGenerator, HighBiasMakesBranchesPredictable)
{
    // branchBias controls the share of coin-flip sites; a bias-1.0
    // spec should produce a taken-rate far from 0.5 overall and with
    // strong per-site structure (loop/biased only).
    WorkloadSpec s = tinySpec();
    s.branchBias = 1.0;
    s.branchFraction = 0.2;
    TraceGenerator g(s);
    int taken = 0, branches = 0;
    for (int i = 0; i < 40000; ++i) {
        const TraceRecord r = g.next();
        if (r.isBranch) {
            ++branches;
            taken += r.branchTaken;
        }
    }
    ASSERT_GT(branches, 1000);
    const double rate = taken / double(branches);
    EXPECT_GT(rate, 0.55); // loops + biased sites skew taken
}

TEST(TraceGenerator, ExecLatencyWithinDeclaredRange)
{
    TraceGenerator g(tinySpec());
    for (int i = 0; i < 10000; ++i) {
        const auto lat = g.next().execLatency;
        ASSERT_GE(lat, 1);
        ASSERT_LE(lat, 16);
    }
}

TEST(TraceGenerator, LoadStateRejectsOutOfRangeCursors)
{
    // tinySpec: 64 footprint lines, 64 branch sites, 6-instruction
    // blocks, an 8-entry register ring.
    const WorkloadSpec spec = tinySpec();
    TraceGenerator g(spec);
    for (int i = 0; i < 777; ++i)
        g.next();
    TraceGenerator same(spec);
    for (int i = 0; i < 777; ++i)
        same.next();

    const auto load = [&](const CraftedState &c) {
        SnapshotReader r(craft(c, spec.branchSites));
        g.loadState(r);
    };
    CraftedState c;
    c.seq = spec.footprintLines;
    EXPECT_ERROR(load(c), SimError, "sequential cursor");
    c = {};
    c.stride = spec.footprintLines + 5;
    EXPECT_ERROR(load(c), SimError, "stride cursor");
    c = {};
    c.chase = ~std::uint64_t{0};
    EXPECT_ERROR(load(c), SimError, "chase cursor");
    c = {};
    c.site = spec.branchSites;
    EXPECT_ERROR(load(c), SimError, "branch-site index");
    c = {};
    c.recentHead = 8;
    EXPECT_ERROR(load(c), SimError, "register-ring head");
    c = {};
    c.blockPos = 6;
    EXPECT_ERROR(load(c), SimError, "block position");

    // A rejected snapshot leaves the generator where it was.
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(g.next().ip, same.next().ip);

    // The largest in-range values load and generate.
    c.seq = c.stride = c.chase = spec.footprintLines - 1;
    c.site = spec.branchSites - 1;
    c.blockPos = 5;
    c.recentHead = 7;
    load(c);
    for (int i = 0; i < 1000; ++i) {
        const TraceRecord r = g.next();
        for (unsigned k = 0; k < r.numLoads; ++k)
            ASSERT_LT(r.loadAddr[k] - spec.dataBase,
                      spec.footprintLines * blockSize);
    }
}

TEST(TraceGenerator, ZeroLengthPhasesAreRejected)
{
    WorkloadSpec s = tinySpec();
    s.phases = 3;
    s.phaseLength = 0;
    EXPECT_ERROR(TraceGenerator{s}, ConfigError, "zero length");
}

TEST(VectorTraceSource, ReplaysAndWraps)
{
    std::vector<TraceRecord> recs(3);
    recs[0].ip = 10;
    recs[1].ip = 20;
    recs[2].ip = 30;
    VectorTraceSource src(recs);
    EXPECT_EQ(src.next().ip, 10u);
    EXPECT_EQ(src.next().ip, 20u);
    EXPECT_EQ(src.next().ip, 30u);
    EXPECT_TRUE(src.done());
    EXPECT_EQ(src.next().ip, 10u); // wraps
    src.reset();
    EXPECT_EQ(src.next().ip, 10u);
}

TEST(TraceIo, RoundTrip)
{
    const std::string path = ::testing::TempDir() + "roundtrip.trc";
    TraceGenerator g(tinySpec());
    std::vector<TraceRecord> original;
    for (int i = 0; i < 500; ++i)
        original.push_back(g.next());
    writeTrace(path, original);

    const auto loaded = readTrace(path);
    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < loaded.size(); ++i) {
        EXPECT_EQ(loaded[i].ip, original[i].ip);
        EXPECT_EQ(loaded[i].loadAddr[0], original[i].loadAddr[0]);
        EXPECT_EQ(loaded[i].isBranch, original[i].isBranch);
    }
    std::remove(path.c_str());
}

TEST(TraceIo, GeneratorToFile)
{
    const std::string path = ::testing::TempDir() + "gen.trc";
    TraceGenerator g(tinySpec());
    EXPECT_EQ(writeTrace(path, g, 100), 100u);

    FileTraceSource src(path);
    EXPECT_EQ(src.count(), 100u);
    TraceGenerator ref(tinySpec());
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(src.next().ip, ref.next().ip);
    std::remove(path.c_str());
}

TEST(TraceIo, FileSourceWrapsLikeChampSim)
{
    const std::string path = ::testing::TempDir() + "wrap.trc";
    std::vector<TraceRecord> recs(2);
    recs[0].ip = 1;
    recs[1].ip = 2;
    writeTrace(path, recs);
    FileTraceSource src(path);
    EXPECT_EQ(src.next().ip, 1u);
    EXPECT_EQ(src.next().ip, 2u);
    EXPECT_EQ(src.next().ip, 1u); // wrapped
    std::remove(path.c_str());
}

TEST(TraceIo, MissingFileIsFatal)
{
    EXPECT_ERROR(FileTraceSource("/nonexistent/file.trc"), TraceError,
                 "cannot open");
}

TEST(TraceIo, BadMagicIsFatal)
{
    const std::string path = ::testing::TempDir() + "garbage.trc";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[64] = "this is not a pinte trace file at all";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
    EXPECT_ERROR(FileTraceSource src(path), TraceError, "not a pinte trace");
    std::remove(path.c_str());
}

TEST(TraceIo, EmptyTraceRejectedAtOpen)
{
    // A zero-record trace has nothing to replay or wrap to; the reader
    // must refuse it at open instead of serving default records.
    const std::string path = ::testing::TempDir() + "empty.trc";
    writeTrace(path, std::vector<TraceRecord>{});
    EXPECT_ERROR(FileTraceSource src(path), TraceError, "empty trace");
    std::remove(path.c_str());
}

TEST(TraceIo, TruncatedHeaderIsFatal)
{
    const std::string path = ::testing::TempDir() + "short.trc";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite("PN", 1, 2, f);
    std::fclose(f);
    EXPECT_ERROR(FileTraceSource src(path), TraceError, "trace read failed");
    std::remove(path.c_str());
}

namespace
{

/** XOR one bit of a file in place. */
void
flipBit(const std::string &path, long offset, unsigned bit = 0)
{
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f) << path;
    f.seekg(offset);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ (1u << bit));
    f.seekp(offset);
    f.write(&byte, 1);
}

/** Rewrite a current-version trace as version 1: no footer, old tag. */
void
downgradeToV1(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    ASSERT_GE(bytes.size(), sizeof(std::uint32_t));
    bytes.resize(bytes.size() - sizeof(std::uint32_t)); // drop footer
    const std::uint32_t v1 = 1;
    bytes.replace(8, sizeof(v1), // version field offset in the header
                  reinterpret_cast<const char *>(&v1), sizeof(v1));
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

} // namespace

TEST(TraceIo, WriterStampsCurrentVersion)
{
    const std::string path = ::testing::TempDir() + "version.trc";
    writeTrace(path, std::vector<TraceRecord>(3));
    FileTraceSource src(path);
    EXPECT_EQ(src.version(), traceVersion);
    EXPECT_EQ(src.version(), 2u);
    std::remove(path.c_str());
}

TEST(TraceIo, BitFlippedTraceRejectedAtOpen)
{
    const std::string path = ::testing::TempDir() + "bitflip.trc";
    TraceGenerator g(tinySpec());
    writeTrace(path, g, 64);
    { FileTraceSource ok(path); } // pristine file opens fine
    // One flipped bit in the middle of the record payload: silent
    // corruption the CRC32 footer exists to catch.
    flipBit(path, 24 + 30 * 56 + 17, 3);
    EXPECT_ERROR(FileTraceSource src(path), TraceError,
                 "checksum mismatch");
    std::remove(path.c_str());
}

TEST(TraceIo, FlippedFooterAlsoRejected)
{
    const std::string path = ::testing::TempDir() + "footflip.trc";
    writeTrace(path, std::vector<TraceRecord>(5));
    std::error_code ec;
    const long end = static_cast<long>(
        std::filesystem::file_size(path, ec));
    flipBit(path, end - 2, 6);
    EXPECT_ERROR(FileTraceSource src(path), TraceError,
                 "checksum mismatch");
    std::remove(path.c_str());
}

TEST(TraceIo, Version1WithoutFooterStillReadable)
{
    const std::string path = ::testing::TempDir() + "old_v1.trc";
    TraceGenerator g(tinySpec());
    std::vector<TraceRecord> original;
    for (int i = 0; i < 50; ++i)
        original.push_back(g.next());
    writeTrace(path, original);
    downgradeToV1(path);

    FileTraceSource src(path);
    EXPECT_EQ(src.version(), 1u);
    ASSERT_EQ(src.count(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        const TraceRecord r = src.next();
        EXPECT_EQ(r.ip, original[i].ip);
        EXPECT_EQ(r.isBranch, original[i].isBranch);
    }
    std::remove(path.c_str());
}

TEST(TraceIo, RecordValidationRejectsOutOfRangeFields)
{
    TraceRecord r; // defaults are valid
    validateRecord(r, 0, "unit");

    TraceRecord loads = r;
    loads.numLoads = 7;
    EXPECT_ERROR(validateRecord(loads, 1, "unit"), TraceError,
                 "numLoads 7 exceeds 2");
    TraceRecord stores = r;
    stores.numStores = 3;
    EXPECT_ERROR(validateRecord(stores, 2, "unit"), TraceError,
                 "numStores 3 exceeds 2");
    TraceRecord branch = r;
    branch.isBranch = 2;
    EXPECT_ERROR(validateRecord(branch, 3, "unit"), TraceError,
                 "isBranch byte is 2");
    TraceRecord taken = r;
    taken.branchTaken = 1;
    EXPECT_ERROR(validateRecord(taken, 4, "unit"), TraceError,
                 "branchTaken set on a non-branch");
    TraceRecord reg = r;
    reg.srcReg[1] = 64; // numArchRegs, but not the 0xff sentinel
    EXPECT_ERROR(validateRecord(reg, 5, "unit"), TraceError,
                 "register id 64 out of range");
    TraceRecord lat = r;
    lat.execLatency = 0;
    EXPECT_ERROR(validateRecord(lat, 6, "unit"), TraceError,
                 "zero execution latency");
}

TEST(TraceIo, CorruptRecordInV1RejectedOnRead)
{
    // A version-1 file has no checksum, so a poisoned field is only
    // caught by per-record validation at read time. The reader decodes
    // in batches, so the error surfaces on the next() that pulls in
    // the batch holding the bad record (here: the very first call) —
    // but it still names the offending record's own index.
    const std::string path = ::testing::TempDir() + "badrec_v1.trc";
    writeTrace(path, std::vector<TraceRecord>(4));
    downgradeToV1(path);
    flipBit(path, 24 + 2 * 56 + 51, 2); // record 2's numLoads -> 4
    FileTraceSource src(path);
    EXPECT_ERROR((void)src.next(), TraceError, "bad trace record 2");
    std::remove(path.c_str());
}

TEST(TraceIo, CorpusReplayNeverCrashesTheReader)
{
    // Every committed corpus input — including regression cases for
    // reader bugs — must produce either a clean parse or a typed
    // TraceError; anything else (crash, unhandled exception) fails.
    const std::string dir = std::string(PINTE_TEST_DATA_DIR) + "/corpus";
    std::size_t total = 0, clean = 0, rejected = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() != ".trc")
            continue;
        ++total;
        try {
            FileTraceSource src(entry.path().string());
            for (std::uint64_t i = 0; i < src.count(); ++i)
                (void)src.next();
            ++clean;
            EXPECT_EQ(entry.path().filename().string().rfind("seed_", 0),
                      0u)
                << entry.path() << " parsed cleanly but is not a seed";
        } catch (const TraceError &) {
            ++rejected;
        }
    }
    EXPECT_GE(total, 10u) << "corpus went missing from " << dir;
    EXPECT_EQ(clean, 2u); // seed_minimal.trc and seed_v1.trc
    EXPECT_EQ(rejected, total - clean);
}

TEST(Zoo, SuiteSizesMatchTableTwo)
{
    EXPECT_EQ(spec2006Zoo().size(), 29u);
    EXPECT_EQ(spec2017Zoo().size(), 20u);
    EXPECT_EQ(fullZoo().size(), 49u);
}

TEST(Zoo, NamesAreUnique)
{
    std::set<std::string> names;
    for (const auto &s : fullZoo())
        names.insert(s.name);
    EXPECT_EQ(names.size(), 49u);
}

TEST(Zoo, AllEntriesGenerateCleanly)
{
    for (const auto &spec : fullZoo()) {
        TraceGenerator g(spec);
        for (int i = 0; i < 200; ++i)
            (void)g.next();
        EXPECT_EQ(g.generated(), 200u) << spec.name;
    }
}

TEST(Zoo, ClassesAssignedAsDocumented)
{
    EXPECT_EQ(findWorkload("429.mcf").klass, WorkloadClass::DramBound);
    EXPECT_EQ(findWorkload("465.tonto").klass, WorkloadClass::CoreBound);
    EXPECT_EQ(findWorkload("450.soplex").klass, WorkloadClass::LlcBound);
    EXPECT_EQ(findWorkload("470.lbm").klass, WorkloadClass::Streaming);
    EXPECT_EQ(findWorkload("403.gcc").klass, WorkloadClass::Mixed);
    EXPECT_EQ(findWorkload("602.gcc").klass, WorkloadClass::DramBound);
}

TEST(Zoo, SuitesTaggedCorrectly)
{
    for (const auto &s : spec2006Zoo())
        EXPECT_EQ(s.suite, Suite::Spec2006) << s.name;
    for (const auto &s : spec2017Zoo())
        EXPECT_EQ(s.suite, Suite::Spec2017) << s.name;
}

TEST(Zoo, SmallZooIsSubsetOfFullZoo)
{
    const auto small = smallZoo();
    EXPECT_GE(small.size(), 10u);
    for (const auto &s : small)
        EXPECT_NO_FATAL_FAILURE(findWorkload(s.name));
}

TEST(Zoo, SmallZooSpansClasses)
{
    std::set<WorkloadClass> classes;
    for (const auto &s : smallZoo())
        classes.insert(s.klass);
    EXPECT_GE(classes.size(), 5u);
}

TEST(Zoo, UnknownNameIsFatal)
{
    EXPECT_ERROR(findWorkload("999.nonesuch"), ConfigError,
                 "unknown zoo workload");
}

namespace
{

/**
 * FNV digests of every zoo stream, recorded before the generator lost
 * its per-instruction divisions: the first 200K records, and the 50K
 * records that follow skip(50000).
 */
struct ZooDigest
{
    const char *name;
    std::uint64_t first200k;
    std::uint64_t afterSkip;
};

const ZooDigest zooDigests[] = {
    {"400.perlbench", 0x4c40e80444fda0d6ull, 0x22045f3b3529eba5ull},
    {"401.bzip2", 0x540b3f65cb5762b9ull, 0x816cadaa43608ecfull},
    {"403.gcc", 0x76011e590efa0ec3ull, 0x427bfbc1da908e8full},
    {"410.bwaves", 0x5b17b617f1d8788aull, 0x6e98e8922a542818ull},
    {"416.gamess", 0x8df3be4f4c0f221eull, 0x3b8257b073a8c3a4ull},
    {"429.mcf", 0x1b52d75315e8bae5ull, 0xca494daa132f48a1ull},
    {"433.milc", 0xbff323a79d9db046ull, 0x5039617fef758756ull},
    {"434.zeusmp", 0xfb93285ee43313d5ull, 0x825cc8e125679f67ull},
    {"435.gromacs", 0x7bc52922824939c1ull, 0x91f21126539b5abdull},
    {"436.cactusADM", 0x0fe37d50d5c60e0dull, 0x7c3ab777d920b03dull},
    {"437.leslie3d", 0xe04de202910628e8ull, 0x6e238b6e098fc390ull},
    {"444.namd", 0xec5aaf28a2608cc0ull, 0x1eaa5921bccfab0dull},
    {"445.gobmk", 0x66ecba9b25ad8ea3ull, 0x02b6654110bb67c4ull},
    {"447.dealII", 0x385f62f04be25adfull, 0x88cdb12ef78f539eull},
    {"450.soplex", 0x1b353858a0bc618aull, 0x9151dc6ae6aff025ull},
    {"453.povray", 0x12a2de0ea51c10feull, 0x1b276c97bc5cfa51ull},
    {"454.calculix", 0x684b90c14857ee90ull, 0x94466a648977092full},
    {"456.hmmer", 0xcb02ea21dcd2e3b3ull, 0x4089eb1ae33acce8ull},
    {"458.sjeng", 0xd201cdfe874bc72bull, 0x7dd86fd81220cdaeull},
    {"459.GemsFDTD", 0x6305e06780e39709ull, 0x15ea0b42031bf155ull},
    {"462.libquantum", 0x747ef67a5a161012ull, 0x27e8922cdea23f73ull},
    {"464.h264ref", 0xec268cdb0de97275ull, 0xc3cc68ddbfe6ded5ull},
    {"465.tonto", 0x65148dd3bd6918c5ull, 0xc4fdc91549d6b926ull},
    {"470.lbm", 0x8e37967e38bf4cc2ull, 0x79a06a8e45169f69ull},
    {"471.omnetpp", 0x34840189b774d049ull, 0x440254470df7d467ull},
    {"473.astar", 0x05aacb1c28d1560full, 0x8751acb38abda4c8ull},
    {"481.wrf", 0x9d948241edeb7242ull, 0x3a0405df6eba2770ull},
    {"482.sphinx3", 0x47c52fd8e1c186a7ull, 0xa85c6fde0ce40ee7ull},
    {"483.xalancbmk", 0xb70a134599163679ull, 0x99de3e726d885281ull},
    {"600.perlbench", 0xa51ab1c78efa9f04ull, 0x242dd6f737dcd7a9ull},
    {"602.gcc", 0x1687322b15b0c409ull, 0xc6922967ac38ca9cull},
    {"603.bwaves", 0xf80b7bd3626ad202ull, 0x60d574dcef4a7ca5ull},
    {"605.mcf", 0x29857dfc5d3756ffull, 0xa4f639296d9288c6ull},
    {"607.cactuBSSN", 0x856706a2b726a972ull, 0xa9a8677a2a8722c1ull},
    {"619.lbm", 0xc9c136556d41438dull, 0x9d01122eb97071b2ull},
    {"620.omnetpp", 0x1398e61a0e45c1bcull, 0xd3d8b32c4350f62full},
    {"621.wrf", 0x4678f77e53909dd1ull, 0xd10bbd18546cb119ull},
    {"623.xalancbmk", 0xce73c938a75f37c3ull, 0x12a6229414ab3b3aull},
    {"625.x264", 0xa3f4610404ddc39full, 0xb33ac1c52537cbb2ull},
    {"627.cam4", 0xad2a5ff7fbd5ab66ull, 0x987c485288caf547ull},
    {"628.pop2", 0x058b349a210d095aull, 0xe17790837870858full},
    {"631.deepsjeng", 0xd4db21dc468522a5ull, 0xc481b95bdbbd4759ull},
    {"638.imagick", 0xcf1a545f0df154fdull, 0xec2558ae72e98661ull},
    {"641.leela", 0xb7029e23f129076full, 0x7f9d29391e1a43d5ull},
    {"644.nab", 0x10979b5f0fd45c6full, 0x4f1bedda028ca3f8ull},
    {"648.exchange2", 0xa9c393d99a38e16bull, 0x8be3e44bff6ad395ull},
    {"649.fotonik3d", 0x9dbdcb8f7f536400ull, 0xdd48787ca0ec592aull},
    {"654.roms", 0x3b1501c426f8ff5full, 0x20c023f74a743b3cull},
    {"657.xz", 0xb3d87efd871596c0ull, 0x1a0cab799bd26655ull},
};

} // namespace

TEST(Zoo, StreamsMatchRecordedDigests)
{
    ASSERT_EQ(std::size(zooDigests), fullZoo().size());
    for (const ZooDigest &d : zooDigests) {
        TraceGenerator g(findWorkload(d.name));
        EXPECT_EQ(digestRecords(g, 200000), d.first200k) << d.name;
    }
}

TEST(Zoo, StreamsAfterSkipMatchRecordedDigests)
{
    for (const ZooDigest &d : zooDigests) {
        TraceGenerator g(findWorkload(d.name));
        g.skip(50000);
        EXPECT_EQ(digestRecords(g, 50000), d.afterSkip) << d.name;
    }
}

TEST(Zoo, CheckpointRoundTripMidStreamKeepsTheStream)
{
    for (const ZooDigest &d : zooDigests) {
        const WorkloadSpec spec = findWorkload(d.name);
        TraceGenerator first(spec);
        const std::uint64_t h = digestRecords(first, 100000);
        SnapshotWriter w;
        first.saveState(w);
        TraceGenerator second(spec);
        SnapshotReader r(w.bytes());
        second.loadState(r);
        EXPECT_EQ(digestRecords(second, 100000, h), d.first200k) << d.name;
    }
}

TEST(WorkloadSpec, NormalizeMixSumsToOne)
{
    WorkloadSpec s;
    s.streamFraction = 2.0;
    s.strideFraction = 1.0;
    s.chaseFraction = 1.0;
    s.randomFraction = 0.0;
    s.normalizeMix();
    EXPECT_NEAR(s.streamFraction + s.strideFraction + s.chaseFraction +
                    s.randomFraction,
                1.0, 1e-12);
    EXPECT_NEAR(s.streamFraction, 0.5, 1e-12);
}

TEST(WorkloadSpec, NormalizeMixDegenerateFallsBackToStream)
{
    WorkloadSpec s;
    s.streamFraction = s.strideFraction = 0.0;
    s.chaseFraction = s.randomFraction = 0.0;
    s.normalizeMix();
    EXPECT_EQ(s.streamFraction, 1.0);
}

TEST(WorkloadClassNames, AllDistinct)
{
    std::set<std::string> names;
    names.insert(toString(WorkloadClass::CoreBound));
    names.insert(toString(WorkloadClass::CacheFriendly));
    names.insert(toString(WorkloadClass::LlcBound));
    names.insert(toString(WorkloadClass::DramBound));
    names.insert(toString(WorkloadClass::Streaming));
    names.insert(toString(WorkloadClass::Mixed));
    EXPECT_EQ(names.size(), 6u);
}
