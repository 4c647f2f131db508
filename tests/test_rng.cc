/**
 * @file
 * Tests for the deterministic RNG (common/rng.hh).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <vector>

#include "common/rng.hh"

using namespace pinte;

TEST(Rng, DeterministicFromSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_EQ(same, 0);
}

TEST(Rng, NearbySeedsGiveUnrelatedStreams)
{
    // splitmix64 seeding should decorrelate adjacent seeds.
    Rng a(100), b(101);
    double corr = 0;
    for (int i = 0; i < 1000; ++i)
        corr += (a.drawUnit() - 0.5) * (b.drawUnit() - 0.5);
    corr /= 1000;
    EXPECT_LT(std::abs(corr), 0.02);
}

TEST(Rng, ReseedRestartsStream)
{
    Rng a(7);
    std::vector<std::uint64_t> first;
    for (int i = 0; i < 10; ++i)
        first.push_back(a.next());
    a.reseed(7);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(a.next(), first[i]);
}

TEST(Rng, DrawUnitInHalfOpenInterval)
{
    Rng r(3);
    for (int i = 0; i < 100000; ++i) {
        const double u = r.drawUnit();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
    }
}

TEST(Rng, DrawUnitMeanNearHalf)
{
    Rng r(11);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += r.drawUnit();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, DrawRangeBounds)
{
    Rng r(5);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(r.drawRange(17), 17u);
}

TEST(Rng, DrawRangeZeroBound)
{
    Rng r(5);
    EXPECT_EQ(r.drawRange(0), 0u);
}

TEST(Rng, DrawRangeOneBound)
{
    Rng r(5);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(r.drawRange(1), 0u);
}

TEST(Rng, DrawRangeCoversAllValues)
{
    Rng r(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(r.drawRange(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, DrawRangeRoughlyUniform)
{
    Rng r(13);
    const int buckets = 10, n = 100000;
    std::vector<int> count(buckets, 0);
    for (int i = 0; i < n; ++i)
        count[r.drawRange(buckets)]++;
    // Each bucket within 5% of expectation.
    for (int c : count)
        EXPECT_NEAR(c, n / buckets, n / buckets * 0.05);
}

TEST(Rng, DrawBetweenInclusive)
{
    Rng r(17);
    bool hit_lo = false, hit_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const auto v = r.drawBetween(3, 6);
        ASSERT_GE(v, 3u);
        ASSERT_LE(v, 6u);
        hit_lo |= (v == 3);
        hit_hi |= (v == 6);
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

TEST(Rng, DrawBetweenDegenerate)
{
    Rng r(19);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(r.drawBetween(5, 5), 5u);
}

TEST(Rng, DrawBoolProbability)
{
    Rng r(23);
    const int n = 100000;
    int heads = 0;
    for (int i = 0; i < n; ++i)
        if (r.drawBool(0.3))
            ++heads;
    EXPECT_NEAR(heads / double(n), 0.3, 0.01);
}

TEST(Rng, DrawBoolExtremes)
{
    Rng r(29);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_FALSE(r.drawBool(0.0));
        EXPECT_TRUE(r.drawBool(1.0));
    }
}

TEST(Rng, DrawExponentialMean)
{
    Rng r(31);
    const int n = 200000;
    double sum = 0;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(r.drawExponential(50.0, 100000));
    // Integer truncation shifts the mean down by ~0.5.
    EXPECT_NEAR(sum / n, 49.5, 1.5);
}

TEST(Rng, DrawExponentialCap)
{
    Rng r(37);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LE(r.drawExponential(1000.0, 64), 64u);
}

TEST(Rng, DrawExponentialZeroMean)
{
    Rng r(41);
    EXPECT_EQ(r.drawExponential(0.0, 100), 0u);
    EXPECT_EQ(r.drawExponential(-1.0, 100), 0u);
}

// Known answers, recorded before the draw hot path moved inline into
// rng.hh: any change to the generator or to a draw's arithmetic
// changes every simulated result, so it must show up here first.

TEST(Rng, KnownAnswerNext)
{
    const std::uint64_t seeds[3] = {0, 42, 0xdeadbeefcafef00dull};
    const std::uint64_t want[3][16] = {
        {0x99ec5f36cb75f2b4ull, 0xbf6e1f784956452aull,
         0x1a5f849d4933e6e0ull, 0x6aa594f1262d2d2cull,
         0xbba5ad4a1f842e59ull, 0xffef8375d9ebcacaull,
         0x6c160deed2f54c98ull, 0x8920ad648fc30a3full,
         0xdb032c0ba7539731ull, 0xeb3a475a3e749a3dull,
         0x1d42993fa43f2a54ull, 0x11361bf526a14bb5ull,
         0x1b4f07a5ab3d8e9cull, 0xa7a3257f6986db7full,
         0x7efdaa95605dfc9cull, 0x4bde97c0a78eaab8ull},
        {0x15780b2e0c2ec716ull, 0x6104d9866d113a7eull,
         0xae17533239e499a1ull, 0xecb8ad4703b360a1ull,
         0xfde6dc7fe2ec5e64ull, 0xc50da53101795238ull,
         0xb82154855a65ddb2ull, 0xd99a2743ebe60087ull,
         0xc2e96e726e97647eull, 0x9556615f775fbc3dull,
         0xaeb53b340c103971ull, 0x4a69db9873af8965ull,
         0xcd0feda93006c6b6ull, 0x52480865a4b42742ull,
         0xb60dec3bf2d887cdull, 0xe0b55a68b96677faull},
        {0x9e32cfb5bb93eebbull, 0x16006bd9d4ac0014ull,
         0x8ada5d6d34b6538eull, 0x7c327ca32346a238ull,
         0xc43a6d6a3492ced2ull, 0xdb639ecb036a9c04ull,
         0xc5a4b301c52fcfa4ull, 0xbcc5e0efaa8ded95ull,
         0x8a903b49d88ef4f7ull, 0xc6043008a620aa78ull,
         0x8a82731f1fe378b7ull, 0xd4c879a2e28ba874ull,
         0x024b67ade38a6aacull, 0x2f3a0ef285cd43d0ull,
         0xd6e9ef65cc351aacull, 0xfdb9c0427eaa514bull}
    };
    for (int s = 0; s < 3; ++s) {
        Rng r(seeds[s]);
        for (int i = 0; i < 16; ++i)
            EXPECT_EQ(r.next(), want[s][i]) << "seed " << s << " draw " << i;
    }
}

TEST(Rng, KnownAnswerDrawUnit)
{
    // Bit patterns of the doubles, so the check is exact.
    const std::uint64_t want[8] = {
        0x3fe66b1f5ee9df2eull, 0x3fd1d70f6593d20aull,
        0x3feade3a6932a58full, 0x3fef65270e63d00eull,
        0x3fefb5209d8fca80ull, 0x3febedc39c76c431ull,
        0x3faf1ae5852bd8b0ull, 0x3fbabc4dcb546f60ull};
    Rng r(7);
    for (int i = 0; i < 8; ++i) {
        const double u = r.drawUnit();
        std::uint64_t bits;
        std::memcpy(&bits, &u, sizeof bits);
        EXPECT_EQ(bits, want[i]) << "draw " << i;
    }
}

TEST(Rng, KnownAnswerDrawBool)
{
    Rng r(9);
    std::uint64_t mask = 0;
    for (int i = 0; i < 64; ++i)
        mask |= std::uint64_t{r.drawBool(0.3)} << i;
    EXPECT_EQ(mask, 0x041b06a9ad411107ull);
}

TEST(Rng, KnownAnswerDrawBetween)
{
    const std::uint64_t want[16] = {
        231, 96, 253, 449, 94, 313, 517, 996, 636, 237, 72, 345, 853,
        84, 381, 840};
    Rng r(11);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(r.drawBetween(10, 1000), want[i]) << "draw " << i;
}

TEST(Rng, KnownAnswerDrawRangeRejecting)
{
    // A bound just above 2^63 rejects about half of all raw draws, so
    // the out-of-line redraw loop runs; the draw after the 16 values
    // pins how many raw draws they consumed.
    const std::uint64_t bound = (1ull << 63) + 1;
    const std::uint64_t want[16] = {
        0x7b40a35e8fd8a7fcull, 0x53a45ccd1948c0d7ull,
        0x3853d6edd3a21e0full, 0x10b118009bd06e7eull,
        0x53f821d5648ac8d4ull, 0x6a07ef633652773aull,
        0x1f0904737e64bc5bull, 0x114b63c31e152c38ull,
        0x4692909ec34c10acull, 0x5745c79190d5fd72ull,
        0x5eca51ee1e7e20c8ull, 0x79ea30f779e8727dull,
        0x49d3d3093625555aull, 0x06ba5117f53c570aull,
        0x18729826148f8f0dull, 0x6d6c7a85e94a89ebull};
    Rng r(13);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(r.drawRange(bound), want[i]) << "draw " << i;
    EXPECT_EQ(r.next(), 0x5e0af4a305a71266ull);
}
