#include "rng.hh"

#include <cmath>

namespace pinte
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t &x)
{
    std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    reseed(seed);
}

void
Rng::reseed(std::uint64_t seed)
{
    // xoshiro must not be seeded with all zeros; splitmix64 guarantees a
    // well-mixed non-zero state for any input seed.
    std::uint64_t x = seed;
    for (auto &s : s_)
        s = splitmix64(x);
}

std::uint64_t
Rng::drawRangeRejecting(std::uint64_t bound, __uint128_t m)
{
    // Lemire's unbiased bounded draw: redraw while the low word falls
    // in the biased sliver below 2^64 mod bound.
    const std::uint64_t t = -bound % bound;
    while (static_cast<std::uint64_t>(m) < t)
        m = static_cast<__uint128_t>(next()) * bound;
    return static_cast<std::uint64_t>(m >> 64);
}

std::uint64_t
Rng::drawExponential(double mean, std::uint64_t cap)
{
    if (mean <= 0.0)
        return 0;
    double u = drawUnit();
    // Guard against log(0).
    if (u <= 0.0)
        u = 0x1.0p-53;
    double v = -mean * std::log(u);
    if (v >= static_cast<double>(cap))
        return cap;
    return static_cast<std::uint64_t>(v);
}

} // namespace pinte
