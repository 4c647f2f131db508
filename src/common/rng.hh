/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behavior in the simulator (PInTE trigger draws, random
 * replacement, synthetic trace generation) flows through Rng so a run is
 * reproducible from a single seed. The generator is xoshiro256**, which
 * is fast, has a 2^256-1 period, and passes BigCrush.
 */

#ifndef PINTE_COMMON_RNG_HH
#define PINTE_COMMON_RNG_HH

#include <array>
#include <bit>
#include <cstdint>

namespace pinte
{

/**
 * xoshiro256** pseudo-random generator with convenience draws.
 *
 * The PInTE paper computes its trigger ratio as
 * random_number / max_random_number (eq. 2); drawUnit() provides exactly
 * that quantity in [0, 1).
 */
class Rng
{
  public:
    /** Seed via splitmix64 so nearby seeds give unrelated streams. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    // The draws below run about a dozen times per generated
    // instruction and once per LLC access, so they are inline: the
    // build has no LTO to inline them across translation units.

    /** Next raw 64-bit draw. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = std::rotl(s_[3], 45);

        return result;
    }

    /** Uniform double in [0, 1) — the paper's trigger ratio (eq. 2). */
    double
    drawUnit()
    {
        // 53 high bits -> double in [0, 1) with full mantissa resolution.
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform integer in [0, bound) via Lemire rejection. */
    std::uint64_t
    drawRange(std::uint64_t bound)
    {
        if (bound == 0)
            return 0;
        const __uint128_t m = static_cast<__uint128_t>(next()) * bound;
        // Only a low product below `bound` can need a redraw; that is
        // rare for small bounds, so the rejection loop is out of line.
        if (static_cast<std::uint64_t>(m) < bound) [[unlikely]]
            return drawRangeRejecting(bound, m);
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    drawBetween(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + drawRange(hi - lo + 1);
    }

    /** Bernoulli draw: true with probability p. */
    bool drawBool(double p) { return drawUnit() < p; }

    /**
     * Geometric-ish draw of an exponentially distributed value with the
     * given mean, clamped to [0, cap]. Used by trace generators to pick
     * reuse distances.
     */
    std::uint64_t drawExponential(double mean, std::uint64_t cap);

    /** Re-seed the generator, restarting the stream. */
    void reseed(std::uint64_t seed);

    /** @name Checkpoint support (common/snapshot.hh) */
    /// @{
    /** The four xoshiro256** state words, s[0]..s[3]. */
    std::array<std::uint64_t, 4>
    state() const
    {
        return {s_[0], s_[1], s_[2], s_[3]};
    }

    /** Restore a stream captured with state(). */
    void
    setState(const std::array<std::uint64_t, 4> &s)
    {
        for (int i = 0; i < 4; ++i)
            s_[i] = s[i];
    }
    /// @}

  private:
    /** drawRange()'s Lemire rejection test and redraw loop, entered
     *  with the first product `m` whose low word is below `bound`. */
    std::uint64_t drawRangeRejecting(std::uint64_t bound, __uint128_t m);

    std::uint64_t s_[4];
};

} // namespace pinte

#endif // PINTE_COMMON_RNG_HH
