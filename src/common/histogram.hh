/**
 * @file
 * Fixed-bucket counting histogram plus probability-distribution views.
 *
 * Used for LLC reuse-position histograms (Fig 5/6 of the paper) and for
 * bucketing run-time metric samples before KL-divergence comparison
 * (Fig 7).
 */

#ifndef PINTE_COMMON_HISTOGRAM_HH
#define PINTE_COMMON_HISTOGRAM_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pinte
{

/**
 * Integer-bucket counting histogram.
 *
 * Buckets are indexed 0..size-1; out-of-range samples are clamped to the
 * last bucket so total mass is conserved.
 */
class Histogram
{
  public:
    /** Create a histogram with `buckets` zeroed buckets. */
    explicit Histogram(std::size_t buckets);

    /**
     * Rebuild a histogram from serialized bucket counts (the resume
     * journal round-trips reuse histograms through JSON).
     */
    static Histogram fromCounts(const std::vector<std::uint64_t> &counts);

    /** Record one observation in bucket `b` (clamped). */
    void
    add(std::size_t b, std::uint64_t count = 1)
    {
        if (b >= counts_.size())
            b = counts_.size() - 1;
        counts_[b] += count;
        total_ += count;
    }

    /** Count in bucket `b`. */
    std::uint64_t at(std::size_t b) const { return counts_[b]; }

    /** Number of buckets. */
    std::size_t size() const { return counts_.size(); }

    /** Sum of all bucket counts. */
    std::uint64_t total() const { return total_; }

    /** Reset all buckets to zero. */
    void clear();

    /** Element-wise accumulate another histogram of the same size. */
    void merge(const Histogram &other);

    /**
     * Normalize to a probability distribution.
     * An empty histogram yields the uniform distribution so that
     * downstream divergence computations stay well-defined.
     */
    std::vector<double> toDistribution() const;

    /** Raw bucket counts. */
    const std::vector<std::uint64_t> &counts() const { return counts_; }

  private:
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_;
};

/**
 * Bucket a sequence of real-valued samples into an equal-width histogram
 * spanning [lo, hi]. Samples outside the range clamp to the end buckets.
 * Used to turn run-time metric series into distributions for eq. 5.
 */
Histogram bucketSamples(const std::vector<double> &samples, double lo,
                        double hi, std::size_t buckets);

/**
 * Log2-bucketed counting histogram for latency and occupancy samples.
 *
 * Bucket 0 holds the value 0; bucket b >= 1 holds values in
 * [2^(b-1), 2^b). Buckets grow on demand, so the range never clamps
 * and total() always equals the number of observations — the
 * observability layer's conservation tests rely on that. One add() is
 * a bit_width plus a vector increment, cheap enough to leave on in
 * simulation hot paths (LLC miss latency, MSHR/ROB occupancy).
 */
class Log2Histogram
{
  public:
    Log2Histogram() = default;

    /**
     * Rebuild from serialized bucket counts (checkpoint restore);
     * index = bucket, exactly the counts() representation.
     */
    static Log2Histogram
    fromCounts(const std::vector<std::uint64_t> &counts);

    /** Record `count` observations of `value`. */
    void
    add(std::uint64_t value, std::uint64_t count = 1)
    {
        // bit_width(0) == 0, bit_width(v) == floorLog2(v) + 1
        // otherwise: exactly the bucket numbering above.
        const auto b = static_cast<std::size_t>(std::bit_width(value));
        if (b >= counts_.size()) [[unlikely]]
            grow(b);
        counts_[b] += count;
        total_ += count;
    }

    /** Number of buckets currently allocated (highest used + 1). */
    std::size_t size() const { return counts_.size(); }

    /** Count in bucket `b` (0 for never-touched buckets). */
    std::uint64_t
    at(std::size_t b) const
    {
        return b < counts_.size() ? counts_[b] : 0;
    }

    /** Sum of all bucket counts (= number of observations). */
    std::uint64_t total() const { return total_; }

    /** Smallest value that lands in bucket `b`. */
    static std::uint64_t
    bucketLow(std::size_t b)
    {
        return b == 0 ? 0 : 1ull << (b - 1);
    }

    /** Reset all buckets (end of warmup). */
    void clear();

    /** Raw bucket counts, index = bucket. */
    const std::vector<std::uint64_t> &counts() const { return counts_; }

  private:
    /** Extend counts_ to bucket `b`, zero-filled. */
    void grow(std::size_t b);

    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

} // namespace pinte

#endif // PINTE_COMMON_HISTOGRAM_HH
