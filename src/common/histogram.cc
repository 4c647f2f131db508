#include "histogram.hh"

#include "logging.hh"

namespace pinte
{

Histogram::Histogram(std::size_t buckets)
    : counts_(buckets, 0), total_(0)
{
    if (buckets == 0)
        fatal("Histogram requires at least one bucket");
}

Histogram
Histogram::fromCounts(const std::vector<std::uint64_t> &counts)
{
    Histogram h(counts.empty() ? 1 : counts.size());
    for (std::size_t i = 0; i < counts.size(); ++i)
        h.add(i, counts[i]);
    return h;
}

void
Histogram::clear()
{
    for (auto &c : counts_)
        c = 0;
    total_ = 0;
}

void
Histogram::merge(const Histogram &other)
{
    if (other.size() != size())
        panic("Histogram::merge size mismatch");
    for (std::size_t i = 0; i < counts_.size(); ++i)
        counts_[i] += other.counts_[i];
    total_ += other.total_;
}

std::vector<double>
Histogram::toDistribution() const
{
    std::vector<double> p(counts_.size());
    if (total_ == 0) {
        const double u = 1.0 / static_cast<double>(counts_.size());
        for (auto &v : p)
            v = u;
        return p;
    }
    const double inv = 1.0 / static_cast<double>(total_);
    for (std::size_t i = 0; i < counts_.size(); ++i)
        p[i] = static_cast<double>(counts_[i]) * inv;
    return p;
}

Log2Histogram
Log2Histogram::fromCounts(const std::vector<std::uint64_t> &counts)
{
    Log2Histogram h;
    h.counts_ = counts;
    // Trim never-touched trailing buckets so a round-tripped histogram
    // compares equal to the original (size() is highest used + 1).
    while (!h.counts_.empty() && h.counts_.back() == 0)
        h.counts_.pop_back();
    h.total_ = 0;
    for (const std::uint64_t c : h.counts_)
        h.total_ += c;
    return h;
}

void
Log2Histogram::grow(std::size_t b)
{
    counts_.resize(b + 1, 0);
}

void
Log2Histogram::clear()
{
    counts_.clear();
    total_ = 0;
}

Histogram
bucketSamples(const std::vector<double> &samples, double lo, double hi,
              std::size_t buckets)
{
    Histogram h(buckets);
    if (hi <= lo)
        fatal("bucketSamples requires hi > lo");
    const double width = (hi - lo) / static_cast<double>(buckets);
    for (double s : samples) {
        std::size_t b;
        if (s <= lo) {
            b = 0;
        } else if (s >= hi) {
            b = buckets - 1;
        } else {
            b = static_cast<std::size_t>((s - lo) / width);
            if (b >= buckets)
                b = buckets - 1;
        }
        h.add(b);
    }
    return h;
}

} // namespace pinte
