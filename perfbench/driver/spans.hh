/**
 * @file
 * Exclusive ("self") time accounting over properly nested spans.
 *
 * A span is one call across a layer boundary: it opens when the call
 * enters the layer and closes when it returns. A layer's self time is
 * the time its spans cover minus the time covered by the spans nested
 * directly inside them. The traced run opens tens of millions of spans,
 * so SpanStack folds each one into per-layer totals as it closes
 * instead of storing it; selfTimesFromSpans() is the stored-span
 * definition the online form is tested against.
 *
 * Every span edge costs one clock read that lands inside some span's
 * measured interval. edgeCostNs() calibrates that cost and attribute()
 * subtracts it: one edge from each span (its closing read) and one
 * from its parent for each child (the child's opening read).
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench
{

/** Monotonic host time in nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Raw per-layer totals accumulated while spans close. */
struct LayerTotals
{
    std::uint64_t calls = 0;    //!< spans of this layer closed
    std::uint64_t children = 0; //!< spans closed directly inside them
    std::int64_t selfNs = 0;    //!< durations minus direct children's
};

/** Online exclusive-time accounting for nested spans. */
class SpanStack
{
  public:
    /** Open a span of `layer` at time `t`. */
    void
    enter(LayerTotals &layer, std::int64_t t)
    {
        if (depth_ == maxDepth)
            throw std::runtime_error("span nesting deeper than " +
                                     std::to_string(maxDepth));
        frames_[depth_++] = Frame{&layer, t, 0};
    }

    /** Close the innermost open span at time `t`. */
    void
    exit(std::int64_t t)
    {
        const Frame &f = frames_[--depth_];
        const std::int64_t dur = t - f.start;
        f.layer->selfNs += dur - f.childNs;
        ++f.layer->calls;
        if (depth_ > 0) {
            frames_[depth_ - 1].childNs += dur;
            ++frames_[depth_ - 1].layer->children;
        } else {
            ++roots_;
        }
    }

    /** Spans closed with no open parent. */
    std::uint64_t roots() const { return roots_; }

    /** Spans still open. */
    unsigned depth() const { return depth_; }

  private:
    static constexpr unsigned maxDepth = 32;

    struct Frame
    {
        LayerTotals *layer;
        std::int64_t start;
        std::int64_t childNs;
    };

    Frame frames_[maxDepth] = {};
    unsigned depth_ = 0;
    std::uint64_t roots_ = 0;
};

/** One recorded span, for the stored-span definition. */
struct Span
{
    int layer;          //!< index into the caller's layer list
    std::int64_t start; //!< open time
    std::int64_t end;   //!< close time
    int parent;         //!< index of the enclosing span, or -1
};

/**
 * Self time per layer from a stored span set: each span's duration
 * minus the length of the union of its direct children's intervals
 * clipped to its own. This is the definition SpanStack implements
 * online for properly nested spans.
 */
inline std::vector<std::int64_t>
selfTimesFromSpans(const std::vector<Span> &spans, int layers)
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0)
            kids[static_cast<std::size_t>(s.parent)].push_back(
                {s.start, s.end});
    std::vector<std::int64_t> self(static_cast<std::size_t>(layers), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t reach = spans[i].start;
        for (auto [a, b] : iv) {
            a = std::max(a, reach);
            b = std::min(b, spans[i].end);
            if (b > a) {
                covered += b - a;
                reach = b;
            }
        }
        self[static_cast<std::size_t>(spans[i].layer)] +=
            spans[i].end - spans[i].start - covered;
    }
    return self;
}

/** Self time of one layer after the clock-read correction. */
struct LayerSelf
{
    std::uint64_t calls = 0;
    double selfNs = 0.0; //!< corrected
    double share = 0.0;  //!< of the corrected traced wall time
};

/** Attribution of one traced run's wall time. */
struct Attribution
{
    std::vector<LayerSelf> layers;
    double leftoverNs = 0.0;    //!< "core + glue": time in no layer
    double leftoverShare = 0.0;
    double correctedWallNs = 0.0; //!< wall minus every edge's read
};

/**
 * Turn raw totals into corrected self times and shares.
 *
 * @param totals one entry per layer
 * @param roots spans that closed with no parent (their opening read
 *        lands in the leftover)
 * @param wallNs wall time of the whole traced run
 * @param edgeNs calibrated cost of one span edge
 */
inline Attribution
attribute(const std::vector<LayerTotals> &totals, std::uint64_t roots,
          std::int64_t wallNs, double edgeNs)
{
    Attribution a;
    std::uint64_t spans = 0;
    double raw_self = 0.0;
    for (const LayerTotals &t : totals) {
        LayerSelf l;
        l.calls = t.calls;
        l.selfNs = static_cast<double>(t.selfNs) -
                   edgeNs * static_cast<double>(t.calls + t.children);
        a.layers.push_back(l);
        spans += t.calls;
        raw_self += static_cast<double>(t.selfNs);
    }
    a.leftoverNs = static_cast<double>(wallNs) - raw_self -
                   edgeNs * static_cast<double>(roots);
    a.correctedWallNs =
        static_cast<double>(wallNs) - 2.0 * edgeNs * static_cast<double>(spans);
    if (a.correctedWallNs > 0.0) {
        for (LayerSelf &l : a.layers)
            l.share = l.selfNs / a.correctedWallNs;
        a.leftoverShare = a.leftoverNs / a.correctedWallNs;
    }
    return a;
}

/**
 * Cost of one span edge, calibrated in place: what the traced run took
 * beyond the untraced run of the same work, per edge. A tight loop of
 * clock reads overstates it, because in place the out-of-order core
 * overlaps part of each read with the simulator's own work.
 */
inline double
edgeCostNs(double tracedNs, double untracedNs, std::uint64_t spans)
{
    if (spans == 0 || tracedNs <= untracedNs)
        return 0.0;
    return (tracedNs - untracedNs) / (2.0 * static_cast<double>(spans));
}

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
