/**
 * @file
 * Self-test of the benchmark's self-time arithmetic: the online
 * SpanStack against the stored-span definition on synthetic nested
 * span sets, a hand-worked example, and the clock-read correction.
 * Exits nonzero on the first failed check.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <vector>

#include "../driver/spans.hh"

using namespace perfbench;

namespace
{

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++failures;
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9 * std::max(1.0, std::fabs(b));
}

/**
 * Emit a random span tree under `parent` into `spans`, replaying each
 * edge through `stack` as it happens. Gaps between children model time
 * spent in the parent itself.
 */
void
grow(std::mt19937_64 &rng, std::vector<Span> &spans, SpanStack &stack,
     std::vector<LayerTotals> &totals, int parent, int depth,
     std::int64_t &clock)
{
    const int kids = depth < 5 ? static_cast<int>(rng() % 4) : 0;
    for (int k = 0; k < kids; ++k) {
        clock += static_cast<std::int64_t>(rng() % 50);
        const int layer = static_cast<int>(rng() % totals.size());
        const int self = static_cast<int>(spans.size());
        spans.push_back({layer, clock, 0, parent});
        stack.enter(totals[static_cast<std::size_t>(layer)], clock);
        grow(rng, spans, stack, totals, self, depth + 1, clock);
        clock += 1 + static_cast<std::int64_t>(rng() % 50);
        spans[static_cast<std::size_t>(self)].end = clock;
        stack.exit(clock);
    }
}

void
testRandomTrees()
{
    std::mt19937_64 rng(7);
    for (int trial = 0; trial < 500; ++trial) {
        std::vector<LayerTotals> totals(4);
        std::vector<Span> spans;
        SpanStack stack;
        std::int64_t clock = 0;
        grow(rng, spans, stack, totals, -1, 0, clock);
        const std::vector<std::int64_t> want =
            selfTimesFromSpans(spans, 4);
        for (std::size_t l = 0; l < totals.size(); ++l)
            check(totals[l].selfNs == want[l],
                  "online self time equals the stored-span definition");
        check(stack.depth() == 0, "every span closed");
        std::uint64_t calls = 0, children = 0, roots = 0;
        for (const Span &s : spans)
            roots += s.parent < 0;
        for (const LayerTotals &t : totals) {
            calls += t.calls;
            children += t.children;
        }
        check(calls == spans.size(), "one call per span");
        check(children + roots == spans.size(),
              "every span is a root or some span's child");
        check(stack.roots() == roots, "root count");
    }
}

void
testWorkedExample()
{
    // A [0,100] holds B [10,40] (which holds C [20,30]) and D [50,60].
    enum { A, B, C, D };
    std::vector<LayerTotals> totals(4);
    SpanStack stack;
    stack.enter(totals[A], 0);
    stack.enter(totals[B], 10);
    stack.enter(totals[C], 20);
    stack.exit(30);
    stack.exit(40);
    stack.enter(totals[D], 50);
    stack.exit(60);
    stack.exit(100);
    check(totals[A].selfNs == 60, "A self = 100 - 30 - 10");
    check(totals[B].selfNs == 20, "B self = 30 - 10");
    check(totals[C].selfNs == 10, "C self");
    check(totals[D].selfNs == 10, "D self");
    check(totals[A].children == 2 && totals[B].children == 1,
          "direct children counted on the parent's layer");

    // Wall 120: 20 outside A. One edge costs 1: each span loses one
    // edge plus one per direct child, the leftover one per root.
    const Attribution a = attribute(totals, stack.roots(), 120, 1.0);
    check(near(a.layers[A].selfNs, 57.0), "A corrected = 60 - (1 + 2)");
    check(near(a.layers[B].selfNs, 18.0), "B corrected = 20 - (1 + 1)");
    check(near(a.layers[C].selfNs, 9.0), "C corrected = 10 - 1");
    check(near(a.layers[D].selfNs, 9.0), "D corrected = 10 - 1");
    check(near(a.leftoverNs, 19.0), "leftover = 120 - 100 - 1");
    check(near(a.correctedWallNs, 112.0), "wall less two edges per span");
    double sum = a.leftoverShare;
    for (const LayerSelf &l : a.layers)
        sum += l.share;
    check(near(sum, 1.0), "shares and leftover sum to 1");
}

void
testSpansAcrossStoredOverlap()
{
    // Stored spans whose children overlap each other (not producible
    // by a stack, but the definition must not count time twice).
    const std::vector<Span> spans = {
        {0, 0, 100, -1}, {1, 10, 50, 0}, {1, 30, 70, 0}};
    const auto self = selfTimesFromSpans(spans, 2);
    check(self[0] == 40, "union of overlapping children is 60");
    check(self[1] == 80, "children keep their full durations");
}

void
testCalibration()
{
    check(near(edgeCostNs(1300.0, 700.0, 10), 30.0),
          "extra time spread over two edges per span");
    check(edgeCostNs(600.0, 700.0, 10) == 0.0,
          "a traced run faster than the untraced one costs nothing");
    check(edgeCostNs(900.0, 700.0, 0) == 0.0, "no spans, no cost");
}

} // namespace

int
main()
{
    testRandomTrees();
    testWorkedExample();
    testSpansAcrossStoredOverlap();
    testCalibration();
    if (failures) {
        std::fprintf(stderr, "%d check(s) failed\n", failures);
        return 1;
    }
    std::puts("perfbench selftest: ok");
    return 0;
}
