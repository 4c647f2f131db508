/**
 * @file
 * Section II motivation: the cost of multi-programmed contention
 * analysis escalates with mix size.
 *
 * The paper argues that if a pair of workloads is not representative,
 * three- and four-way mixes are needed — multiplying both per-
 * experiment cost (more cores simulated) and experiment count
 * (combinations explode). This bench measures per-experiment CPU
 * cost and combination counts for 1..4-way mixes over the small zoo,
 * against the flat cost of the PInTE sweep.
 */

#include <string>
#include <vector>

#include "analysis/table.hh"
#include "bench_common.hh"
#include "common/summary_stats.hh"

using namespace pinte;
using namespace pinte::bench;

namespace
{

/** n choose k. */
std::uint64_t
choose(std::uint64_t n, std::uint64_t k)
{
    std::uint64_t r = 1;
    for (std::uint64_t i = 0; i < k; ++i)
        r = r * (n - i) / (i + 1);
    return r;
}

} // namespace

namespace
{

int
benchMain(int argc, char **argv)
{
    const BenchOptions opt = BenchOptions::parse(argc, argv);
    const auto zoo = opt.zoo();
    const MachineConfig machine = MachineConfig::scaled();
    const std::size_t paper_n = 188; // the paper's trace count

    auto rep = opt.report("bench_motivation", machine);
    rep->note("MOTIVATION (section II): contention-analysis cost vs "
              "mix size");
    rep->note("");

    TableData t("motivation_cost",
                {"experiment design", "combos @" +
                     std::to_string(zoo.size()) + " workloads",
                 "combos @188 traces", "avg cpu (s)",
                 "relative cost"});

    // Measure average per-experiment cost for k = 1..4 by sampling a
    // handful of representative mixes. Costs are per-thread CPU time,
    // so the samples can run concurrently without polluting each
    // other's measurements.
    const std::size_t samples = 6;
    const auto avgCpu = [&](const std::string &what,
                            const std::vector<ExperimentSpec> &cells) {
        std::vector<double> costs;
        for (const RunResult &r : opt.run(what.c_str(), cells))
            costs.push_back(r.cpuSeconds);
        return mean(costs);
    };
    double base_cpu = 0.0;
    for (unsigned k = 1; k <= 4; ++k) {
        std::vector<ExperimentSpec> cells;
        for (std::size_t s = 0; s < samples; ++s) {
            std::vector<WorkloadSpec> mix;
            for (unsigned j = 0; j < k; ++j)
                mix.push_back(zoo[(s * 7 + j * 3) % zoo.size()]);
            cells.push_back(
                ExperimentSpec(machine).mix(mix).params(opt.params));
        }
        const double avg = avgCpu("mix-" + std::to_string(k), cells);
        if (k == 1)
            base_cpu = avg;
        t.addRow({std::to_string(k) + "-way mix",
                  Cell::count(choose(zoo.size(), k)),
                  Cell::count(choose(paper_n, k)), Cell::real(avg, 4),
                  fmt(avg / base_cpu, 2) + "x"});
    }

    // PInTE: 12 configurations per workload, one core each.
    std::vector<ExperimentSpec> cells;
    for (std::size_t s = 0; s < samples; ++s)
        cells.push_back(ExperimentSpec(machine)
                            .workload(zoo[(s * 5) % zoo.size()])
                            .pinte(0.1)
                            .params(opt.params));
    const double avg = avgCpu("pinte", cells);
    t.addRow({"PInTE sweep", Cell::count(12 * zoo.size()),
              Cell::count(12 * paper_n), Cell::real(avg, 4),
              fmt(avg / base_cpu, 2) + "x"});
    rep->table(t);

    rep->note("");
    rep->note("the combination column is the trap: pairs are "
              "quadratic, triples cubic — at the");
    rep->note("paper's 188 traces, 3-way coverage already needs >1M "
              "simulations of 3 cores each,");
    rep->note("while the PInTE sweep stays linear (12n) at "
              "single-core cost.");
    return campaignExit(opt, rep);
}

} // namespace

int
main(int argc, char **argv)
{
    return pinte::bench::guardedMain(benchMain, argc, argv);
}
