/**
 * @file
 * Fig 3: PInTE stability analysis.
 *
 * Re-runs every (workload, P_Induce) experiment 25 times with distinct
 * engine seeds and reports the normalized standard deviation (eq. 3)
 * of miss rate and IPC — per workload (left plot) and per P_Induce
 * configuration (right plot). The paper finds medians near 0 with
 * whiskers under 0.01 (IPC) and 0.00125 (miss rate) at the metric
 * level; this reproduction checks the same bands at its scale.
 */

#include <string>

#include "analysis/table.hh"
#include "bench_common.hh"
#include "common/summary_stats.hh"

using namespace pinte;
using namespace pinte::bench;

namespace
{

int
benchMain(int argc, char **argv)
{
    BenchOptions opt = BenchOptions::parse(argc, argv);
    const MachineConfig machine = MachineConfig::scaled();
    const auto zoo = opt.zoo();
    const auto &sweep = standardPInduceSweep();
    constexpr int reruns = 25;

    // One cell per (workload, config, seed) triple, in that order; the
    // re-runs of a workload replay one shared trace.
    const std::size_t nk = sweep.size();
    std::vector<ExperimentSpec> cells;
    for (const auto &spec : zoo) {
        for (const double p : sweep) {
            for (int seed = 0; seed < reruns; ++seed) {
                ExperimentParams params = opt.params;
                params.runSeed = static_cast<std::uint64_t>(seed);
                cells.push_back(ExperimentSpec(machine)
                                    .workload(spec)
                                    .pinte(p)
                                    .params(params));
            }
        }
    }
    const std::vector<RunResult> flat = opt.run("stability", cells);

    // normstd[w][k] = (normStddev of MR, of IPC) over the 25 re-runs.
    std::vector<std::vector<std::pair<double, double>>> normstd(
        zoo.size());
    for (std::size_t w = 0; w < zoo.size(); ++w) {
        for (std::size_t k = 0; k < nk; ++k) {
            std::vector<double> mr, ipc;
            for (int seed = 0; seed < reruns; ++seed) {
                const RunMetrics &m =
                    flat[(w * nk + k) * reruns + seed].metrics;
                mr.push_back(m.missRate);
                ipc.push_back(m.ipc);
            }
            normstd[w].emplace_back(summarize(mr).normStddev(),
                                    summarize(ipc).normStddev());
        }
    }

    auto rep = opt.report("bench_fig3", machine);
    rep->note("FIG 3: PInTE stability across " +
              std::to_string(reruns) + " re-runs x " +
              std::to_string(sweep.size()) +
              " P_Induce configurations");
    rep->note("");

    rep->note("(left) per benchmark: normalized std dev "
              "(median [max] over configurations)");
    TableData left("fig3_per_benchmark",
                   {"benchmark", "MR norm-stddev", "IPC norm-stddev"});
    for (std::size_t w = 0; w < zoo.size(); ++w) {
        std::vector<double> mr, ipc;
        for (const auto &[m, i] : normstd[w]) {
            mr.push_back(m);
            ipc.push_back(i);
        }
        const SummaryStats sm = summarize(mr);
        const SummaryStats si = summarize(ipc);
        left.addRow({zoo[w].name,
                     fmt(sm.median, 5) + " [" + fmt(sm.max, 5) + "]",
                     fmt(si.median, 5) + " [" + fmt(si.max, 5) + "]"});
    }
    rep->table(left);

    rep->note("");
    rep->note("(right) per P_Induce configuration: normalized std "
              "dev (median [max] over benchmarks)");
    TableData right("fig3_per_config",
                    {"P_Induce", "MR norm-stddev", "IPC norm-stddev"});
    std::vector<double> all_mr, all_ipc;
    for (std::size_t k = 0; k < sweep.size(); ++k) {
        std::vector<double> mr, ipc;
        for (std::size_t w = 0; w < zoo.size(); ++w) {
            mr.push_back(normstd[w][k].first);
            ipc.push_back(normstd[w][k].second);
            all_mr.push_back(normstd[w][k].first);
            all_ipc.push_back(normstd[w][k].second);
        }
        const SummaryStats sm = summarize(mr);
        const SummaryStats si = summarize(ipc);
        right.addRow({Cell::real(sweep[k], 3),
                      fmt(sm.median, 5) + " [" + fmt(sm.max, 5) + "]",
                      fmt(si.median, 5) + " [" + fmt(si.max, 5) +
                          "]"});
    }
    rep->table(right);

    rep->note("");
    rep->note("overall medians: MR " +
              fmt(summarize(all_mr).median, 5) + ", IPC " +
              fmt(summarize(all_ipc).median, 5) +
              "  (paper: <0.00125 and <0.011 respectively;");
    rep->note("   one simulation per configuration is trustworthy)");
    return campaignExit(opt, rep);
}

} // namespace

int
main(int argc, char **argv)
{
    return pinte::bench::guardedMain(benchMain, argc, argv);
}
