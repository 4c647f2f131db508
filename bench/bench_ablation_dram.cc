/**
 * @file
 * Ablation: the section IV-B DRAM-cost complement.
 *
 * PInTE's worst errors are DRAM-bound workloads: a real co-runner also
 * contends for banks and bus bandwidth, so PInTE (LLC-only)
 * over-estimates their IPC. The paper sketches the fix — "increasing
 * DRAM access costs could complement this". This bench quantifies it:
 * CRG-matched IPC/AMAT error against the 2nd-Trace baseline for the
 * DRAM-bound zoo members, with and without the complement.
 */

#include <cmath>
#include <map>
#include <string>

#include "analysis/crg.hh"
#include "analysis/table.hh"
#include "bench_common.hh"

using namespace pinte;
using namespace pinte::bench;

namespace
{

/** Mean IPC/AMAT per CRG group. */
struct GroupMean
{
    double ipc = 0, amat = 0;
    int n = 0;
};

std::map<int, GroupMean>
groupRuns(const std::vector<RunResult> &runs)
{
    std::map<int, GroupMean> g;
    for (const auto &r : runs) {
        auto &m = g[crgGroup(r.metrics.interferenceRate)];
        m.ipc += r.metrics.ipc;
        m.amat += r.metrics.amat;
        m.n++;
    }
    for (auto &[k, m] : g) {
        m.ipc /= m.n;
        m.amat /= m.n;
    }
    return g;
}

/** CRG-matched mean relative error (eq. 4) vs the trace groups. */
std::pair<double, double>
matchedError(const std::map<int, GroupMean> &trace,
             const std::map<int, GroupMean> &pinte)
{
    double ipc = 0, amat = 0;
    int n = 0;
    for (const auto &[g, tg] : trace) {
        const auto it = pinte.find(g);
        if (it == pinte.end())
            continue;
        ipc += relativeErrorPct(tg.ipc, it->second.ipc);
        amat += relativeErrorPct(tg.amat, it->second.amat);
        ++n;
    }
    if (n) {
        ipc /= n;
        amat /= n;
    }
    return {ipc, amat};
}

} // namespace

namespace
{

int
benchMain(int argc, char **argv)
{
    const BenchOptions opt = BenchOptions::parse(argc, argv);
    const MachineConfig machine = MachineConfig::scaled();

    // The DRAM-bound disagreement cases plus two controls.
    const char *targets[] = {"429.mcf",  "602.gcc", "605.mcf",
                             "473.astar", "462.libquantum",
                             "450.soplex" /* control: LLC-bound */,
                             "435.gromacs" /* control: friendly */};

    auto rep = opt.report("bench_ablation_dram", machine);
    rep->note("ABLATION: DRAM-cost complement for DRAM-bound "
              "workloads (section IV-B)");
    rep->note("IPC%/AMAT% = CRG-matched relative error vs 2nd-Trace "
              "(closer to 0 is better)");
    rep->note("");

    TableData t("ablation_dram",
                {"benchmark", "class", "IPC% base", "IPC% +dram",
                 "AMAT% base", "AMAT% +dram"});
    for (const char *name : targets) {
        const WorkloadSpec spec = findWorkload(name);
        const auto &sweep = standardPInduceSweep();

        std::vector<WorkloadSpec> peers;
        for (const auto &peer : opt.zoo())
            if (peer.name != spec.name)
                peers.push_back(peer);

        // One campaign per target: (n-1) 2nd-Trace pairings, then the
        // sweep without and with the DRAM complement.
        const std::size_t np = peers.size(), nk = sweep.size();
        std::vector<ExperimentSpec> cells;
        for (const auto &peer : peers)
            cells.push_back(ExperimentSpec(machine)
                                .workload(spec)
                                .secondTrace(peer)
                                .params(opt.params));
        for (const double p : sweep)
            cells.push_back(ExperimentSpec(machine)
                                .workload(spec)
                                .pinte(p)
                                .params(opt.params));
        for (std::size_t k = 0; k < nk; ++k)
            cells.push_back(ExperimentSpec(cells[np + k]).dramComplement());
        auto runs = opt.run(name, cells);

        if (rep->wantsAllRuns())
            for (const auto &r : runs)
                rep->run(r);

        const std::vector<RunResult> trace_runs(
            std::make_move_iterator(runs.begin()),
            std::make_move_iterator(runs.begin() + np));
        const std::vector<RunResult> base_runs(
            std::make_move_iterator(runs.begin() + np),
            std::make_move_iterator(runs.begin() + np + nk));
        const std::vector<RunResult> dram_runs(
            std::make_move_iterator(runs.begin() + np + nk),
            std::make_move_iterator(runs.end()));

        const auto tg = groupRuns(trace_runs);
        const auto [ipc_b, amat_b] = matchedError(tg,
                                                  groupRuns(base_runs));
        const auto [ipc_d, amat_d] = matchedError(tg,
                                                  groupRuns(dram_runs));
        t.addRow({spec.name, toString(spec.klass),
                  Cell::real(ipc_b, 1), Cell::real(ipc_d, 1),
                  Cell::real(amat_b, 1), Cell::real(amat_d, 1)});
    }
    rep->table(t);

    rep->note("");
    rep->note("expected: the complement moves DRAM-bound IPC/AMAT "
              "error toward zero while");
    rep->note("leaving the LLC-bound and cache-friendly controls "
              "roughly unchanged (their DRAM");
    rep->note("traffic is contention-induced and already modeled by "
              "the evictions).");
    return campaignExit(opt, rep);
}

} // namespace

int
main(int argc, char **argv)
{
    return pinte::bench::guardedMain(benchMain, argc, argv);
}
