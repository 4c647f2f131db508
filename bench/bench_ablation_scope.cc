/**
 * @file
 * Ablation: PInTE beyond the LLC (section IV-B's "independent PInTE
 * module").
 *
 * Core-bound workloads access the LLC so rarely that an LLC-scoped
 * engine cannot touch them — the source of the high-MR-error rows in
 * Table II. Scoping engines at the private L2 reaches that traffic.
 * This bench sweeps P_Induce for LLC-only, L2-only and L2+LLC scopes
 * on core-bound workloads (plus an LLC-bound control) and reports the
 * contention each scope manages to induce and the IPC response.
 */

#include <string>

#include "analysis/table.hh"
#include "bench_common.hh"

using namespace pinte;
using namespace pinte::bench;

namespace
{

int
benchMain(int argc, char **argv)
{
    const BenchOptions opt = BenchOptions::parse(argc, argv);
    const MachineConfig machine = MachineConfig::scaled();

    const char *targets[] = {"638.imagick", "465.tonto", "416.gamess",
                             "456.hmmer",
                             "450.soplex" /* LLC-bound control */};
    const PInteScope scopes[] = {PInteScope::LlcOnly,
                                 PInteScope::L2Only,
                                 PInteScope::L2AndLlc};

    auto rep = opt.report("bench_ablation_scope", machine);
    rep->note("ABLATION: engine scope — inducing contention beyond "
              "the LLC (section IV-B)");
    rep->note("");

    for (const char *name : targets) {
        const WorkloadSpec spec = findWorkload(name);
        // The isolation baseline, then every (P_Induce, scope) point.
        const double probs[] = {0.05, 0.2, 0.5};
        const std::size_t ns = std::size(scopes);
        std::vector<ExperimentSpec> cells = {
            ExperimentSpec(machine).workload(spec).params(opt.params)};
        for (const double p : probs)
            for (const PInteScope scope : scopes)
                cells.push_back(ExperimentSpec(machine)
                                    .workload(spec)
                                    .pinte(p)
                                    .scope(scope)
                                    .params(opt.params));
        const auto runs = opt.run(name, cells);
        const RunResult &iso = runs[0];
        if (rep->wantsAllRuns())
            for (const auto &r : runs)
                rep->run(r);

        rep->note(spec.name + " (" + toString(spec.klass) +
                  ", isolation IPC " + fmt(iso.metrics.ipc, 3) + ")");
        TableData t("ablation_scope_" + spec.name,
                    {"P_Induce", "llc-only: intf/wIPC",
                     "l2-only: l2-intf/wIPC", "l2+llc: l2-intf/wIPC"});
        for (std::size_t pi = 0; pi < std::size(probs); ++pi) {
            std::vector<Cell> row = {Cell::real(probs[pi], 2)};
            for (std::size_t si = 0; si < ns; ++si) {
                const RunResult &r = runs[1 + pi * ns + si];
                const double intf =
                    scopes[si] == PInteScope::LlcOnly
                        ? r.metrics.interferenceRate
                        : r.metrics.l2InterferenceRate;
                row.push_back(Cell(
                    fmtPct(std::min(intf, 1.0)) + "/" +
                    fmt(weightedIpc(r.metrics.ipc, iso.metrics.ipc),
                        3)));
            }
            t.addRow(row);
        }
        rep->table(t);
        rep->note("");
    }

    rep->note("expected: LLC-only scope cannot move core-bound "
              "workloads (weighted IPC ~1.0");
    rep->note("at every P_Induce); L2 scopes induce real contention "
              "on exactly those");
    rep->note("workloads, while the LLC-bound control responds to "
              "both.");
    return campaignExit(opt, rep);
}

} // namespace

int
main(int argc, char **argv)
{
    return pinte::bench::guardedMain(benchMain, argc, argv);
}
