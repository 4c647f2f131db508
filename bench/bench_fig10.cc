/**
 * @file
 * Fig 10: real-system contention vs PInTE.
 *
 * The paper runs six SPEC-17 benchmarks in pairs on a Xeon Silver 4110
 * with Intel RDT partitioning and compares percent-change-in-IPC
 * against *change in occupancy* (eq. 6), then repeats the study in a
 * server-modeled ChampSim with halved DRAM resources under PInTE.
 *
 * This reproduction substitutes the hardware with the server-proxy
 * machine (DESIGN.md section 2): side (a) genuinely co-runs workload
 * pairs on a 2-core server config with RDT-style way masks and reads
 * the occupancy counters; side (b) sweeps PInTE on the halved-DRAM
 * server config. Both sides report % change in IPC per contention
 * level so the per-benchmark shapes can be compared.
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

    // The six benchmarks of the paper's figure.
    const char *names[] = {"600.perlbench", "602.gcc", "619.lbm",
                           "620.omnetpp", "627.cam4", "648.exchange2"};

    auto rep = opt.report("bench_fig10", MachineConfig::serverProxy(2, false));
    rep->note("FIG 10: Real-system proxy vs PInTE for six SPEC-17 "
              "benchmarks");
    rep->note("(a) co-run pairs on a server-proxy machine with "
              "RDT-style allocation; x = change");
    rep->note("    in occupancy (eq. 6)  (b) PInTE sweep on the "
              "halved-DRAM server model; x =");
    rep->note("    interference rate. y = % change in IPC vs the "
              "least-contended case.");
    rep->note("");

    for (const char *name : names) {
        const WorkloadSpec spec = findWorkload(name);

        // The campaign cells: (a)'s isolation baseline, then (b)'s
        // isolation baseline and PInTE sweep on the halved-DRAM server
        // model.
        const MachineConfig pinte_machine =
            MachineConfig::serverProxy(1, true);
        const auto &sweep = standardPInduceSweep();
        std::vector<ExperimentSpec> cells = {
            ExperimentSpec(MachineConfig::serverProxy(1, false))
                .workload(spec)
                .params(opt.params),
            ExperimentSpec(pinte_machine).workload(spec).params(opt.params)};
        for (const double p : sweep)
            cells.push_back(ExperimentSpec(pinte_machine)
                                .workload(spec)
                                .pinte(p)
                                .params(opt.params));
        const std::vector<RunResult> runs = opt.run(name, cells);
        const RunResult &iso_real = runs[0], &iso_pinte = runs[1];

        // --- (a) real-system proxy: co-runs with way-masked LLC.
        // 14 of 16 ways for the benchmarks, 2 reserved (the paper
        // reserves 1MB of 11MB for system processes via RDT). A
        // way-masked System is not an ExperimentSpec, so these run on
        // a plain Runner.
        MachineConfig real = MachineConfig::serverProxy(2, false);

        struct Point
        {
            double x = 0.0, dipc = 0.0;
        };
        std::vector<WorkloadSpec> peers;
        for (const auto &peer : opt.zoo())
            if (peer.name != spec.name)
                peers.push_back(peer);

        ProgressMeter co_meter(opt.quiet, "co-runs", peers.size());
        const std::vector<Point> real_pts = opt.runner().map(
            peers.size(),
            [&](std::size_t pi) {
                MachineConfig m = real;
                TraceGenerator ga(spec);
                WorkloadSpec peer_off = peers[pi];
                peer_off.dataBase += 0x800000000ull;
                peer_off.codeBase += 0x40000000ull;
                TraceGenerator gb(peer_off);
                System sys(m, {&ga, &gb});
                sys.llc().setWayMask(0, 0x3fff); // ways 0-13
                sys.llc().setWayMask(1, 0x3fff);
                sys.warmup(opt.params.warmup);
                sys.runUntilCore0(opt.params.roi);

                const Cache &llc = sys.llc();
                const double max_alloc =
                    14.0 / 16.0 * llc.numSets() * llc.assoc();
                const double occ =
                    static_cast<double>(llc.occupancy(0));
                // Eq. 6, against the benchmark's own isolated
                // occupancy as the expected-capacity baseline.
                const double iso_occ =
                    iso_real.metrics.llcOccupancyFraction *
                    llc.numSets() * llc.assoc();
                const double denom =
                    std::max(1.0, std::min(max_alloc, iso_occ));
                const double delta_occ =
                    100.0 * (occ / denom - 1.0);

                const double ipc = sys.core(0).stats().ipc();
                return Point{
                    delta_occ,
                    100.0 * (ipc / iso_real.metrics.ipc - 1.0)};
            },
            co_meter.asTick());

        // --- (b) PInTE on the halved-DRAM server model.
        std::vector<Point> pinte_pts;
        for (std::size_t k = 0; k < sweep.size(); ++k) {
            const RunMetrics &m = runs[2 + k].metrics;
            pinte_pts.push_back(
                {100.0 * m.interferenceRate,
                 100.0 * (m.ipc / iso_pinte.metrics.ipc - 1.0)});
        }

        rep->note(spec.name + " (" + toString(spec.klass) + ")");
        TableData t("fig10_" + spec.name,
                    {"(a) dOcc%", "dIPC%", "|", "(b) intf%", "dIPC%"});
        const std::size_t rows =
            std::max(real_pts.size(), pinte_pts.size());
        for (std::size_t i = 0; i < rows; ++i) {
            std::vector<Cell> row(5);
            if (i < real_pts.size()) {
                row[0] = Cell::real(real_pts[i].x, 1);
                row[1] = Cell::real(real_pts[i].dipc, 1);
            }
            row[2] = "|";
            if (i < pinte_pts.size()) {
                row[3] = Cell::real(pinte_pts[i].x, 1);
                row[4] = Cell::real(pinte_pts[i].dipc, 1);
            }
            t.addRow(row);
        }
        rep->table(t);
        rep->note("");
    }

    rep->note("expected shapes (paper): perlbench/gcc within a few "
              "percent on both sides;");
    rep->note("lbm/cam4 lose more under PInTE (controlled contention "
              "+ costlier DRAM); omnetpp");
    rep->note("comparable trends with different magnitude; exchange2 "
              "insensitive on both sides");
    rep->note("but at opposite ends of the occupancy axis (it barely "
              "occupies the LLC).");
    return campaignExit(opt, rep);
}

} // namespace

int
main(int argc, char **argv)
{
    return pinte::bench::guardedMain(benchMain, argc, argv);
}
