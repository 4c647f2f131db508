/**
 * @file
 * Fig 5: reuse behavior under PInTE vs 2nd-Trace contention.
 *
 * Emits side-by-side LLC reuse-position histograms for three
 * alignment examples with their KL divergence. The paper's examples
 * are 435.gromacs (good), 649.fotonik3d (medium) and 638.imagick
 * (worst). At reproduction scale the good-alignment exemplars are the
 * demand-dominated workloads (exactly what the paper's own Fig 6b
 * root-cause analysis predicts: alignment tracks how much of the LLC
 * traffic is demand rather than writeback spill), so this bench keeps
 * fotonik3d and imagick and uses LLC-bound 450.soplex as the middle
 * case. The reproduced result is the ordering KL(good) < KL(medium)
 * < KL(worst).
 */

#include <string>

#include "analysis/crg.hh"
#include "analysis/table.hh"
#include "bench_common.hh"
#include "common/kl_divergence.hh"

using namespace pinte;
using namespace pinte::bench;

namespace
{

void
emitPair(ReportSink &sink, const std::string &label,
         const std::string &name, const Histogram &pinte_h,
         const Histogram &trace_h, double kl)
{
    sink.note(label + ": " + name + "  (KL divergence " + fmt(kl, 3) +
              " bits)");
    const auto p = pinte_h.toDistribution();
    const auto q = trace_h.toDistribution();
    TableData t("fig5_" + name, {"pos", "PInTE", "2nd-Trace"});
    for (std::size_t i = 0; i < p.size(); ++i) {
        t.addRow({Cell::count(i),
                  Cell(bar(p[i], 0.5, 22) + " " + fmt(p[i], 3)),
                  Cell(bar(q[i], 0.5, 22) + " " + fmt(q[i], 3))});
    }
    sink.table(t);
    sink.note("");
}

} // namespace

namespace
{

int
benchMain(int argc, char **argv)
{
    BenchOptions opt = BenchOptions::parse(argc, argv);
    const MachineConfig machine = MachineConfig::scaled();

    const char *examples[] = {"649.fotonik3d", "450.soplex",
                              "638.imagick"};
    const char *labels[] = {"(a) good alignment",
                            "(b) medium alignment",
                            "(c) worst alignment"};

    // Build a campaign over the full zoo restricted to pairs involving
    // the three examples (their peers still span the whole zoo).
    Campaign c;
    c.zoo = opt.zoo();

    auto rep = opt.report("bench_fig5", machine);
    rep->note("FIG 5: Reuse-position histograms under PInTE vs "
              "2nd-Trace contention");
    rep->note("(bucket = LLC stack depth at hit, 0 = MRU end)");
    rep->note("");

    std::vector<double> kls;
    for (int e = 0; e < 3; ++e) {
        const WorkloadSpec spec = findWorkload(examples[e]);
        const auto &sweep = standardPInduceSweep();

        std::vector<WorkloadSpec> peers;
        for (const auto &peer : c.zoo)
            if (peer.name != spec.name)
                peers.push_back(peer);

        // One campaign per example: the 12 sweep points followed by
        // the (n-1) peer pairings.
        std::vector<ExperimentSpec> cells;
        for (const double p : sweep)
            cells.push_back(ExperimentSpec(machine)
                                .workload(spec)
                                .pinte(p)
                                .params(opt.params));
        for (const auto &peer : peers)
            cells.push_back(ExperimentSpec(machine)
                                .workload(spec)
                                .secondTrace(peer)
                                .params(opt.params));
        const std::string what = std::string("example ") + spec.name;
        auto runs = opt.run(what.c_str(), cells);

        if (rep->wantsAllRuns())
            for (const auto &r : runs)
                rep->run(r);

        const std::vector<RunResult> pinte_runs(
            std::make_move_iterator(runs.begin()),
            std::make_move_iterator(runs.begin() + sweep.size()));
        const std::vector<RunResult> trace_runs(
            std::make_move_iterator(runs.begin() + sweep.size()),
            std::make_move_iterator(runs.end()));

        const unsigned buckets = machine.llc.assoc;
        const auto [hp, ht] =
            crgMatchedReuse(pinte_runs, trace_runs, buckets);
        // Eq. 5 with p(x) = real contention, q(x) = PInTE.
        const double kl = klDivergenceBits(ht, hp);
        kls.push_back(kl);
        emitPair(rep.sink(), labels[e], spec.name, hp, ht, kl);
    }

    rep->note("expected ordering (paper): KL(good) < KL(medium) < "
              "KL(worst)");
    rep->note("measured: " + fmt(kls[0], 3) + " < " + fmt(kls[1], 3) +
              " < " + fmt(kls[2], 3) + " : " +
              ((kls[0] < kls[1] && kls[1] < kls[2]) ? "HOLDS"
                                                    : "VIOLATED"));
    return campaignExit(opt, rep);
}

} // namespace

int
main(int argc, char **argv)
{
    return pinte::bench::guardedMain(benchMain, argc, argv);
}
