#include "workloads.hh"

#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "core/pinte.hh"
#include "sim/machine.hh"
#include "trace/generator.hh"
#include "trace/zoo.hh"

namespace perfbench
{

using namespace pinte;

ExperimentSpec
Cell::experiment() const
{
    ExperimentSpec e(MachineConfig::scaled());
    e.workload(spec).pinte(pInduce).params(params);
    return e;
}

std::uint64_t
Workload::instructions() const
{
    std::uint64_t n = 0;
    for (const Cell &c : cells)
        n += c.params.warmup + c.params.roi;
    return n;
}

Workload
resolveWorkload(const std::string &name, std::uint64_t seed, bool quick)
{
    const std::uint64_t variant = seed % seedVariants;
    Workload w;
    w.name = name;
    if (name == "detailed" || name == "sampled") {
        Cell c;
        c.spec = findWorkload("450.soplex");
        c.pInduce = 0.2;
        c.params.runSeed = variant;
        c.params.warmup = quick ? 10000 : 100000;
        c.params.roi = quick ? 100000 : 3000000;
        if (name == "sampled") {
            c.params.roi *= 10;
            c.params.sampling.mode = SampleMode::Periodic;
            c.params.sampling.intervalLength = 20000;
            c.params.sampling.detailedFraction = 0.05;
        }
        w.cells.push_back(c);
    } else if (name == "sweep") {
        // pintesim --sweep at its default scale; --seed is the only
        // seed its command line takes.
        for (const double p : standardPInduceSweep()) {
            Cell c;
            c.spec = findWorkload("416.gamess");
            c.pInduce = p;
            c.params.runSeed = variant;
            if (quick) {
                c.params.warmup = 5000;
                c.params.roi = 10000;
            }
            w.cells.push_back(c);
        }
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return w;
}

Outcome
outcomeOf(const RunResult &r)
{
    Outcome o;
    o.ipc = r.metrics.ipc;
    o.amat = r.metrics.amat;
    o.llcMissRate = r.metrics.missRate;
    o.llcMpki = r.metrics.llcMpki;
    o.llcAccesses = r.metrics.llcAccesses;
    o.llcMisses = r.metrics.llcMisses;
    o.pinteAccesses = r.pinte.accessesSeen;
    o.pinteTriggers = r.pinte.triggers;
    o.pinteInvalidations = r.pinte.invalidations;
    o.sampled = r.sampled.stats;
    o.detailedIntervals = r.sampled.detailedIntervals;
    return o;
}

namespace
{

struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    word(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }

    void
    real(double d)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &d, sizeof bits);
        word(bits);
    }
};

} // namespace

std::uint64_t
digest(const Outcome &o)
{
    Fnv f;
    f.real(o.ipc);
    f.real(o.amat);
    f.real(o.llcMissRate);
    f.real(o.llcMpki);
    f.word(o.llcAccesses);
    f.word(o.llcMisses);
    f.word(o.pinteAccesses);
    f.word(o.pinteTriggers);
    f.word(o.pinteInvalidations);
    for (const SampledStat &s : o.sampled) {
        f.real(s.mean);
        f.real(s.ci95);
    }
    f.word(o.detailedIntervals);
    return f.h;
}

std::uint64_t
digestCells(const std::vector<std::uint64_t> &cells)
{
    Fnv f;
    for (const std::uint64_t d : cells)
        f.word(d);
    return f.h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

MachineConfig
runMachine(const Cell &cell)
{
    // The adjustments ExperimentSpec::runAll makes for a one-workload
    // PInTE run.
    MachineConfig m = MachineConfig::scaled();
    m.numCores = 1;
    m.pinte.pInduce = cell.pInduce;
    m.pinte.seed = 0x5157 + cell.params.runSeed * 0x9e3779b9ull;
    return m;
}

void
buildCell(const Cell &cell)
{
    TraceGenerator gen(cell.spec);
    System sys(runMachine(cell), {&gen});
}

} // namespace perfbench
