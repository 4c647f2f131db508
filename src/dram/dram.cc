#include "dram.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/error.hh"
#include "common/invariant.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/trace_events.hh"

namespace pinte
{

DramConfig
DramConfig::halvedResources() const
{
    DramConfig h = *this;
    h.channels = std::max(1u, channels / 2);
    h.banksPerChannel = std::max(1u, banksPerChannel / 2);
    h.linesPerRow = std::max(1u, linesPerRow / 2);
    h.transfer = transfer * 2; // half the transfer rate
    return h;
}

SlotTable::SlotTable(Cycle granularity, std::size_t slots,
                     unsigned resources)
    : gran_(granularity ? granularity : 1), slots_(slots),
      resources_(resources),
      pow2_(isPowerOfTwo(gran_) && isPowerOfTwo(slots)),
      epoch_(slots * resources, 0)
{
    if (slots == 0 || resources == 0)
        throw ConfigError("SlotTable needs at least one slot and one resource",
                          {"dram", "", ""});
    if (pow2_) {
        granShift_ = floorLog2(gran_);
        slotShift_ = floorLog2(slots);
        slotMask_ = slots - 1;
    }
}

Cycle
SlotTable::book(unsigned resource, Cycle t, unsigned count)
{
    if (count == 0)
        count = 1;
    std::uint32_t *const ring = epoch_.data() + resource;
    std::uint64_t s = slotAt(t);
    for (unsigned k = 0; k < count;) {
        // Widened, so a slot past the epoch range never matches.
        if (std::uint64_t(ring[indexOf(s + k) * resources_]) ==
            epochOf(s + k)) {
            s = s + k + 1;
            k = 0;
        } else {
            ++k;
        }
    }
    if (epochOf(s + count - 1) > UINT32_MAX)
        throw SimError("DRAM slot calendar ran past its last epoch",
                       {"dram", "", std::to_string(t)});
    for (unsigned k = 0; k < count; ++k)
        ring[indexOf(s + k) * resources_] =
            static_cast<std::uint32_t>(epochOf(s + k));
    // The first slot may start before t (slot-boundary rounding);
    // service begins no earlier than requested.
    return std::max<Cycle>(t, pow2_ ? s << granShift_ : s * gran_);
}

void
SlotTable::saveState(SnapshotWriter &w) const
{
    std::vector<std::uint64_t> ring(slots_);
    for (unsigned r = 0; r < resources_; ++r) {
        for (std::size_t i = 0; i < slots_; ++i) {
            const std::uint64_t e = epoch_[i * resources_ + r];
            ring[i] = e ? (e - 1) * slots_ + i + 1 : 0;
        }
        w.putVec64(ring);
    }
}

void
SlotTable::loadState(SnapshotReader &r)
{
    for (unsigned res = 0; res < resources_; ++res) {
        r.getCountOf(slots_, "dram");
        for (std::size_t i = 0; i < slots_; ++i) {
            const std::uint64_t v = r.get64();
            std::uint64_t e = 0;
            if (v) {
                if ((v - 1) % slots_ != i ||
                    (e = (v - 1) / slots_ + 1) > UINT32_MAX)
                    throw SimError("checkpoint slot calendar entry does "
                                   "not belong to its index",
                                   {"dram", "", std::to_string(v)});
            }
            epoch_[i * resources_ + res] = static_cast<std::uint32_t>(e);
        }
    }
}

namespace
{

/** Bank command-slot granularity in cycles. */
constexpr Cycle bankSlotGran = 4;

/** Reservation window in cycles for both bank and bus calendars. */
constexpr Cycle calendarWindow = 16384;

/** `config` after the checks every other member's set-up relies on. */
const DramConfig &
checkedGeometry(const DramConfig &config)
{
    if (!isPowerOfTwo(config.channels) ||
        !isPowerOfTwo(config.banksPerChannel) ||
        !isPowerOfTwo(config.linesPerRow)) {
        throw ConfigError("DRAM geometry must be powers of two", {"dram", "", ""});
    }
    if (config.transfer == 0)
        throw ConfigError("DRAM transfer time must be at least one cycle",
                          {"dram", "", "0"});
    return config;
}

} // namespace

Dram::Dram(const DramConfig &config)
    : config_(checkedGeometry(config)),
      chanShift_(floorLog2(config.channels)),
      rowShift_(floorLog2(config.linesPerRow)),
      bankBits_(floorLog2(config.banksPerChannel)),
      banks_(std::size_t(config.channels) * config.banksPerChannel),
      bankCal_(bankSlotGran, calendarWindow / bankSlotGran,
               config.channels * config.banksPerChannel),
      busCal_(config.transfer, calendarWindow / config.transfer,
              config.channels),
      stats_(config.numCores)
{
}

void
Dram::map(Addr line, unsigned &channel, unsigned &bank,
          std::uint64_t &row) const
{
    // Channel interleave at line granularity; consecutive rows land in
    // different banks so streams exploit bank-level parallelism. The
    // bank index XOR-folds higher row bits (permutation-based
    // interleaving) so that accesses a power-of-two distance apart —
    // e.g. a stream and its own trailing writebacks — do not collide
    // on one bank.
    channel = static_cast<unsigned>(line & (config_.channels - 1));
    const Addr row_seq = line >> chanShift_ >> rowShift_;
    bank = static_cast<unsigned>(
        (row_seq ^ (row_seq >> bankBits_) ^ (row_seq >> (2 * bankBits_)))
        & (config_.banksPerChannel - 1));
    row = row_seq >> bankBits_;
}

void
Dram::clearStats()
{
    for (auto &s : stats_)
        s = PerCoreDramStats{};
}

double
Dram::rowHitRate() const
{
    std::uint64_t hits = 0, total = 0;
    for (const auto &s : stats_) {
        hits += s.rowHits;
        total += s.rowHits + s.rowMisses + s.rowConflicts;
    }
    return total ? static_cast<double>(hits) / static_cast<double>(total)
                 : 0.0;
}

AccessResult
Dram::access(const MemAccess &req)
{
    unsigned channel, bank_idx;
    std::uint64_t row;
    map(lineNumber(req.addr), channel, bank_idx, row);
    const std::size_t bank_at =
        std::size_t(channel) * config_.banksPerChannel + bank_idx;
    Bank &bank = banks_[bank_at];

    const CoreId c = req.core < stats_.size() ? req.core : 0;
    PerCoreDramStats &st = stats_[c];

    // Row activation cost and how long the bank is held: column
    // accesses pipeline at tCCD, activations occupy the bank until the
    // row is open.
    Cycle array_lat;
    Cycle bank_held;
    if (bank.rowOpen && bank.openRow == row) {
        array_lat = config_.tCas;
        bank_held = config_.tCcd;
        st.rowHits++;
    } else if (!bank.rowOpen) {
        array_lat = config_.tRcd + config_.tCas;
        bank_held = config_.tRcd + config_.tCcd;
        st.rowMisses++;
    } else {
        array_lat = config_.tRp + config_.tRcd + config_.tCas;
        bank_held = config_.tRp + config_.tRcd + config_.tCcd;
        st.rowConflicts++;
        if (TraceEvents::on())
            TraceEvents::mark("dram", "row_conflict", bank_at);
    }

    array_lat += config_.contentionExtra;

    const Cycle desired = req.cycle + config_.frontend;
    const unsigned held_slots = static_cast<unsigned>(
        (bank_held + bankSlotGran - 1) / bankSlotGran);
    const Cycle start = bankCal_.book(static_cast<unsigned>(bank_at),
                                      desired, held_slots);
    const Cycle data_at_bank = start + array_lat;
    const Cycle bus_start = busCal_.book(channel, data_at_bank, 1);
    const Cycle ready = bus_start + config_.transfer;

    bank.openRow = row;
    bank.rowOpen = true;

    if (req.type == AccessType::Writeback) {
        st.writes++;
    } else {
        st.reads++;
        st.totalReadLatency += ready - req.cycle;
        st.totalBankWait += start - desired;
        st.totalBusWait += bus_start - data_at_bank;
    }

    return {ready, false};
}

void
Dram::saveState(SnapshotWriter &w) const
{
    for (const Bank &b : banks_) {
        w.put64(b.openRow);
        w.putBool(b.rowOpen);
    }
    bankCal_.saveState(w);
    busCal_.saveState(w);
    for (const PerCoreDramStats &s : stats_) {
        w.put64(s.reads);
        w.put64(s.writes);
        w.put64(s.rowHits);
        w.put64(s.rowMisses);
        w.put64(s.rowConflicts);
        w.put64(s.totalReadLatency);
        w.put64(s.totalBankWait);
        w.put64(s.totalBusWait);
    }
}

void
Dram::loadState(SnapshotReader &r)
{
    for (Bank &b : banks_) {
        b.openRow = r.get64();
        b.rowOpen = r.getBool();
    }
    bankCal_.loadState(r);
    busCal_.loadState(r);
    for (PerCoreDramStats &s : stats_) {
        s.reads = r.get64();
        s.writes = r.get64();
        s.rowHits = r.get64();
        s.rowMisses = r.get64();
        s.rowConflicts = r.get64();
        s.totalReadLatency = r.get64();
        s.totalBankWait = r.get64();
        s.totalBusWait = r.get64();
    }
}

void
Dram::audit() const
{
    // Every access increments exactly one of reads/writes and exactly
    // one of row hits/misses/conflicts, so the two decompositions must
    // agree per core — a lost or double-counted writeback breaks this.
    for (std::size_t c = 0; c < stats_.size(); ++c) {
        const PerCoreDramStats &s = stats_[c];
        const std::uint64_t accesses = s.reads + s.writes;
        const std::uint64_t outcomes =
            s.rowHits + s.rowMisses + s.rowConflicts;
        if (accesses != outcomes)
            invariantFail("dram",
                          "core " + std::to_string(c) + ": reads+writes (" +
                              std::to_string(accesses) +
                              ") != row hits+misses+conflicts (" +
                              std::to_string(outcomes) + ")");
    }

    for (std::size_t b = 0; b < banks_.size(); ++b) {
        const Bank &bank = banks_[b];
        if (!bank.rowOpen && bank.openRow != ~std::uint64_t(0))
            invariantFail("dram",
                          "bank " + std::to_string(b) +
                              " is closed but records an open row");
    }
}

void
Dram::registerStats(StatRegistry &reg, const std::string &prefix) const
{
    for (unsigned c = 0; c < config_.numCores; ++c) {
        const PerCoreDramStats &s = stats_[c];
        const std::string p = prefix + ".core" + std::to_string(c);
        reg.addCounter(p + ".reads", "read accesses", &s.reads);
        reg.addCounter(p + ".writes", "write (writeback) accesses",
                       &s.writes);
        reg.addCounter(p + ".row_hits", "row-buffer hits", &s.rowHits);
        reg.addCounter(p + ".row_misses",
                       "row misses (bank idle, activate needed)",
                       &s.rowMisses);
        reg.addCounter(p + ".row_conflicts",
                       "row conflicts (precharge first)",
                       &s.rowConflicts);
        reg.addCounter(p + ".read_latency", "total read latency (cycles)",
                       &s.totalReadLatency);
        reg.addCounter(p + ".bank_wait", "cycles queued on busy banks",
                       &s.totalBankWait);
        reg.addCounter(p + ".bus_wait",
                       "cycles queued on the channel bus",
                       &s.totalBusWait);
        reg.addDerived(p + ".avg_read_latency",
                       "mean read latency (cycles)",
                       [&s] { return s.avgReadLatency(); });
        reg.addDerived(p + ".avg_bank_wait",
                       "mean bank queueing per read (cycles)", [&s] {
                           return s.reads
                                      ? static_cast<double>(
                                            s.totalBankWait) /
                                            s.reads
                                      : 0.0;
                       });
        reg.addDerived(p + ".avg_bus_wait",
                       "mean bus queueing per read (cycles)", [&s] {
                           return s.reads
                                      ? static_cast<double>(
                                            s.totalBusWait) /
                                            s.reads
                                      : 0.0;
                       });
    }
    reg.addDerived(prefix + ".row_hit_rate",
                   "aggregate row-buffer hit rate [0,1]",
                   [this] { return rowHitRate(); });
}

} // namespace pinte
