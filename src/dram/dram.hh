/**
 * @file
 * DRAM timing model: channels, banks, open-row policy, bus occupancy.
 *
 * Latency is computed with busy-until timestamps per bank and per
 * channel bus, which captures row-buffer locality and bandwidth
 * saturation without queue-by-queue simulation. The Fig 10 study uses
 * halvedResources() to mirror the paper's trick of halving key DRAM
 * features (ranks, banks, columns, transfer rate) so off-chip
 * contention that PInTE does not model becomes visible.
 */

#ifndef PINTE_DRAM_DRAM_HH
#define PINTE_DRAM_DRAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/memory_level.hh"
#include "common/snapshot.hh"
#include "common/types.hh"

namespace pinte
{

class StatRegistry;

/** Static DRAM configuration. All timings in CPU cycles. */
struct DramConfig
{
    unsigned channels = 2;       //!< paper: 2-channel, 4GB DIMMs
    /**
     * Banks per channel. The reproduction hierarchy is ~64x smaller
     * than the paper's, which multiplies per-instruction miss traffic;
     * bank count and transfer time are provisioned so that two cores
     * at reproduction-scale MPKI load DRAM about as heavily as two
     * Skylake cores load 2-channel DDR4 — otherwise queueing, not LLC
     * contention, would dominate every pair experiment.
     */
    unsigned banksPerChannel = 16;
    unsigned linesPerRow = 32;   //!< 2KB rows in 64B lines

    Cycle tCas = 22;             //!< column access (row already open)
    Cycle tRcd = 22;             //!< activate (row was closed)
    Cycle tRp = 22;              //!< precharge (row conflict)
    /**
     * Column-to-column command spacing: how soon the bank can accept
     * another column command to the open row. Banks pipeline column
     * accesses — occupying the bank for the full access latency would
     * cap a streaming workload at ~1 access per 30 cycles per bank.
     */
    Cycle tCcd = 4;
    Cycle transfer = 2;          //!< channel bus occupancy per line
    Cycle frontend = 8;          //!< controller queue/decode overhead

    /**
     * Extra cycles added to every access: the DRAM-contention
     * complement the paper sketches in section IV-B ("increasing DRAM
     * access costs could complement this") for the DRAM-bound
     * workloads PInTE's LLC-only contention cannot reach. Typically
     * set proportional to P_Induce; see runPInteDramComplement().
     */
    Cycle contentionExtra = 0;

    unsigned numCores = 1;

    /**
     * Halve ranks/banks/columns/transfer rate the way section V-D does
     * to let off-chip contention show through in the Fig 10 proxy.
     */
    DramConfig halvedResources() const;
};

/** Per-core DRAM counters. */
struct PerCoreDramStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;    //!< bank idle, activate needed
    std::uint64_t rowConflicts = 0; //!< other row open, precharge first
    std::uint64_t totalReadLatency = 0;
    std::uint64_t totalBankWait = 0; //!< cycles queued on busy banks
    std::uint64_t totalBusWait = 0;  //!< cycles queued on the channel bus

    /** Mean read latency in cycles. */
    double
    avgReadLatency() const
    {
        return reads ? static_cast<double>(totalReadLatency) /
                           static_cast<double>(reads)
                     : 0.0;
    }
};

/**
 * Order-tolerant resource reservation calendar, one table for a whole
 * kind of resource (every bank, or every channel bus).
 *
 * The hierarchy walk presents requests in program order, not time
 * order: dependency chains and multi-core quantum interleaving stamp
 * requests with issue cycles that go backwards by hundreds of cycles.
 * A scalar busy-until would let a future-stamped request block an
 * earlier one, compounding into phantom queueing. The calendar books
 * discrete service slots instead, so requests reserve capacity at
 * their own point in time regardless of arrival order.
 *
 * Each resource owns a ring of `slots` entries; absolute slot s lives
 * at index s mod slots. The rings are interleaved in one block,
 * `[s mod slots][resource]`, and an entry holds the u32 epoch
 * s / slots + 1 of the last booking there (0 = never booked). An index
 * only ever holds slots congruent to it, so the epoch names the booked
 * slot exactly while it fits in 32 bits: for every slot below
 * (2^32 - 1) * slots, about 7e13 cycles for a DRAM bank. A booking past
 * that bound throws SimError instead of aliasing. With a power-of-two
 * granularity and ring size (every shipped geometry) slot, index and
 * epoch are shifts and masks.
 */
class SlotTable
{
  public:
    /**
     * @param granularity cycles per slot (the resource service quantum)
     * @param slots ring size; the usable window is granularity*slots
     * @param resources independent rings kept in the table
     */
    SlotTable(Cycle granularity, std::size_t slots, unsigned resources);

    /**
     * Reserve `count` consecutive slots of `resource` at or after
     * cycle `t`.
     * @return the cycle at which the reservation starts
     * @throws SimError past the last slot the epochs can represent
     */
    Cycle book(unsigned resource, Cycle t, unsigned count);

    /**
     * @name Checkpoint support
     * Each resource's ring in resource order, as a u64 vector of
     * absolute slot + 1 per index (0 = free): the layout one ring per
     * resource always had, so snapshots stay interchangeable. Loading
     * checks the ring length and that every entry belongs to its index.
     */
    /// @{
    void saveState(SnapshotWriter &w) const;
    void loadState(SnapshotReader &r);
    /// @}

  private:
    std::uint64_t slotAt(Cycle t) const
    { return pow2_ ? t >> granShift_ : t / gran_; }
    std::size_t indexOf(std::uint64_t s) const
    { return pow2_ ? std::size_t(s & slotMask_) : std::size_t(s % slots_); }
    std::uint64_t epochOf(std::uint64_t s) const
    { return (pow2_ ? s >> slotShift_ : s / slots_) + 1; }

    Cycle gran_;
    std::size_t slots_;
    unsigned resources_;
    /** Granularity and ring size are both powers of two. */
    bool pow2_;
    unsigned granShift_ = 0;
    unsigned slotShift_ = 0;
    std::uint64_t slotMask_ = 0;
    /** Epoch of the last booking, [index * resources_ + resource]. */
    std::vector<std::uint32_t> epoch_;
};

/** Open-row DRAM with slot-table bank and channel-bus timing. */
class Dram : public MemoryLevel
{
  public:
    explicit Dram(const DramConfig &config);

    AccessResult access(const MemAccess &req) override;
    const char *levelName() const override { return "DRAM"; }

    /** Per-core statistics. */
    const std::vector<PerCoreDramStats> &stats() const { return stats_; }

    /** Reset statistics (not bank state). */
    void clearStats();

    /** Aggregate row-buffer hit rate in [0, 1]. */
    double rowHitRate() const;

    /** Register per-core counters and latency views under `prefix`. */
    void registerStats(StatRegistry &reg,
                       const std::string &prefix) const;

    /**
     * Paranoid-mode audit: per-core accounting must conserve (every
     * access is exactly one of a read or a write and exactly one of a
     * row hit/miss/conflict) and bank state must be coherent (a closed
     * bank has no open row). Throws InvariantError on violation.
     */
    void audit() const;

    const DramConfig &config() const { return config_; }

    /**
     * @name Checkpoint support
     * Serializes bank open-row state, both slot tables, and the
     * per-core counters (geometry is rebuilt from configuration).
     */
    /// @{
    void saveState(SnapshotWriter &w) const;
    void loadState(SnapshotReader &r);
    /// @}

  private:
    struct Bank
    {
        std::uint64_t openRow = ~std::uint64_t(0);
        bool rowOpen = false;
    };

    /** Decompose a line address into channel / bank / row. */
    void map(Addr line, unsigned &channel, unsigned &bank,
             std::uint64_t &row) const;

    DramConfig config_;
    /** @name map() geometry, from the power-of-two configuration */
    /// @{
    unsigned chanShift_;
    unsigned rowShift_;
    unsigned bankBits_;
    /// @}
    std::vector<Bank> banks_;  //!< [channel * banks + bank]
    SlotTable bankCal_;        //!< one ring per bank, same indexing
    SlotTable busCal_;         //!< one ring per channel
    std::vector<PerCoreDramStats> stats_;
};

} // namespace pinte

#endif // PINTE_DRAM_DRAM_HH
