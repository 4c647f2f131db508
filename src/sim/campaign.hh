/**
 * @file
 * The one campaign path: journaled cells on any execution backend.
 *
 * A campaign is a vector of cells (ExperimentSpecs). Every campaign in
 * the repository — pintesim's sweep, its --policies grid, the spool
 * worker's rebuild and every bench family — resolves its cells through
 * runCampaign(): a --resume journal hit is served without simulating,
 * anything else runs fault-isolated (a fault becomes a quarantined
 * failed() cell), and each success is journaled durably as it arrives,
 * under the keys cellKey() derives (sim/journal.hh).
 */

#ifndef PINTE_SIM_CAMPAIGN_HH
#define PINTE_SIM_CAMPAIGN_HH

#include <string>
#include <vector>

#include "sim/broker.hh"
#include "sim/experiment.hh"
#include "sim/journal.hh"
#include "sim/runner.hh"
#include "sim/worker_proc.hh"

namespace pinte
{

/**
 * One TraceStore per per-core stream that at least two of the cells
 * `cells[pending[j]]` read, handed to those cells core by core; other
 * cores get no entry and run a live generator. Indexed like `pending`;
 * pass element j to cells[pending[j]].tryRunAll(). Stores are lazy, so
 * building them does no trace work. They share one TraceBudget, so
 * together they hold at most TraceBudget::defaultBytes.
 */
std::vector<TraceStores>
sharedTraces(const std::vector<ExperimentSpec> &cells,
             const std::vector<std::size_t> &pending);

/**
 * Run a campaign and return every core's result of every cell, in cell
 * order (cell -> core). A cell is served from `journal` when every one
 * of its cores is journaled (cores complete atomically); the pending
 * cells run on `backend`:
 *  - Thread: a Runner of `proc.workers` threads, `proc.jobTimeout`
 *    armed as the cooperative watchdog; a cell runs tryRunAll().
 *    `tick` gets the count of resolved cells, journal hits included,
 *    on the calling thread;
 *  - Process: runProcessCampaign(`proc`);
 *  - Spool: runSpoolBroker(`broker`) over a campaign document that
 *    carries the cells' machine fingerprint, `spoolSpec` (the JSON a
 *    hand-started spool worker rebuilds the grid from) and every
 *    cell's key. The broker's forked workers run tryRun() on the
 *    cells in memory, `proc.jobTimeout` armed as the cooperative
 *    watchdog. All cells must share one machine fingerprint.
 * On the thread and process backends a cell's streams, replayed or
 * live, are pumped (trace/trace_pump.hh) on TracePump::budget(J)
 * producer threads, J = `proc.workers`: the CPUs the J workers leave
 * idle, shared among them. A pump lives inside one cell's run, so on
 * the process backend it starts in the forked child, after the fork.
 * Spool cells pump nothing: the broker's workers share the spool with
 * hand-started ones they cannot count, so no CPU is known idle.
 * The process and spool backends ship core 0 only, so they refuse a
 * multi-core cell with a ConfigError. Every core of a success is
 * journaled under cellKey(cell, core). A core a backend quarantines
 * without labels gets its cell's workload and contention labels.
 * @param journal the --resume journal, or nullptr
 */
std::vector<std::vector<RunResult>>
runCampaign(const std::vector<ExperimentSpec> &cells, IsolationMode backend,
            const ProcOptions &proc, RunJournal *journal = nullptr,
            const BrokerOptions &broker = {},
            const std::string &spoolSpec = "{}",
            const Runner::Tick &tick = {});

} // namespace pinte

#endif // PINTE_SIM_CAMPAIGN_HH
