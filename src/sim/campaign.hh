/**
 * @file
 * The one campaign path: journaled cells on any execution backend.
 *
 * A campaign is a vector of cells (ExperimentSpecs). Every campaign in
 * the repository — pintesim's sweep, its --policies grid, the spool
 * worker's rebuild and the bench families — resolves a cell the same
 * way: a --resume journal hit is served without simulating, anything
 * else runs fault-isolated (a fault becomes a quarantined failed()
 * cell), and each success is journaled durably as it arrives, under
 * the key cellKey() derives (sim/journal.hh).
 *
 * runCampaign() does that for a whole grid on one of the three
 * backends IsolationMode names; runCell() does it for one cell on the
 * calling thread, for callers that schedule cells themselves.
 */

#ifndef PINTE_SIM_CAMPAIGN_HH
#define PINTE_SIM_CAMPAIGN_HH

#include <string>
#include <vector>

#include "sim/broker.hh"
#include "sim/experiment.hh"
#include "sim/journal.hh"
#include "sim/worker_proc.hh"

namespace pinte
{

/**
 * Resolve one cell on the calling thread, all cores: from `journal`
 * when every core is journaled (cores complete atomically), otherwise
 * by tryRunAll(), journaling the cores of a successful run.
 * @param journal the --resume journal, or nullptr
 */
std::vector<RunResult> runCell(const ExperimentSpec &cell,
                               RunJournal *journal);

/**
 * One TraceStore per per-core stream that at least two of the cells
 * `cells[pending[j]]` read, handed to those cells core by core; other
 * cores get no entry and run a live generator. Indexed like `pending`;
 * pass element j to cells[pending[j]].tryRun(). Stores are lazy, so
 * building them does no trace work.
 */
std::vector<TraceStores>
sharedTraces(const std::vector<ExperimentSpec> &cells,
             const std::vector<std::size_t> &pending);

/**
 * Run a campaign and return core 0's result of every cell, in cell
 * order. Journal hits are served up front; the pending cells run on
 * `backend`:
 *  - Thread: a Runner of `proc.workers` threads, `proc.jobTimeout`
 *    armed as the cooperative watchdog;
 *  - Process: runProcessCampaign(`proc`);
 *  - Spool: runSpoolBroker(`broker`) over a campaign document that
 *    carries the cells' machine fingerprint, `spoolSpec` (the JSON a
 *    spool worker rebuilds the grid from) and every cell's key. All
 *    cells must share one machine fingerprint.
 * A cell a backend quarantines without labels gets its cell's
 * workload and contention labels.
 * @param journal the --resume journal, or nullptr
 */
std::vector<RunResult> runCampaign(const std::vector<ExperimentSpec> &cells,
                                   IsolationMode backend,
                                   const ProcOptions &proc,
                                   RunJournal *journal = nullptr,
                                   const BrokerOptions &broker = {},
                                   const std::string &spoolSpec = "{}");

} // namespace pinte

#endif // PINTE_SIM_CAMPAIGN_HH
