#include "campaign.hh"

#include <algorithm>

#include "common/error.hh"
#include "common/json.hh"
#include "sim/runner.hh"

namespace pinte
{

namespace
{

/** The spool campaign document: identity (fingerprint + the full
 *  cell-key list) plus the spec workers rebuild their grid from. */
std::string
campaignDocument(const std::string &fingerprint, const std::string &spec,
                 const std::vector<std::string> &keys)
{
    std::string doc = "{\"schema\": \"pinte.spool.campaign\", "
                      "\"tool\": \"pintesim\", \"fingerprint\": " +
                      jsonQuote(fingerprint) + ", \"spec\": " + spec +
                      ", \"cells\": [";
    for (std::size_t k = 0; k < keys.size(); ++k)
        doc += (k ? ", " : "") + jsonQuote(keys[k]);
    return doc + "]}";
}

} // namespace

std::vector<TraceStores>
sharedTraces(const std::vector<ExperimentSpec> &cells,
             const std::vector<std::size_t> &pending)
{
    struct Stream
    {
        WorkloadSpec spec;
        std::vector<std::pair<std::size_t, std::size_t>> readers;
    };
    std::vector<Stream> streams;
    for (std::size_t j = 0; j < pending.size(); ++j) {
        const ExperimentSpec &cell = cells[pending[j]];
        for (std::size_t c = 0; c < cell.workloads().size(); ++c) {
            WorkloadSpec spec = cell.coreWorkload(c);
            auto it = std::find_if(
                streams.begin(), streams.end(),
                [&](const Stream &s) { return s.spec == spec; });
            if (it == streams.end())
                it = streams.insert(streams.end(), {std::move(spec), {}});
            it->readers.emplace_back(j, c);
        }
    }
    std::vector<TraceStores> traces(pending.size());
    for (const Stream &s : streams) {
        if (s.readers.size() < 2)
            continue;
        const auto store = std::make_shared<TraceStore>(s.spec);
        for (const auto &[j, c] : s.readers) {
            traces[j].resize(cells[pending[j]].workloads().size());
            traces[j][c] = store;
        }
    }
    return traces;
}

std::vector<RunResult>
runCell(const ExperimentSpec &cell, RunJournal *journal)
{
    const std::size_t ncores =
        std::max<std::size_t>(1, cell.workloads().size());
    std::vector<RunResult> results;
    if (journal) {
        for (std::size_t i = 0; i < ncores; ++i) {
            const RunResult *done = journal->find(cellKey(cell, i));
            if (!done)
                break;
            results.push_back(*done);
        }
        if (results.size() == ncores)
            return results;
        results.clear();
    }
    for (RunOutcome &o : cell.tryRunAll())
        results.push_back(std::move(o.result));
    if (journal)
        for (std::size_t i = 0; i < results.size(); ++i)
            journal->record(cellKey(cell, i), results[i]);
    return results;
}

std::vector<RunResult>
runCampaign(const std::vector<ExperimentSpec> &cells,
            IsolationMode backend, const ProcOptions &proc,
            RunJournal *journal, const BrokerOptions &broker,
            const std::string &spoolSpec)
{
    const std::size_t n = cells.size();
    std::vector<RunResult> results(n);
    std::vector<std::string> keys(n);
    std::vector<char> served(n, 0);
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < n; ++i) {
        keys[i] = cellKey(cells[i]);
        if (const RunResult *done =
                journal ? journal->find(keys[i]) : nullptr) {
            results[i] = *done;
            served[i] = 1;
        } else {
            pending.push_back(i);
        }
    }
    // Merge on arrival: a campaign interrupted at any point resumes.
    const auto arrived = [&](std::size_t i, const RunResult &r) {
        if (journal)
            journal->record(keys[i], r);
    };
    // Cells that replay one stream share its trace in this address
    // space (a process worker: in its own forked copy). A cell drops
    // its references when it finishes, so a store is freed with the
    // last cell that reads it. Spool workers run in processes of their
    // own and build their stores there (`pintesim --worker`).
    std::vector<TraceStores> traces;
    if (backend != IsolationMode::Spool)
        traces = sharedTraces(cells, pending);
    const auto job = [&](std::size_t j) {
        const TraceStores mine = std::move(traces[j]);
        return cells[pending[j]].tryRun(mine).result;
    };

    switch (backend) {
      case IsolationMode::Thread: {
        Runner runner(proc.workers);
        runner.jobTimeout(proc.jobTimeout);
        runner.forEach(pending.size(), [&](std::size_t j) {
            results[pending[j]] = job(j);
            arrived(pending[j], results[pending[j]]);
        });
        break;
      }
      case IsolationMode::Process: {
        const auto fresh = runProcessCampaign(
            pending.size(), job, proc,
            [&](std::size_t j, const RunResult &r) {
                arrived(pending[j], r);
            });
        for (std::size_t j = 0; j < pending.size(); ++j)
            results[pending[j]] = fresh[j];
        break;
      }
      case IsolationMode::Spool: {
        // Shards are keyed by one machine fingerprint; journal hits
        // resolve in the broker without touching the spool.
        const std::string fp =
            n ? cells.front().machineConfig().fingerprint() : "";
        for (const ExperimentSpec &c : cells)
            if (c.machineConfig().fingerprint() != fp)
                throw ConfigError("a spool campaign runs on one machine",
                                  {"campaign", broker.spool, ""});
        results = runSpoolBroker(
            campaignDocument(fp, spoolSpec, keys), fp, keys, broker,
            arrived, [&](std::size_t i) {
                return served[i] ? &results[i] : nullptr;
            });
        break;
      }
    }

    for (std::size_t i = 0; i < n; ++i) {
        RunResult &r = results[i];
        if (!r.workload.empty())
            continue;
        const auto &w = cells[i].workloads();
        r.workload = w.empty() ? std::string("?") : w.front().name;
        r.contention = cells[i].contention();
    }
    return results;
}

} // namespace pinte
