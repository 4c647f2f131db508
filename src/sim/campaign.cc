#include "campaign.hh"

#include <algorithm>

#include "common/error.hh"
#include "common/json.hh"
#include "sim/watchdog.hh"

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
    const auto budget = std::make_shared<TraceBudget>();
    for (const Stream &s : streams) {
        if (s.readers.size() < 2)
            continue;
        const auto store = std::make_shared<TraceStore>(s.spec, budget);
        for (const auto &[j, c] : s.readers) {
            traces[j].resize(cells[pending[j]].workloads().size());
            traces[j][c] = store;
        }
    }
    return traces;
}

std::vector<std::vector<RunResult>>
runCampaign(const std::vector<ExperimentSpec> &cells,
            IsolationMode backend, const ProcOptions &proc,
            RunJournal *journal, const BrokerOptions &broker,
            const std::string &spoolSpec, const Runner::Tick &tick)
{
    const std::size_t n = cells.size();
    const auto cores = [&](std::size_t i) {
        return std::max<std::size_t>(1, cells[i].workloads().size());
    };
    std::vector<std::vector<RunResult>> results(n);
    std::vector<std::string> keys(n);
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < n; ++i) {
        keys[i] = cellKey(cells[i]);
        if (backend != IsolationMode::Thread && cores(i) > 1)
            throw ConfigError(std::string("the ") + toString(backend) +
                                  " backend runs single-core cells only",
                              {"campaign", broker.spool, keys[i]});
        for (std::size_t c = 0; journal && c < cores(i); ++c) {
            const RunResult *done = journal->find(cellKey(cells[i], c));
            if (!done)
                break;
            results[i].push_back(*done);
        }
        if (results[i].size() != cores(i)) {
            results[i].clear();
            pending.push_back(i);
        }
    }
    // Merge on arrival: a campaign interrupted at any point resumes.
    const auto arrived = [&](std::size_t i, const RunResult &r,
                             std::size_t core) {
        if (journal)
            journal->record(cellKey(cells[i], core), r);
    };
    // Cells that replay one stream share its trace in this address
    // space (a process or spool worker: in its own forked copy). A
    // cell drops its references when it finishes, so a store is freed
    // with the last cell that reads it. Indexed by cell; a cell that
    // is not pending has none.
    std::vector<TraceStores> traces(n);
    {
        std::vector<TraceStores> shared = sharedTraces(cells, pending);
        for (std::size_t j = 0; j < pending.size(); ++j)
            traces[pending[j]] = std::move(shared[j]);
    }

    // Each simulating worker may pump its cells' streams on its share
    // of the CPUs the campaign's workers leave idle. A pump lives
    // inside one cell's run: in the process backend, in the forked
    // child that runs it, never in the parent that forks. A spool's
    // workers cannot count one another (the broker's share it with
    // hand-started ones it never sees), so like a hand-started worker
    // they pump nothing: a CPU they took for idle may be a sibling's.
    const unsigned producers = backend == IsolationMode::Spool
                                   ? 0
                                   : TracePump::budget(proc.workers);

    switch (backend) {
      case IsolationMode::Thread: {
        // Progress counts journal hits as resolved cells.
        const std::size_t hits = n - pending.size();
        if (tick && hits)
            tick(hits);
        Runner runner(proc.workers);
        runner.jobTimeout(proc.jobTimeout);
        runner.forEach(
            pending.size(),
            [&](std::size_t j) {
                const std::size_t i = pending[j];
                const TraceStores mine = std::move(traces[i]);
                for (RunOutcome &o :
                     cells[i].tryRunAll(mine, producers))
                    results[i].push_back(std::move(o.result));
                for (std::size_t c = 0; c < results[i].size(); ++c)
                    arrived(i, results[i][c], c);
            },
            tick ? Runner::Tick([&](std::size_t done) { tick(hits + done); })
                 : Runner::Tick());
        break;
      }
      case IsolationMode::Process: {
        const auto fresh = runProcessCampaign(
            pending.size(),
            [&](std::size_t j) {
                const TraceStores mine = std::move(traces[pending[j]]);
                return cells[pending[j]]
                    .tryRun(mine, producers)
                    .result;
            },
            proc,
            [&](std::size_t j, const RunResult &r) {
                arrived(pending[j], r, 0);
            });
        for (std::size_t j = 0; j < pending.size(); ++j)
            results[pending[j]] = {fresh[j]};
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
        const std::vector<RunResult> fresh = runSpoolBroker(
            campaignDocument(fp, spoolSpec, keys), fp, keys, broker,
            [&](std::size_t i) {
                const TraceStores mine = std::move(traces[i]);
                JobWatchdog::Scope watchdog(proc.jobTimeout);
                return cells[i].tryRun(mine, producers).result;
            },
            [&](std::size_t i, const RunResult &r) { arrived(i, r, 0); },
            [&](std::size_t i) {
                return results[i].empty() ? nullptr : &results[i].front();
            });
        for (std::size_t i = 0; i < n; ++i)
            results[i] = {fresh[i]};
        break;
      }
    }

    for (std::size_t i = 0; i < n; ++i) {
        const auto &w = cells[i].workloads();
        for (std::size_t c = 0; c < results[i].size(); ++c) {
            RunResult &r = results[i][c];
            if (!r.workload.empty())
                continue;
            r.workload = c < w.size() ? w[c].name : std::string("?");
            r.contention = cells[i].contention(c);
        }
    }
    return results;
}

} // namespace pinte
