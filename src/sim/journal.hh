/**
 * @file
 * Completed-run journal: crash-tolerant checkpoint/resume for
 * campaigns.
 *
 * Every finished run is appended to a JSONL file as one
 * `{"key": ..., "run": ...}` line (the run in the exact schema-v2
 * representation reports use), flushed and fsync'd immediately. A
 * campaign relaunched with --resume=JOURNAL loads the file, skips any
 * torn trailing line a crash may have left, and serves previously
 * completed runs from the journal instead of re-simulating them —
 * the final report is identical to an uninterrupted campaign (modulo
 * cpuSeconds, which measures the machine, not the simulation).
 *
 * Keys bind a run to its full identity — machine fingerprint,
 * experiment scale parameters, workload and contention label — so a
 * journal recorded under one configuration can never leak results
 * into another.
 *
 * Long-lived journals accrete dead weight: newline-terminated garbage
 * from interleaved writers, and duplicate keys when independent
 * recorders (e.g. a spool broker restarted mid-campaign) re-record
 * cells. Load tolerates both, but the file would grow without bound,
 * so construction compacts it — rewrites the JSONL atomically with
 * exactly one line per live entry — whenever dead + duplicate lines
 * outnumber live ones. Compaction preserves resume semantics exactly:
 * the entry set served by find() is identical before and after.
 */

#ifndef PINTE_SIM_JOURNAL_HH
#define PINTE_SIM_JOURNAL_HH

#include <cstdio>
#include <map>
#include <mutex>
#include <string>

#include "sim/experiment.hh"

namespace pinte
{

/**
 * The identity core `core` of `cell` is filed under, in the journal
 * and in a spool: machine fingerprint (with the core count the cell
 * runs on) + scale parameters + that core's workload and contention
 * labels. The only derivation of a campaign key — every campaign path
 * (sim/campaign.hh) and the spool worker's config-skew check go
 * through it, so a key can never drift between them.
 */
std::string cellKey(const ExperimentSpec &cell, std::size_t core = 0);

/**
 * Append-only journal of completed runs, loaded on construction.
 * Thread-safe: campaigns record() from worker threads.
 */
class RunJournal
{
  public:
    /**
     * Open (creating if absent) the journal at `path`, loading every
     * well-formed line. Unparseable lines — e.g. a torn tail from a
     * SIGKILL mid-append — are skipped, not fatal.
     * @throws ConfigError when the file cannot be opened for append
     */
    explicit RunJournal(const std::string &path);

    ~RunJournal();

    RunJournal(const RunJournal &) = delete;
    RunJournal &operator=(const RunJournal &) = delete;

    /** The completed run filed under `key`, or nullptr. */
    const RunResult *find(const std::string &key) const;

    /**
     * Durably append `r` under `key`: one JSONL line, flushed and
     * fsync'd before returning so a crash immediately after still
     * finds the entry on resume. Failed runs are not recorded — a
     * resumed campaign retries them.
     */
    void record(const std::string &key, const RunResult &r);

    /** Entries currently loaded/recorded. */
    std::size_t size() const;

    /** True when construction rewrote the file (dead + duplicate
     *  lines outnumbered live entries). */
    bool compacted() const { return compacted_; }

  private:
    mutable std::mutex m_;
    std::map<std::string, RunResult> entries_;
    std::FILE *file_ = nullptr;
    std::string path_;
    bool compacted_ = false;
};

} // namespace pinte

#endif // PINTE_SIM_JOURNAL_HH
