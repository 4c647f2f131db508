#include "journal.hh"

#include <unistd.h>

#include <fstream>
#include <sstream>

#include "common/atomic_file.hh"
#include "common/error.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "sim/sink.hh"

namespace pinte
{

namespace
{

/** One JSONL journal line (newline-terminated) for `r` under `key` —
 *  the exact representation record() appends and load parses back. */
std::string
journalLine(const std::string &key, const RunResult &r)
{
    std::ostringstream line;
    {
        JsonWriter w(line, -1); // JSONL: one entry per physical line
        w.beginObject();
        w.member("key", key);
        w.key("run");
        writeRunJson(w, r);
        w.endObject();
    }
    return line.str() + '\n';
}

} // namespace

std::string
cellKey(const ExperimentSpec &cell, std::size_t core)
{
    const auto &w = cell.workloads();
    MachineConfig m = cell.machineConfig();
    m.numCores = static_cast<unsigned>(w.empty() ? 1 : w.size());
    const ExperimentParams &p = cell.experimentParams();
    std::string key = m.fingerprint() + "|w" + std::to_string(p.warmup) +
                      "|r" + std::to_string(p.roi) + "|s" +
                      std::to_string(p.sampleEvery) + "|seed" +
                      std::to_string(p.runSeed);
    // Sampled and detailed runs of the same workload must never serve
    // each other's journal entries: the sampling parameters are part of
    // the run's identity. Appended only when sampling is on so every
    // pre-existing journal (all detailed) keeps resolving.
    if (p.sampling.enabled()) {
        key += std::string("|sm") + toString(p.sampling.mode) + "|il" +
               std::to_string(p.sampling.intervalLength) + "|df" +
               std::to_string(p.sampling.detailedFraction) + "|ss" +
               std::to_string(p.sampling.seed);
    }
    key += "|" + (w.empty() ? std::string("?") : w[core].name) + "|" +
           cell.contention(core);
    return core ? key + "|core" + std::to_string(core) : key;
}

RunJournal::RunJournal(const std::string &path) : path_(path)
{
    // Load phase: tolerate a torn trailing line (crash mid-append) by
    // skipping anything that does not parse back into a run entry.
    std::ifstream in(path);
    std::string line;
    std::size_t skipped = 0;
    std::size_t duplicates = 0;
    while (std::getline(in, line)) {
        // A last line without its newline is a torn append even when
        // its bytes parse: the truncation below drops it from the
        // file, so serving it here would make the next load differ.
        if (in.eof()) {
            skipped += !line.empty();
            break;
        }
        if (line.empty())
            continue;
        std::string err;
        const JsonValue v = parseJson(line, &err);
        if (!err.empty() || !v.isObject()) {
            ++skipped;
            continue;
        }
        const JsonValue *key = v.find("key");
        const JsonValue *run = v.find("run");
        if (!key || !key->isString() || !run) {
            ++skipped;
            continue;
        }
        try {
            RunResult r = runFromJson(*run);
            if (entries_.count(key->asString()))
                ++duplicates;
            entries_[key->asString()] = std::move(r);
        } catch (const Error &) {
            ++skipped;
        }
    }
    in.close();
    if (skipped)
        warn("journal " + path + ": skipped " +
             std::to_string(skipped) + " unparseable line(s)");

    // Compaction: when dead weight (unparseable lines + duplicate
    // keys) outnumbers live entries, rewrite the file atomically with
    // exactly one line per entry. The rewrite carries the same entry
    // set load just produced, so resume semantics are untouched; the
    // atomic temp-then-rename means a crash mid-compaction leaves the
    // old (valid) journal in place. This also subsumes the torn-tail
    // handling below — the tail was counted as an unparseable line.
    if (skipped + duplicates > entries_.size()) {
        AtomicFile out(path);
        for (const auto &kv : entries_)
            out.stream() << journalLine(kv.first, kv.second);
        out.commit();
        compacted_ = true;
        warn("journal " + path + ": compacted " +
             std::to_string(skipped + duplicates) +
             " dead/duplicate line(s) away (" +
             std::to_string(entries_.size()) + " live)");
    }

    // A crash mid-append can leave a partial final record with no
    // terminating newline. Skipping it on load is not enough: opening
    // with "ab" would glue the *next* record onto the torn bytes,
    // corrupting a good entry. Drop the partial tail before appending.
    // (Newline-terminated garbage mid-file is left in place — it is
    // skipped above and never glued to.)
    {
        std::ifstream raw(path, std::ios::binary);
        if (raw) {
            std::ostringstream buf;
            buf << raw.rdbuf();
            const std::string text = buf.str();
            if (!text.empty() && text.back() != '\n') {
                const std::size_t nl = text.find_last_of('\n');
                const std::size_t keep =
                    nl == std::string::npos ? 0 : nl + 1;
                warn("journal " + path + ": truncating torn trailing " +
                     std::to_string(text.size() - keep) + " byte(s)");
                if (::truncate(path.c_str(),
                               static_cast<off_t>(keep)) != 0)
                    throw ConfigError(
                        "cannot truncate torn journal tail: " + path,
                        {"journal", path, ""});
            }
        }
    }

    file_ = std::fopen(path.c_str(), "ab");
    if (!file_)
        throw ConfigError("cannot open journal for append: " + path,
                          {"journal", path, ""});
}

RunJournal::~RunJournal()
{
    if (file_)
        std::fclose(file_);
}

const RunResult *
RunJournal::find(const std::string &key) const
{
    std::lock_guard<std::mutex> g(m_);
    const auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : &it->second;
}

void
RunJournal::record(const std::string &key, const RunResult &r)
{
    if (r.failed())
        return;
    const std::string flat = journalLine(key, r);

    std::lock_guard<std::mutex> g(m_);
    if (entries_.count(key))
        return;
    entries_[key] = r;
    if (std::fwrite(flat.data(), 1, flat.size(), file_) != flat.size())
        throw SimError("journal append failed: " + path_,
                       {"journal", path_, key});
    std::fflush(file_);
    ::fsync(::fileno(file_));
}

std::size_t
RunJournal::size() const
{
    std::lock_guard<std::mutex> g(m_);
    return entries_.size();
}

} // namespace pinte
