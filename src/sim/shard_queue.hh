/**
 * @file
 * Durable file-queue transport for spool campaigns.
 *
 * A spool is a directory (typically on a filesystem shared between a
 * broker and its workers) that carries a campaign's entire execution
 * state as files, so that every process involved — the broker
 * included — can be SIGKILLed at any instant and the campaign resumes
 * from the spool alone. Layout under the spool root:
 *
 *   campaign.json        the campaign document: fingerprint, the full
 *                        cell-key list, and an opaque "spec" object
 *                        the CLI uses to rebuild the cells in worker
 *                        processes (AtomicFile-written, so readers
 *                        see a whole document or none)
 *   shards/<id>.shard    one wire Shard frame (sim/wire.hh) wrapping
 *                        a JSON shard spec: the cells of one unit of
 *                        work, its current fencing token, and its
 *                        attempt history. Republished (atomically
 *                        replaced) with a bumped token on every
 *                        reclamation.
 *   leases/<id>.t<N>.lease
 *                        a worker's claim on a shard at token N:
 *                        owner pid/host, the token, and a wall-clock
 *                        deadline. The file name carries the token,
 *                        so a stale owner's writes can never land on
 *                        a newer token's lease. Claimed atomically
 *                        (the JSON is staged whole under a private
 *                        name, then link()ed into place — a claimer
 *                        SIGKILLed at any instant leaves either no
 *                        lease or a complete one), renewed by the
 *                        owner while its simulation makes progress,
 *                        broken by the broker once the deadline
 *                        passes. A lease file that exists but does
 *                        not parse (operator damage) is broken by
 *                        the broker after a TTL of grace instead of
 *                        wedging the shard.
 *   results/<id>.t<N>    append-only stream of wire Record frames,
 *                        one per completed cell, written by the
 *                        worker holding token N. Fencing is by file
 *                        name: the broker only ever reads the stream
 *                        of a shard's *current* token, so a stale
 *                        worker writing after reclamation talks to a
 *                        file nobody will ever read.
 *   complete             marker: the campaign is finished; idle
 *                        workers exit
 *
 * A worker that streamed every cell of a shard keeps its lease: a
 * held lease at the current token is what makes every other worker
 * skip the shard, and the broker retires the shard once its stream
 * resolves every cell. (Spools from older builds may also carry
 * baselines/ and done/ directories; nothing reads them.)
 *
 * Durability rules: nothing is deleted mid-campaign (a broker restart
 * rebuilds its whole merge state by re-scanning shards and result
 * streams); every file that must be read whole is
 * written via AtomicFile; result streams are append-only with each
 * record CRC-framed and fsync'd, so a torn tail is detectable and
 * everything before it is salvageable. Every fsync on a worker's path
 * guards a file that recovery reads (DESIGN.md §4j has the table);
 * lease renewals, the one write made only to stay alive, are
 * rate-limited by renewLease.
 */

#ifndef PINTE_SIM_SHARD_QUEUE_HH
#define PINTE_SIM_SHARD_QUEUE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/wire.hh"

namespace pinte
{

/** One unit of claimable work: a slice of the campaign's cell grid.
 *  The shard file is the durable truth for the fencing token and the
 *  attempt ladder. */
struct ShardSpec
{
    std::string id;                  //!< "s<index>", unique in spool
    std::string fingerprint;         //!< MachineConfig::fingerprint()
    std::uint32_t token = 1;         //!< current fencing token
    std::uint32_t attempt = 0;       //!< 0-based attempt number
    std::uint32_t budget = 1;        //!< max attempts (--max-retries);
                                     //!< attempt >= budget: exhausted,
                                     //!< workers must not claim
    std::vector<std::uint64_t> cells; //!< global cell indices
    std::vector<std::string> attemptLog; //!< one line per lost attempt
};

/** A worker's claim on a shard. */
struct Lease
{
    std::string shard;
    std::uint32_t token = 0;  //!< must match the shard file's token
    std::int64_t pid = 0;     //!< owner pid (meaningful on its host)
    std::string host;         //!< owner hostname
    double deadline = 0.0;    //!< unix seconds; expired => reclaimable
};

/** What a lease file at a given (shard, token) holds. Corrupt —
 *  present but unparseable, or carrying the wrong shard/token — can
 *  only come from operator damage (claims are link()-atomic), but it
 *  blocks every future claim, so the broker breaks it after a TTL of
 *  grace rather than letting the shard wedge. */
enum class LeaseProbe
{
    Absent,  //!< no lease file: the shard is claimable
    Valid,   //!< parsed; the shard is held (worker or broker backoff)
    Corrupt, //!< present but unreadable: break after grace
};

/** One per-cell result record from a worker's stream. */
struct SpoolRecord
{
    std::uint64_t cell = 0;   //!< global cell index
    std::uint32_t token = 0;  //!< token the writer held
    std::string key;          //!< the cell's journal key
    std::string runJson;      //!< writeRunJson document, flat
};

/** Wall-clock now in unix seconds (leases cross process and host
 *  boundaries, so steady_clock cannot carry their deadlines). */
double spoolWallClock();

/** This host's name as recorded in leases. */
std::string spoolHostName();

/**
 * Handle on a spool directory. Creating the handle creates the
 * directory tree; all operations are stateless over the filesystem
 * except StreamScanner (which remembers read offsets).
 */
class Spool
{
  public:
    /** Open `root`, creating the directory tree if absent.
     *  @throws ConfigError when a directory cannot be created */
    explicit Spool(std::string root);

    const std::string &root() const { return root_; }

    /// @name Campaign document
    /// @{
    bool hasCampaign() const;
    void writeCampaign(const std::string &json);
    /** @throws ConfigError when absent or unparseable */
    std::string readCampaign() const;
    /// @}

    /// @name Shards
    /// @{
    /** Publish (or atomically replace) a shard file. */
    void publishShard(const ShardSpec &s);
    /** All shard ids currently in the spool, sorted. */
    std::vector<std::string> listShardIds() const;
    /** Load one shard spec; false when missing or corrupt. */
    bool readShard(const std::string &id, ShardSpec &out) const;
    /// @}

    /// @name Leases
    /// @{
    /**
     * Try to claim `s` at its current token for this process, with
     * deadline now + `ttl`. The claim is atomic: the lease JSON is
     * written and fsync'd under a private staging name, then link()ed
     * to `leases/<id>.t<token>.lease` — exactly one claimant's link
     * succeeds, and a claimer killed at any instant leaves either no
     * lease file or a complete one, never a torn claim. False when
     * another claimant holds the path (or on I/O failure).
     */
    bool claimLease(const ShardSpec &s, double ttl, Lease &out);
    /**
     * Inspect the lease of (id, token): Absent (claimable), Valid
     * (`out` filled), or Corrupt (present but unparseable, or its
     * body disagrees with its path). When `mtime` is non-null it
     * receives the file's last-modification time in unix seconds —
     * the clock the broker's corrupt-lease grace period runs on.
     */
    LeaseProbe probeLease(const std::string &id, std::uint32_t token,
                          Lease &out, double *mtime = nullptr) const;
    /** Load a valid lease; false when absent or corrupt. */
    bool readLease(const std::string &id, std::uint32_t token,
                   Lease &out) const;
    /**
     * Keep an owned lease alive. False when the lease was lost (file
     * gone, another owner, or the shard token superseded) — the owner
     * must abandon the shard immediately. Every call runs those
     * checks, but the lease is rewritten (deadline now + `ttl`, an
     * fsync'd AtomicFile commit) only when the deadline on disk is
     * less than 3/4 of `ttl` away, so a caller renewing every ttl/4
     * rewrites at most once per ttl/4 and keeps the deadline at least
     * ttl/2 ahead while it makes progress. The lease path is
     * token-named, so a renewal that
     * races a reclamation can never overwrite the backoff lease or a
     * new claimant's lease; at worst it briefly recreates a file at
     * the superseded path, which the post-commit token re-check below
     * detects and removes.
     */
    bool renewLease(const Lease &l, double ttl);
    /** Owner releases its claim (only if the file still carries its
     *  identity) after failing to stream its shard; a worker that
     *  streamed every cell keeps its lease. */
    void releaseLease(const Lease &l);
    /** Broker forcibly removes the lease of (id, token) during
     *  reclamation. */
    void breakLease(const std::string &id, std::uint32_t token);
    /**
     * Broker installs (or atomically replaces) a lease outright,
     * bypassing the claim protocol — used to stage the backoff lease
     * of a reclaimed shard at its *next* token before the bumped
     * shard file becomes visible, so there is no unclaimed window in
     * which an eager worker could defeat the retry pacing.
     */
    void imposeLease(const Lease &l);
    /** Remove every lease or staged-claim file of `id` whose token is
     *  older than `curToken` (reclamation litter; nobody reads
     *  them). */
    void sweepStaleLeases(const std::string &id,
                          std::uint32_t curToken);
    /// @}

    /// @name Campaign-complete marker
    /// @{
    /** Broker writes it at the very end. */
    void markComplete();
    bool complete() const;
    /// @}

    std::string shardFile(const std::string &id) const;
    std::string leaseFile(const std::string &id,
                          std::uint32_t token) const;
    std::string resultFile(const std::string &id,
                           std::uint32_t token) const;

  private:
    std::string root_;
};

/** JSON (de)serialization of shard specs — the Shard frame payload. */
std::string shardToJson(const ShardSpec &s);
bool shardFromJson(const std::string &json, ShardSpec &out);

/**
 * Worker-side appender for one (shard, token) result stream. Each
 * append is a single O_APPEND write of one CRC-framed Record,
 * fsync'd, so records from a worker that dies mid-campaign are
 * either completely on disk or detectably torn — never silently
 * half-merged.
 */
class ResultAppender
{
  public:
    ResultAppender(const Spool &spool, const std::string &id,
                   std::uint32_t token);
    ~ResultAppender();
    ResultAppender(const ResultAppender &) = delete;
    ResultAppender &operator=(const ResultAppender &) = delete;

    /** Append one record; false on write failure.
     *  @param torn_prefix fault injection: write only the first half
     *         of the frame (worker-torn-frame), leaving a wedged
     *         stream tail for the broker to survive */
    bool append(const SpoolRecord &rec, bool torn_prefix = false);

  private:
    int fd_ = -1;
};

/**
 * Broker-side incremental scanner over result streams. poll() reads
 * whatever new bytes each watched stream has, reassembles complete
 * Record frames, and returns them; a trailing partial frame stays
 * buffered (it may still be in flight — torn-vs-in-flight is decided
 * by the *lease*, not the stream). A stream whose head fails CRC or
 * framing is marked dead and contributes nothing further.
 */
class StreamScanner
{
  public:
    explicit StreamScanner(const Spool &spool) : spool_(&spool) {}

    /** Scan the stream of (id, token), appending any newly completed
     *  records to `out`. Safe to call repeatedly; remembers offsets. */
    void poll(const std::string &id, std::uint32_t token,
              std::vector<SpoolRecord> &out);

    /** Drop per-stream state for a shard (after reclamation bumps the
     *  token, the old stream is never read again). */
    void forget(const std::string &id);

  private:
    struct Stream
    {
        std::uint32_t token = 0; //!< token this state belongs to
        std::size_t offset = 0;  //!< bytes consumed from the file
        bool dead = false;       //!< framing/CRC failure: stop reading
        FrameReassembly rx;
    };
    const Spool *spool_;
    std::map<std::string, Stream> streams_;
};

/** Binary (wire-integer) packing of a SpoolRecord — the Record frame
 *  payload. The run document travels verbatim as a length-prefixed
 *  string, so no nested-JSON escaping ever touches it. */
std::string packRecord(const SpoolRecord &rec);
bool unpackRecord(const std::string &payload, SpoolRecord &out);

} // namespace pinte

#endif // PINTE_SIM_SHARD_QUEUE_HH
