/**
 * @file
 * Append-only run journal: the crash-safe checkpoint behind resumable
 * sweeps (`--journal` / `--resume`).
 *
 * Every completed cell of a RunPlan is appended as one self-contained
 * JSONL record keyed by a deterministic fingerprint of the cell
 * (config digest + workload + scheme label + seed) and fsync'd before
 * the engine moves on, so a killed sweep loses at most the runs that
 * were still in flight. On resume, journaled cells are skipped and
 * their results replayed from the journal; because every RunResult
 * field is an integer or a string, the round trip is lossless and the
 * merged output is byte-identical to an uninterrupted sweep.
 *
 * File layout: a plain-JSON header line
 *   {"schema":"grit-run-journal","version":2,"generator":"<binary>"}
 * followed by one integrity-framed entry per line (length prefix +
 * CRC32C, harness/record_frame.h). The file is a RecordLog, shared
 * with the service's result store: resume scrubs it (corrupt records
 * are quarantined, a torn tail is truncated), refuses a damaged header
 * with store-corrupt, and indexes first-wins. Version 2 added the
 * "accesses_batched" run field; version-1 journals are rejected on
 * resume (re-running the sweep is cheaper than replaying a record that
 * silently zeroes a now-exported metric).
 */

#ifndef GRIT_HARNESS_RUN_JOURNAL_H_
#define GRIT_HARNESS_RUN_JOURNAL_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness/experiment_engine.h"
#include "harness/record_frame.h"
#include "harness/simulator.h"
#include "stats/json_value.h"
#include "stats/json_writer.h"

namespace grit::harness {

/**
 * Order-independent digest of the SystemConfig knobs a sweep varies
 * (policy, topology, capacities, chaos numerics). Deliberately excludes
 * the resilience controls (wallDeadlineSec, eventBudget, cancelFlag)
 * and non-owning pointers: resuming with a different deadline must
 * still match the journaled fingerprints.
 */
std::uint64_t configDigest(const SystemConfig &config);

/**
 * Deterministic hex fingerprint of one RunPlan cell: row, label,
 * workload identity (app abbreviation or prebuilt-workload name),
 * generation params, and configDigest().
 */
std::string runFingerprint(const RunCell &cell);

/** One journaled cell outcome. */
struct JournalEntry
{
    std::string fingerprint;
    std::string row;
    std::string label;
    /** "ok" or "failed" (quarantined). */
    std::string status;
    /** Executions attempted (> 1 after a transient-failure retry). */
    unsigned attempts = 1;
    /**
     * Present for "ok" entries and for quarantined entries whose
     * partial counters were salvaged (result.partial is then true).
     */
    bool hasResult = false;
    RunResult result;
    /** The quarantining diagnostic ("failed" entries). */
    std::optional<sim::SimError> error;
};

/** Lossless RunResult serialization (exposed for tests). */
void writeRunResultJson(stats::JsonWriter &w, const RunResult &result);
/** Inverse of writeRunResultJson. @throws SimException (kJournal). */
RunResult runResultFromJson(const stats::JsonValue &v);

/** {"code","message","context"} object (shared with src/service). */
void writeErrorJson(stats::JsonWriter &w, const sim::SimError &error);
/** Inverse of writeErrorJson. @throws SimException (kJournal). */
sim::SimError errorFromJson(const stats::JsonValue &v);

/** Entry object serialization (shared with the service protocol). */
void writeJournalEntryJson(stats::JsonWriter &w, const JournalEntry &entry);
/** Inverse of writeJournalEntryJson. @throws SimException (kJournal). */
JournalEntry journalEntryFromJson(const stats::JsonValue &v);

/** Serialize @p entry as one journal line (no trailing newline). */
std::string journalLine(const JournalEntry &entry);
/** Parse one journal line. @throws SimException (kJournal). */
JournalEntry journalEntryFromLine(const std::string &line);

/**
 * One persisted record file: the storage under both the run journal
 * and the service's result store. Line 1 is a plain-JSON header that
 * names the file's identity; every later line is one integrity-framed
 * JournalEntry (record_frame.h), indexed by fingerprint. One rule set
 * covers both files:
 *
 *  - open() scrubs: a record that fails its frame, CRC or JSON is
 *    skipped and preserved in the `<path>.quarantine` sidecar, every
 *    intact record around it is indexed, and an unterminated final
 *    line (a crash mid-append) is counted and truncated away. Legacy
 *    unframed records load transparently.
 *  - A header line that does not parse is refused with store-corrupt;
 *    one naming a different schema, version or generator is refused
 *    with journal. Nothing is written to a refused file.
 *  - First-wins: a fingerprint is indexed by its first valid record,
 *    at load, at append and at compaction.
 *  - append() is one write(2) on an O_APPEND descriptor plus fsync, so
 *    concurrent appenders (threads, or two handles on one path)
 *    interleave whole records and an appended record survives a crash.
 *
 * Thread-safe.
 */
class RecordLog
{
  public:
    /** What compact() did (sizes are records, not bytes). */
    struct CompactionStats
    {
        std::uint64_t recordsIn = 0;  //!< valid records before
        std::uint64_t kept = 0;       //!< unique records written back
        std::uint64_t duplicatesDropped = 0;
    };

    RecordLog() = default;
    ~RecordLog();
    RecordLog(const RecordLog &) = delete;
    RecordLog &operator=(const RecordLog &) = delete;

    /**
     * Open (creating if absent) the file at @p path, whose identity is
     * the JSON object @p header. A file without a whole header line
     * gets @p header written; otherwise every field of @p header must
     * match the existing header, and the records are scrubbed.
     * @throws sim::SimException — kStoreCorrupt when the existing
     *         header line does not parse, kJournal when it names
     *         another identity or on I/O failure.
     */
    void open(const std::string &path, const std::string &header);

    bool isOpen() const;
    const std::string &path() const { return path_; }

    /** Fingerprints indexed. */
    std::size_t size() const;

    /** Scrub tally of the most recent open(). */
    ScrubStats scrubStats() const;

    /** Indexed outcome for @p fingerprint; nullptr when absent. */
    const JournalEntry *find(const std::string &fingerprint) const;

    /**
     * Append @p entry (one framed write + fsync) and index it. A
     * fingerprint already indexed is not written again.
     * @throws sim::SimException (kJournal) on I/O failure.
     */
    void append(const JournalEntry &entry);

    /**
     * Rewrite the file as header + one framed record per indexed
     * fingerprint, in append order, via write-temp + fsync + atomic
     * rename (+ fsync of the directory), then reopen the append
     * descriptor on the new file. Sheds duplicates and quarantined
     * lines and upgrades legacy records to frames. A failure leaves
     * the live log untouched. scrubStats() still describes open().
     * @throws sim::SimException (kJournal) on I/O failure.
     */
    CompactionStats compact();

    /** Close the backing file (open() may be called again). */
    void close();

  private:
    void scrubLocked();
    void writeLocked(const std::string &bytes);

    mutable std::mutex mutex_;
    int fd_ = -1;
    std::string path_;
    std::string header_;
    ScrubStats scrub_;
    /** Valid records on disk that lost to an earlier fingerprint. */
    std::uint64_t duplicates_ = 0;
    /** Indexed records in append order; a deque keeps them in place. */
    std::deque<JournalEntry> entries_;
    std::unordered_map<std::string, const JournalEntry *> index_;
};

/**
 * The run journal: a RecordLog whose header names the generating
 * binary. Engine workers append concurrently.
 */
class RunJournal : private RecordLog
{
  public:
    static constexpr const char *kSchemaName = "grit-run-journal";
    static constexpr unsigned kSchemaVersion = 2;

    /**
     * Open @p path for appending. With @p resume, an existing file is
     * scrubbed and indexed and appended to; without it the file is
     * truncated to a fresh header.
     * @throws sim::SimException — kJournal when the file cannot be
     *         opened or its header names a different schema, version,
     *         or generator; kStoreCorrupt when the header is damaged.
     */
    void open(const std::string &path, const std::string &generator,
              bool resume);

    using RecordLog::append;
    using RecordLog::find;
    using RecordLog::isOpen;
    using RecordLog::path;
    using RecordLog::scrubStats;
    using RecordLog::size;
};

}  // namespace grit::harness

#endif  // GRIT_HARNESS_RUN_JOURNAL_H_
