/**
 * @file
 * Crash-safe, content-addressed store of completed run results.
 *
 * The persistence layer behind the simulation service: every completed
 * ("ok", non-partial) cell is appended as one integrity-framed JSONL
 * record keyed by its runFingerprint() and fsync'd before the server
 * acknowledges it, so a kill -9 loses at most the record being
 * written.
 *
 * The file is a harness::RecordLog, the same record log as the run
 * journal: open() scrubs it (corrupt records are quarantined into the
 * `<path>.quarantine` sidecar, a torn tail is truncated, the tally is
 * exported as the service's store_* counters), a damaged header is
 * refused with store-corrupt, duplicates are first-wins, and compact()
 * rewrites the file atomically. What the store adds is its header
 * identity and one policy: only complete results are ever stored.
 * Failures and salvaged partials are returned to the requesting client
 * but never persisted, so a transient failure cannot poison the cache.
 *
 * File layout: a plain-JSON header line
 *   {"schema":"grit-result-store","version":1}
 * followed by one framed run-journal entry per line.
 */

#ifndef GRIT_SERVICE_RESULT_STORE_H_
#define GRIT_SERVICE_RESULT_STORE_H_

#include <string>

#include "harness/run_journal.h"

namespace grit::service {

/** The append-only result store. Thread-safe. */
class ResultStore : private harness::RecordLog
{
  public:
    static constexpr const char *kSchemaName = "grit-result-store";
    static constexpr unsigned kSchemaVersion = 1;

    using CompactionStats = harness::RecordLog::CompactionStats;

    /**
     * Open (creating if absent) the store at @p path and scrub it.
     * @throws sim::SimException — kJournal when the file cannot be
     *         opened or belongs to a different schema/version,
     *         kStoreCorrupt when the header line itself is damaged.
     */
    void open(const std::string &path);

    /**
     * Append @p entry (one framed write + fsync) and index it; a
     * fingerprint already indexed is not appended again. Rejects
     * anything but a complete "ok" result — the store must never serve
     * a failure or a partial as a cache hit.
     * @throws sim::SimException (kJournal) on I/O failure or an
     *         ineligible entry.
     */
    void put(const harness::JournalEntry &entry);

    using RecordLog::close;
    using RecordLog::compact;
    using RecordLog::find;
    using RecordLog::isOpen;
    using RecordLog::path;
    using RecordLog::scrubStats;
    using RecordLog::size;
};

}  // namespace grit::service

#endif  // GRIT_SERVICE_RESULT_STORE_H_
