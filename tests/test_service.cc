/** @file Simulation-service suite: result-store crash safety and
 *  content addressing, fair-share admission, wire-protocol round
 *  trips, deterministic retry backoff, and the daemon core —
 *  execute/cache/dedupe, overload shedding, drain semantics,
 *  deadline salvage, and worker-count invariance. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include "harness/record_frame.h"
#include "harness/run_journal.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/request_queue.h"
#include "service/result_store.h"
#include "service/server.h"
#include "service/socket.h"
#include "simcore/sim_error.h"

namespace grit::service {
namespace {

/** RAII temp file path deleted at scope exit. */
class TempPath
{
  public:
    explicit TempPath(const std::string &name)
        : path_(std::string(::testing::TempDir()) + name)
    {
        std::remove(path_.c_str());
        std::remove((path_ + ".quarantine").c_str());
    }
    ~TempPath()
    {
        std::remove(path_.c_str());
        std::remove((path_ + ".quarantine").c_str());
    }
    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

/** A complete "ok" journal entry, distinct per @p fingerprint. */
harness::JournalEntry
okEntry(const std::string &fingerprint, std::uint64_t cycles)
{
    harness::JournalEntry entry;
    entry.fingerprint = fingerprint;
    entry.row = "GEMM";
    entry.label = "grit";
    entry.status = "ok";
    entry.attempts = 1;
    entry.hasResult = true;
    entry.result.cycles = cycles;
    entry.result.accesses = cycles / 2;
    entry.result.accessesBatched = 3;
    return entry;
}

/** A small, fast run request (the golden-pinned workload scale). */
Request
runRequest(const std::string &client, const std::string &app,
           const std::string &policy)
{
    Request request;
    request.op = "run";
    request.run.client = client;
    request.run.app = app;
    request.run.policy = policy;
    request.run.numGpus = 2;
    request.run.params.numGpus = 2;
    request.run.params.footprintDivisor = 128;
    request.run.params.intensity = 0.2;
    return request;
}

/** Poll @p pred up to ~10 s; true as soon as it holds. */
bool
waitFor(const std::function<bool()> &pred)
{
    for (int waited = 0; waited < 10000; waited += 5) {
        if (pred())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return pred();
}

/** Execution gate: holds every worker at the door until release(). */
struct Gate
{
    std::mutex mutex;
    std::condition_variable cv;
    bool open = false;
    std::atomic<unsigned> arrivals{0};

    void wait()
    {
        arrivals.fetch_add(1);
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [this] { return open; });
    }
    void release()
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            open = true;
        }
        cv.notify_all();
    }
};

// ------------------------------------------------------------ ResultStore

TEST(ResultStore, RoundTripsAndSurvivesReopen)
{
    TempPath path("store_roundtrip.jsonl");
    const harness::JournalEntry a = okEntry("aaaa000011112222", 100);
    const harness::JournalEntry b = okEntry("bbbb000011112222", 200);
    {
        ResultStore store;
        store.open(path.str());
        EXPECT_EQ(store.size(), 0u);
        EXPECT_EQ(store.find(a.fingerprint), nullptr);
        store.put(a);
        store.put(b);
        store.put(a);  // duplicate fingerprint: first record wins
        EXPECT_EQ(store.size(), 2u);
        store.close();
    }
    ResultStore store;
    store.open(path.str());
    EXPECT_EQ(store.size(), 2u);
    const harness::JournalEntry *hitA = store.find(a.fingerprint);
    const harness::JournalEntry *hitB = store.find(b.fingerprint);
    ASSERT_NE(hitA, nullptr);
    ASSERT_NE(hitB, nullptr);
    // Byte-identical round trip through the journal serialization.
    EXPECT_EQ(harness::journalLine(*hitA), harness::journalLine(a));
    EXPECT_EQ(harness::journalLine(*hitB), harness::journalLine(b));
}

TEST(ResultStore, TornTailIsDroppedAndTruncated)
{
    TempPath path("store_torn.jsonl");
    {
        ResultStore store;
        store.open(path.str());
        store.put(okEntry("aaaa000011112222", 100));
        store.put(okEntry("bbbb000011112222", 200));
    }
    std::uintmax_t intactBytes = 0;
    {
        std::ifstream in(path.str(), std::ios::ate | std::ios::binary);
        intactBytes = static_cast<std::uintmax_t>(in.tellg());
    }
    // A kill -9 mid-append leaves an unterminated record fragment.
    {
        std::ofstream out(path.str(),
                          std::ios::app | std::ios::binary);
        out << "{\"fingerprint\":\"cccc0000";
    }
    ResultStore store;
    store.open(path.str());
    EXPECT_EQ(store.size(), 2u);
    EXPECT_EQ(store.find("cccc000011112222"), nullptr);
    // The torn bytes are gone from disk, so a future append can never
    // concatenate onto them.
    std::ifstream in(path.str(), std::ios::ate | std::ios::binary);
    EXPECT_EQ(static_cast<std::uintmax_t>(in.tellg()), intactBytes);
    store.put(okEntry("dddd000011112222", 400));
    ResultStore reopened;
    reopened.open(path.str());
    EXPECT_EQ(reopened.size(), 3u);
}

TEST(ResultStore, RejectsFailuresAndPartials)
{
    TempPath path("store_reject.jsonl");
    ResultStore store;
    store.open(path.str());

    harness::JournalEntry failed = okEntry("aaaa000011112222", 100);
    failed.status = "failed";
    failed.error.emplace(sim::ErrorCode::kDeadline, "budget", "ctx");
    EXPECT_THROW(store.put(failed), sim::SimException);

    harness::JournalEntry partial = okEntry("bbbb000011112222", 200);
    partial.result.partial = true;
    EXPECT_THROW(store.put(partial), sim::SimException);

    EXPECT_EQ(store.size(), 0u);
}

TEST(ResultStore, RefusesForeignFile)
{
    TempPath path("store_foreign.jsonl");
    {
        std::ofstream out(path.str());
        out << "{\"schema\":\"something-else\",\"version\":1}\n";
    }
    ResultStore store;
    EXPECT_THROW(store.open(path.str()), sim::SimException);
}

TEST(ResultStore, CorruptHeaderFailsWithStoreCorrupt)
{
    TempPath path("store_bad_header.jsonl");
    {
        std::ofstream out(path.str(), std::ios::binary);
        out << "not json at all\n";
        out << harness::frameRecord(
                   harness::journalLine(okEntry("aaaa000011112222", 1)))
            << "\n";
    }
    ResultStore store;
    try {
        store.open(path.str());
        FAIL() << "opened a store with a damaged header";
    } catch (const sim::SimException &e) {
        EXPECT_EQ(e.code(), sim::ErrorCode::kStoreCorrupt);
    }
}

TEST(ResultStore, ScrubQuarantinesCorruptRecordAndKeepsTheRest)
{
    TempPath path("store_scrub.jsonl");
    const harness::JournalEntry a = okEntry("aaaa000011112222", 100);
    const harness::JournalEntry b = okEntry("bbbb000011112222", 200);
    const harness::JournalEntry c = okEntry("cccc000011112222", 300);
    {
        ResultStore store;
        store.open(path.str());
        store.put(a);
        store.put(b);
        store.put(c);
    }
    // Flip one payload byte of the SECOND record (file line 3): the
    // CRC must catch it, and — unlike truncate-at-first-bad-byte —
    // record c behind it must survive.
    {
        std::ifstream in(path.str(), std::ios::binary);
        std::vector<std::string> lines;
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
        in.close();
        ASSERT_EQ(lines.size(), 4u);
        lines[2][30] = static_cast<char>(lines[2][30] ^ 0x80);
        std::ofstream out(path.str(),
                          std::ios::binary | std::ios::trunc);
        for (const std::string &l : lines)
            out << l << "\n";
    }
    ResultStore store;
    store.open(path.str());
    EXPECT_EQ(store.size(), 2u);
    EXPECT_NE(store.find(a.fingerprint), nullptr);
    EXPECT_EQ(store.find(b.fingerprint), nullptr);
    EXPECT_NE(store.find(c.fingerprint), nullptr);

    const harness::ScrubStats scrub = store.scrubStats();
    EXPECT_EQ(scrub.scanned, 3u);
    EXPECT_EQ(scrub.valid, 2u);
    EXPECT_EQ(scrub.quarantined, 1u);
    EXPECT_EQ(scrub.truncated, 0u);

    // The damaged raw line is preserved in the sidecar, not destroyed.
    std::ifstream sidecar(path.str() + ".quarantine");
    ASSERT_TRUE(sidecar.is_open());
    std::string preserved;
    ASSERT_TRUE(std::getline(sidecar, preserved));
    EXPECT_EQ(preserved.substr(0, 4), "GF1 ");

    // The quarantined fingerprint can be stored again.
    store.put(b);
    EXPECT_EQ(store.size(), 3u);
}

TEST(ResultStore, SeededBitflipsQuarantineExactlyTheDamage)
{
    TempPath path("store_bitflip.jsonl");
    {
        ResultStore store;
        store.open(path.str());
        for (unsigned i = 0; i < 8; ++i)
            store.put(okEntry("f0000000000000f" + std::to_string(i),
                              100 + i));
    }
    const harness::CorruptionReport report =
        harness::injectBitflips(path.str(), 20260809, 6);
    ASSERT_FALSE(report.damagedLines.empty());

    ResultStore store;
    store.open(path.str());
    const harness::ScrubStats scrub = store.scrubStats();
    EXPECT_EQ(scrub.scanned, 8u);
    EXPECT_EQ(scrub.quarantined, report.damagedLines.size());
    EXPECT_EQ(scrub.valid, 8u - report.damagedLines.size());
    EXPECT_EQ(store.size(), 8u - report.damagedLines.size());
}

TEST(ResultStore, DuplicatesAreFirstWinsAtLoadPutAndCompact)
{
    TempPath path("store_dup.jsonl");
    const harness::JournalEntry first = okEntry("aaaa000011112222", 100);
    const harness::JournalEntry second =
        okEntry("aaaa000011112222", 999);
    {
        ResultStore store;
        store.open(path.str());
        store.put(first);
        // put() is first-wins: the duplicate is not even appended.
        store.put(second);
        EXPECT_EQ(store.size(), 1u);
        EXPECT_EQ(store.find(first.fingerprint)->result.cycles, 100u);
    }
    // Force a duplicate ONTO DISK (e.g. two daemons once raced on the
    // same store file) and reload: load-time indexing is first-wins
    // too, so the fingerprint answers the same record before
    // compaction, after it, and after a reopen.
    {
        std::ofstream out(path.str(),
                          std::ios::binary | std::ios::app);
        out << harness::frameRecord(harness::journalLine(second))
            << "\n";
    }
    ResultStore store;
    store.open(path.str());
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(store.scrubStats().valid, 2u);
    ASSERT_NE(store.find(first.fingerprint), nullptr);
    EXPECT_EQ(store.find(first.fingerprint)->result.cycles, 100u);

    const ResultStore::CompactionStats stats = store.compact();
    EXPECT_EQ(stats.duplicatesDropped, 1u);
    EXPECT_EQ(store.find(first.fingerprint)->result.cycles, 100u);

    ResultStore reopened;
    reopened.open(path.str());
    EXPECT_EQ(reopened.scrubStats().valid, 1u);
    EXPECT_EQ(reopened.find(first.fingerprint)->result.cycles, 100u);
}

TEST(ResultStore, ConcurrentPutsWriteEachFingerprintOnce)
{
    // Daemon workers put concurrently, often the same cell: the
    // first-wins check and the append are one step, so each
    // fingerprint reaches the file exactly once.
    TempPath path("store_concurrent.jsonl");
    constexpr unsigned kThreads = 8;
    constexpr unsigned kCells = 16;
    {
        ResultStore store;
        store.open(path.str());
        std::vector<std::thread> workers;
        for (unsigned t = 0; t < kThreads; ++t)
            workers.emplace_back([&store, t] {
                for (unsigned i = 0; i < kCells; ++i)
                    store.put(okEntry("c0000000000000" +
                                          std::to_string(10 + i),
                                      1000 * t + i));
            });
        for (std::thread &w : workers)
            w.join();
        EXPECT_EQ(store.size(), kCells);
    }
    ResultStore reopened;
    reopened.open(path.str());
    EXPECT_EQ(reopened.size(), kCells);
    EXPECT_EQ(reopened.scrubStats().valid, kCells);
}

TEST(ResultStore, ReadsLegacyUnframedFiles)
{
    TempPath path("store_legacy.jsonl");
    const harness::JournalEntry a = okEntry("aaaa000011112222", 100);
    const harness::JournalEntry b = okEntry("bbbb000011112222", 200);
    {
        // A store written before record framing existed: plain JSONL.
        std::ofstream out(path.str(), std::ios::binary);
        out << "{\"schema\":\"grit-result-store\",\"version\":1}\n"
            << harness::journalLine(a) << "\n"
            << harness::journalLine(b) << "\n";
    }
    ResultStore store;
    store.open(path.str());
    EXPECT_EQ(store.size(), 2u);
    EXPECT_EQ(store.scrubStats().valid, 2u);
    EXPECT_EQ(store.scrubStats().quarantined, 0u);
    EXPECT_EQ(harness::journalLine(*store.find(a.fingerprint)),
              harness::journalLine(a));

    // Compaction upgrades legacy records to framed ones.
    const ResultStore::CompactionStats stats = store.compact();
    EXPECT_EQ(stats.recordsIn, 2u);
    EXPECT_EQ(stats.kept, 2u);
    std::ifstream in(path.str(), std::ios::binary);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));  // header stays plain JSON
    EXPECT_EQ(line.front(), '{');
    while (std::getline(in, line))
        EXPECT_EQ(line.substr(0, 4), "GF1 ");
}

TEST(ResultStore, CompactShedsDuplicatesAndQuarantinedRecords)
{
    TempPath path("store_compact.jsonl");
    const harness::JournalEntry a = okEntry("aaaa000011112222", 100);
    const harness::JournalEntry aDup = okEntry("aaaa000011112222", 999);
    const harness::JournalEntry b = okEntry("bbbb000011112222", 200);
    {
        std::ofstream out(path.str(), std::ios::binary);
        out << "{\"schema\":\"grit-result-store\",\"version\":1}\n"
            << harness::frameRecord(harness::journalLine(a)) << "\n"
            << "GF1 garbage that will not verify\n"
            << harness::frameRecord(harness::journalLine(aDup)) << "\n"
            << harness::frameRecord(harness::journalLine(b)) << "\n";
    }
    ResultStore store;
    store.open(path.str());
    EXPECT_EQ(store.scrubStats().quarantined, 1u);

    const ResultStore::CompactionStats stats = store.compact();
    EXPECT_EQ(stats.recordsIn, 3u);
    EXPECT_EQ(stats.kept, 2u);
    EXPECT_EQ(stats.duplicatesDropped, 1u);
    // Compaction is first-wins over the append order.
    EXPECT_EQ(store.find(a.fingerprint)->result.cycles, 100u);
    EXPECT_NE(store.find(b.fingerprint), nullptr);

    // A reopened compacted store scrubs perfectly clean.
    ResultStore reopened;
    reopened.open(path.str());
    EXPECT_EQ(reopened.size(), 2u);
    const harness::ScrubStats scrub = reopened.scrubStats();
    EXPECT_EQ(scrub.scanned, 2u);
    EXPECT_EQ(scrub.valid, 2u);
    EXPECT_EQ(scrub.quarantined, 0u);
    EXPECT_EQ(scrub.truncated, 0u);

    // The store stays appendable after the fd swap under the rename.
    reopened.put(okEntry("cccc000011112222", 300));
    ResultStore again;
    again.open(path.str());
    EXPECT_EQ(again.size(), 3u);
}

TEST(ResultStore, FailedCompactionLeavesTheLiveStoreIntact)
{
    // `compact` is reachable from the wire in a long-lived daemon, so
    // a failed rewrite (ENOSPC, EPERM, ...) must throw without
    // touching the in-memory state: find/put/size and a retried
    // compact all keep working afterwards.
    TempPath path("store_compact_fail.jsonl");
    const harness::JournalEntry a = okEntry("aaaa000011112222", 100);
    const harness::JournalEntry aDup = okEntry("aaaa000011112222", 999);
    const harness::JournalEntry b = okEntry("bbbb000011112222", 200);
    {
        std::ofstream out(path.str(), std::ios::binary);
        out << "{\"schema\":\"grit-result-store\",\"version\":1}\n"
            << harness::frameRecord(harness::journalLine(a)) << "\n"
            << harness::frameRecord(harness::journalLine(aDup)) << "\n"
            << harness::frameRecord(harness::journalLine(b)) << "\n";
    }
    ResultStore store;
    store.open(path.str());
    EXPECT_EQ(store.size(), 2u);

    // Squat on the temp path with a directory: the rewrite cannot even
    // create its temp file and must fail before any cutover.
    const std::string tempPath = path.str() + ".compact";
    ASSERT_EQ(::mkdir(tempPath.c_str(), 0755), 0);
    EXPECT_THROW(store.compact(), sim::SimException);
    ASSERT_EQ(::rmdir(tempPath.c_str()), 0);

    // Everything still works: lookups, appends, and a retried compact.
    EXPECT_EQ(store.size(), 2u);
    ASSERT_NE(store.find(a.fingerprint), nullptr);
    EXPECT_EQ(store.find(a.fingerprint)->result.cycles, 100u);
    store.put(okEntry("cccc000011112222", 300));
    const ResultStore::CompactionStats stats = store.compact();
    EXPECT_EQ(stats.recordsIn, 4u);
    EXPECT_EQ(stats.kept, 3u);
    EXPECT_EQ(stats.duplicatesDropped, 1u);
    EXPECT_EQ(store.find(a.fingerprint)->result.cycles, 100u);

    ResultStore reopened;
    reopened.open(path.str());
    EXPECT_EQ(reopened.size(), 3u);
    EXPECT_EQ(reopened.scrubStats().quarantined, 0u);
}

// --------------------------------------------------------- FairShareQueue

TEST(FairShareQueue, RoundRobinAcrossClients)
{
    FairShareQueue queue(16);
    EXPECT_EQ(queue.push("c1", 1), Admission::kAdmitted);
    EXPECT_EQ(queue.push("c1", 2), Admission::kAdmitted);
    EXPECT_EQ(queue.push("c1", 3), Admission::kAdmitted);
    EXPECT_EQ(queue.push("c2", 4), Admission::kAdmitted);
    EXPECT_EQ(queue.push("c3", 5), Admission::kAdmitted);
    queue.close();  // so pop() cannot block
    // One turn per client per round — c1's backlog cannot starve
    // c2/c3 even though it was queued first.
    EXPECT_EQ(queue.pop(), std::optional<std::uint64_t>(1));
    EXPECT_EQ(queue.pop(), std::optional<std::uint64_t>(4));
    EXPECT_EQ(queue.pop(), std::optional<std::uint64_t>(5));
    EXPECT_EQ(queue.pop(), std::optional<std::uint64_t>(2));
    EXPECT_EQ(queue.pop(), std::optional<std::uint64_t>(3));
    EXPECT_EQ(queue.pop(), std::nullopt);
}

TEST(FairShareQueue, BoundedPushSheds)
{
    FairShareQueue queue(2);
    EXPECT_EQ(queue.push("c1", 1), Admission::kAdmitted);
    EXPECT_EQ(queue.push("c2", 2), Admission::kAdmitted);
    EXPECT_EQ(queue.push("c3", 3), Admission::kFull);
    EXPECT_EQ(queue.size(), 2u);
    queue.close();
    EXPECT_EQ(queue.pop(), std::optional<std::uint64_t>(1));
    EXPECT_EQ(queue.push("c3", 3), Admission::kClosed);
}

TEST(FairShareQueue, CloseDrainsThenReportsExhaustion)
{
    FairShareQueue queue(4);
    queue.push("c1", 7);
    queue.close();
    EXPECT_TRUE(queue.closed());
    EXPECT_EQ(queue.push("c1", 8), Admission::kClosed);
    EXPECT_EQ(queue.pop(), std::optional<std::uint64_t>(7));
    EXPECT_EQ(queue.pop(), std::nullopt);
    EXPECT_EQ(queue.pop(), std::nullopt);
}

TEST(FairShareQueue, PopBlocksUntilPush)
{
    FairShareQueue queue(4);
    std::optional<std::uint64_t> got;
    std::thread consumer([&] { got = queue.pop(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(queue.push("c1", 42), Admission::kAdmitted);
    consumer.join();
    EXPECT_EQ(got, std::optional<std::uint64_t>(42));
}

// --------------------------------------------------------------- protocol

TEST(ServiceProtocol, RequestLineRoundTrips)
{
    Request request = runRequest("alice", "BFS", "grit");
    request.run.deadlineSec = 2.5;
    request.run.eventBudget = 12345;
    request.run.chaos = "hang:at=1000";
    request.run.audit = true;
    const Request back = requestFromLine(requestLine(request));
    EXPECT_EQ(back.op, "run");
    EXPECT_EQ(back.run.client, "alice");
    EXPECT_EQ(back.run.app, "BFS");
    EXPECT_EQ(back.run.policy, "grit");
    EXPECT_EQ(back.run.numGpus, 2u);
    EXPECT_EQ(back.run.params, request.run.params);
    EXPECT_EQ(back.run.deadlineSec, 2.5);
    EXPECT_EQ(back.run.eventBudget, 12345u);
    EXPECT_EQ(back.run.chaos, "hang:at=1000");
    EXPECT_TRUE(back.run.audit);
    // Re-serialization is byte-stable (wire lines are comparable).
    EXPECT_EQ(requestLine(back), requestLine(request));
}

TEST(ServiceProtocol, ResponseLineRoundTripsEntryAndError)
{
    Response ok;
    ok.status = "ok";
    ok.cached = true;
    ok.persisted = true;
    ok.entry = okEntry("aaaa000011112222", 100);
    const Response okBack = responseFromLine(responseLine(ok));
    EXPECT_EQ(okBack.status, "ok");
    EXPECT_TRUE(okBack.cached);
    EXPECT_FALSE(okBack.deduped);
    EXPECT_TRUE(okBack.persisted);
    ASSERT_TRUE(okBack.entry.has_value());
    EXPECT_EQ(harness::journalLine(*okBack.entry),
              harness::journalLine(*ok.entry));

    Response refused;
    refused.status = "error";
    refused.error = sim::SimError(sim::ErrorCode::kServiceOverloaded,
                                  "queue full", "grit-service");
    const Response errBack = responseFromLine(responseLine(refused));
    EXPECT_EQ(errBack.status, "error");
    ASSERT_TRUE(errBack.error.has_value());
    EXPECT_EQ(errBack.error->code, sim::ErrorCode::kServiceOverloaded);
    EXPECT_FALSE(errBack.persisted);

    // A line without the persisted key (a pre-flag daemon) parses
    // leniently to false rather than failing.
    const Response legacy = responseFromLine(
        "{\"schema\":\"grit-service\",\"version\":1,"
        "\"status\":\"ok\",\"cached\":true,\"deduped\":false}");
    EXPECT_TRUE(legacy.cached);
    EXPECT_FALSE(legacy.persisted);

    Response stats;
    stats.status = "ok";
    ServiceCounters counters;
    counters.requests = 9;
    counters.hits = 4;
    counters.storeEntries = 2;
    stats.service = counters;
    const Response statsBack = responseFromLine(responseLine(stats));
    ASSERT_TRUE(statsBack.service.has_value());
    EXPECT_EQ(statsBack.service->requests, 9u);
    EXPECT_EQ(statsBack.service->hits, 4u);
    EXPECT_EQ(statsBack.service->storeEntries, 2u);
}

TEST(ServiceProtocol, MalformedLinesAreStructuredErrors)
{
    const std::vector<std::string> bad = {
        "",
        "not json",
        "[1,2,3]",
        "{\"schema\":\"grit-service\",\"version\":1}",  // no op
        "{\"schema\":\"nope\",\"version\":1,\"op\":\"ping\"}",
        "{\"schema\":\"grit-service\",\"version\":99,\"op\":\"ping\"}",
        "{\"schema\":\"grit-service\",\"version\":1,\"op\":\"dance\"}",
    };
    for (const std::string &line : bad) {
        try {
            (void)requestFromLine(line);
            FAIL() << "accepted: " << line;
        } catch (const sim::SimException &e) {
            EXPECT_EQ(e.code(), sim::ErrorCode::kBadArgument) << line;
        }
    }
    EXPECT_THROW((void)responseFromLine("not json"), sim::SimException);
}

TEST(ServiceProtocol, CellFromRequestValidatesAndFingerprints)
{
    Request good = runRequest("c", "GEMM", "grit");
    const harness::RunCell cell = cellFromRequest(good.run);
    EXPECT_EQ(cell.row, "GEMM");
    EXPECT_EQ(cell.label, "grit");
    const std::string fingerprint = harness::runFingerprint(cell);
    EXPECT_EQ(fingerprint.size(), 16u);

    // Resilience knobs are not part of the content address: a cached
    // complete result satisfies any deadline.
    Request tight = good;
    tight.run.deadlineSec = 0.001;
    tight.run.eventBudget = 1;
    EXPECT_EQ(harness::runFingerprint(cellFromRequest(tight.run)),
              fingerprint);

    // Chaos IS fingerprinted — a fault-injected run is a different cell.
    Request chaotic = good;
    chaotic.run.chaos = "hang:at=1000";
    EXPECT_NE(harness::runFingerprint(cellFromRequest(chaotic.run)),
              fingerprint);

    Request badApp = runRequest("c", "NOPE", "grit");
    EXPECT_THROW((void)cellFromRequest(badApp.run), sim::SimException);
    Request badPolicy = runRequest("c", "GEMM", "not-a-policy");
    EXPECT_THROW((void)cellFromRequest(badPolicy.run), sim::SimException);
    Request badGpus = runRequest("c", "GEMM", "grit");
    badGpus.run.numGpus = 0;
    EXPECT_THROW((void)cellFromRequest(badGpus.run), sim::SimException);
}

// ---------------------------------------------------------------- backoff

TEST(Backoff, DeterministicDoublingWithCap)
{
    // Same (key, attempt) → same delay, always within
    // [nominal/2, nominal] where nominal = base * 2^(attempt-1), cap.
    for (unsigned attempt = 1; attempt <= 12; ++attempt) {
        const std::uint64_t a = backoffDelayMs("k1", attempt, 50, 2000);
        const std::uint64_t b = backoffDelayMs("k1", attempt, 50, 2000);
        EXPECT_EQ(a, b);
        std::uint64_t nominal = 50;
        for (unsigned i = 1; i < attempt && nominal < 2000; ++i)
            nominal *= 2;
        if (nominal > 2000)
            nominal = 2000;
        EXPECT_GE(a, nominal / 2) << "attempt " << attempt;
        EXPECT_LE(a, nominal) << "attempt " << attempt;
    }
    // Late attempts saturate at the cap's jitter band.
    EXPECT_LE(backoffDelayMs("k1", 40, 50, 2000), 2000u);
    EXPECT_GE(backoffDelayMs("k1", 40, 50, 2000), 1000u);
}

// ------------------------------------------------------------- the daemon

TEST(ServiceServer, ExecutesThenServesFromStore)
{
    TempPath store("server_store.jsonl");
    Server::Options options;
    options.storePath = store.str();
    options.workers = 2;
    Server server(std::move(options));
    server.start();

    const Request request = runRequest("alice", "BFS", "on-touch");
    const Response first = server.handle(request);
    ASSERT_EQ(first.status, "ok");
    EXPECT_FALSE(first.cached);
    EXPECT_FALSE(first.deduped);
    EXPECT_TRUE(first.persisted);  // appended + fsync'd before the ack
    ASSERT_TRUE(first.entry.has_value());
    EXPECT_EQ(first.entry->status, "ok");
    EXPECT_TRUE(first.entry->hasResult);
    EXPECT_GT(first.entry->result.cycles, 0u);

    const Response second = server.handle(request);
    ASSERT_EQ(second.status, "ok");
    EXPECT_TRUE(second.cached);
    EXPECT_TRUE(second.persisted);
    ASSERT_TRUE(second.entry.has_value());
    EXPECT_EQ(harness::journalLine(*second.entry),
              harness::journalLine(*first.entry));

    const ServiceCounters counters = server.counters();
    EXPECT_EQ(counters.requests, 2u);
    EXPECT_EQ(counters.hits, 1u);
    EXPECT_EQ(counters.misses, 1u);
    EXPECT_EQ(counters.executed, 1u);
    EXPECT_EQ(counters.failures, 0u);
    EXPECT_EQ(counters.storeEntries, 1u);
    server.stop();

    // A restarted server — as after a kill -9 — reloads the fsync'd
    // store and serves the same bytes without re-executing.
    Server::Options reopened;
    reopened.storePath = store.str();
    Server restarted(std::move(reopened));
    restarted.start();
    EXPECT_EQ(restarted.counters().storeEntries, 1u);
    const Response warm = restarted.handle(request);
    ASSERT_EQ(warm.status, "ok");
    EXPECT_TRUE(warm.cached);
    ASSERT_TRUE(warm.entry.has_value());
    EXPECT_EQ(harness::journalLine(*warm.entry),
              harness::journalLine(*first.entry));
    EXPECT_EQ(restarted.counters().executed, 0u);
    restarted.stop();
}

TEST(ServiceServer, DedupesInflightIdenticalCells)
{
    Gate gate;
    Server::Options options;
    options.workers = 2;
    options.executionGate = [&gate](const std::string &) { gate.wait(); };
    Server server(std::move(options));
    server.start();

    const Request request = runRequest("alice", "GEMM", "on-touch");
    Response first, second;
    std::thread a([&] { first = server.handle(request); });
    ASSERT_TRUE(waitFor([&] { return gate.arrivals.load() == 1; }));
    std::thread b([&] { second = server.handle(request); });
    // The second request must attach to the held execution, not queue
    // a second one.
    ASSERT_TRUE(
        waitFor([&] { return server.counters().deduped == 1; }));
    gate.release();
    a.join();
    b.join();

    EXPECT_EQ(first.status, "ok");
    EXPECT_EQ(second.status, "ok");
    EXPECT_TRUE(first.deduped != second.deduped);  // exactly one attached
    // No --store on this server: both clients must see that their
    // result is not durable anywhere.
    EXPECT_FALSE(first.persisted);
    EXPECT_FALSE(second.persisted);
    ASSERT_TRUE(first.entry.has_value());
    ASSERT_TRUE(second.entry.has_value());
    EXPECT_EQ(harness::journalLine(*first.entry),
              harness::journalLine(*second.entry));

    const ServiceCounters counters = server.counters();
    EXPECT_EQ(counters.requests, 2u);
    EXPECT_EQ(counters.misses, 1u);
    EXPECT_EQ(counters.deduped, 1u);
    EXPECT_EQ(counters.executed, 1u);  // the cell ran exactly once
    server.stop();
}

TEST(ServiceServer, MismatchedBudgetsDoNotShareAnExecution)
{
    Gate gate;
    Server::Options options;
    options.workers = 2;
    options.executionGate = [&gate](const std::string &) { gate.wait(); };
    Server server(std::move(options));
    server.start();

    // Same cell, different resilience constraints. The second request
    // must NOT attach to the first execution: the budget it asked for
    // would not be the one enforced, so an attached waiter could be
    // handed an outcome its own constraints would never produce.
    Request unbounded = runRequest("alice", "GEMM", "on-touch");
    Request budgeted = unbounded;
    budgeted.run.eventBudget = 50000000;  // generous: still completes

    Response first, second;
    std::thread a([&] { first = server.handle(unbounded); });
    ASSERT_TRUE(waitFor([&] { return gate.arrivals.load() == 1; }));
    std::thread b([&] { second = server.handle(budgeted); });
    // A second arrival at the gate proves a second execution started.
    ASSERT_TRUE(waitFor([&] { return gate.arrivals.load() == 2; }));
    gate.release();
    a.join();
    b.join();

    EXPECT_EQ(first.status, "ok");
    EXPECT_EQ(second.status, "ok");
    EXPECT_FALSE(first.deduped);
    EXPECT_FALSE(second.deduped);
    // The deterministic engine converges: both runs complete, so both
    // return the same bytes even though they executed separately.
    ASSERT_TRUE(first.entry.has_value());
    ASSERT_TRUE(second.entry.has_value());
    EXPECT_EQ(harness::journalLine(*first.entry),
              harness::journalLine(*second.entry));

    const ServiceCounters counters = server.counters();
    EXPECT_EQ(counters.requests, 2u);
    EXPECT_EQ(counters.misses, 2u);
    EXPECT_EQ(counters.deduped, 0u);
    EXPECT_EQ(counters.executed, 2u);
    server.stop();
}

TEST(ServiceServer, ShedsWithStructuredErrorWhenQueueFull)
{
    Gate gate;
    Server::Options options;
    options.workers = 1;
    options.queueCapacity = 1;
    options.executionGate = [&gate](const std::string &) { gate.wait(); };
    Server server(std::move(options));
    server.start();

    // First cell occupies the only worker (held at the gate); second
    // fills the queue; the third must be shed, not hung.
    Response first, second;
    std::thread a(
        [&] { first = server.handle(runRequest("a", "BFS", "on-touch")); });
    ASSERT_TRUE(waitFor([&] { return gate.arrivals.load() == 1; }));
    std::thread b(
        [&] { second = server.handle(runRequest("b", "BFS", "grit")); });
    ASSERT_TRUE(waitFor([&] { return server.counters().misses == 2; }));

    const Response shed = server.handle(runRequest("c", "GEMM", "grit"));
    EXPECT_EQ(shed.status, "error");
    ASSERT_TRUE(shed.error.has_value());
    EXPECT_EQ(shed.error->code, sim::ErrorCode::kServiceOverloaded);
    EXPECT_EQ(server.counters().rejectedOverload, 1u);

    gate.release();
    a.join();
    b.join();
    EXPECT_EQ(first.status, "ok");
    EXPECT_EQ(second.status, "ok");
    server.stop();
}

TEST(ServiceServer, DrainingRefusesMissesButServesStoreHits)
{
    TempPath store("server_drain.jsonl");
    Server::Options options;
    options.storePath = store.str();
    Server server(std::move(options));
    server.start();

    const Request cached = runRequest("alice", "BFS", "on-touch");
    const Response executed = server.handle(cached);
    ASSERT_EQ(executed.status, "ok");

    server.beginDrain();
    EXPECT_TRUE(server.draining());

    // A stored result costs no execution, so drain still serves it.
    const Response hit = server.handle(cached);
    EXPECT_EQ(hit.status, "ok");
    EXPECT_TRUE(hit.cached);

    const Response refused =
        server.handle(runRequest("alice", "GEMM", "grit"));
    EXPECT_EQ(refused.status, "error");
    ASSERT_TRUE(refused.error.has_value());
    EXPECT_EQ(refused.error->code, sim::ErrorCode::kServiceDraining);
    EXPECT_EQ(server.counters().rejectedDraining, 1u);
    server.stop();
}

TEST(ServiceServer, DeadlineFailureSalvagesPartialAndIsNotCached)
{
    TempPath store("server_deadline.jsonl");
    Server::Options options;
    options.storePath = store.str();
    Server server(std::move(options));
    server.start();

    // A livelocked cell under an event budget: the watchdog quarantines
    // it as kDeadline with salvaged partial counters (grit-results v2).
    // The budget must undercut the engine's own safety valve
    // (16 * (accesses + 1024)) so it is the binding limit.
    Request hung = runRequest("alice", "GEMM", "on-touch");
    hung.run.chaos = "hang:at=1000";
    hung.run.eventBudget = 10000;
    const Response response = server.handle(hung);
    EXPECT_EQ(response.status, "failed");
    ASSERT_TRUE(response.entry.has_value());
    EXPECT_EQ(response.entry->status, "failed");
    ASSERT_TRUE(response.entry->error.has_value());
    EXPECT_EQ(response.entry->error->code, sim::ErrorCode::kDeadline);
    EXPECT_TRUE(response.entry->hasResult);
    EXPECT_TRUE(response.entry->result.partial);

    // Failures must never poison the cache: re-requesting re-executes.
    const ServiceCounters counters = server.counters();
    EXPECT_EQ(counters.failures, 1u);
    EXPECT_EQ(counters.storeEntries, 0u);
    const Response again = server.handle(hung);
    EXPECT_EQ(again.status, "failed");
    EXPECT_FALSE(again.cached);
    EXPECT_EQ(server.counters().executed, 2u);
    server.stop();
}

TEST(ServiceServer, ResultsInvariantUnderWorkerCount)
{
    const std::vector<std::pair<std::string, std::string>> cells = {
        {"BFS", "on-touch"},
        {"BFS", "grit"},
        {"GEMM", "on-touch"},
        {"GEMM", "grit"},
    };
    // Execute the same four cells on a 1-worker and a 4-worker server;
    // every entry must serialize byte-identically.
    std::map<std::string, std::string> lines1, lines4;
    for (const unsigned workers : {1u, 4u}) {
        Server::Options options;
        options.workers = workers;
        Server server(std::move(options));
        server.start();
        std::vector<Response> responses(cells.size());
        std::vector<std::thread> threads;
        for (std::size_t i = 0; i < cells.size(); ++i)
            threads.emplace_back([&, i] {
                responses[i] = server.handle(runRequest(
                    "c" + std::to_string(i), cells[i].first,
                    cells[i].second));
            });
        for (std::thread &t : threads)
            t.join();
        auto &lines = workers == 1 ? lines1 : lines4;
        for (const Response &response : responses) {
            ASSERT_EQ(response.status, "ok");
            ASSERT_TRUE(response.entry.has_value());
            lines[response.entry->fingerprint] =
                harness::journalLine(*response.entry);
        }
        server.stop();
    }
    EXPECT_EQ(lines1.size(), cells.size());
    EXPECT_EQ(lines1, lines4);
}

TEST(ServiceServer, SocketRoundTripWithClient)
{
    TempPath socket("svc_test.sock");
    TempPath store("svc_test_store.jsonl");
    Server::Options options;
    options.socketPath = socket.str();
    options.storePath = store.str();
    options.workers = 2;
    Server server(std::move(options));
    server.start();

    Client::Options clientOptions;
    clientOptions.socketPath = socket.str();
    Client client(clientOptions);

    Request ping;
    ping.op = "ping";
    EXPECT_EQ(client.submit(ping).status, "ok");

    const Response run =
        client.submit(runRequest("alice", "BFS", "on-touch"));
    ASSERT_EQ(run.status, "ok");
    ASSERT_TRUE(run.entry.has_value());
    EXPECT_TRUE(run.entry->hasResult);

    Request stats;
    stats.op = "stats";
    const Response counters = client.submit(stats);
    ASSERT_TRUE(counters.service.has_value());
    EXPECT_EQ(counters.service->requests, 1u);
    EXPECT_EQ(counters.service->executed, 1u);
    EXPECT_EQ(counters.service->storeEntries, 1u);
    server.stop();

    // With the daemon gone, the client fails structurally, fast.
    Client::Options deadOptions;
    deadOptions.socketPath = socket.str();
    deadOptions.retries = 1;
    deadOptions.backoffBaseMs = 1;
    Client dead(deadOptions);
    try {
        (void)dead.submit(ping);
        FAIL() << "submit to a stopped daemon succeeded";
    } catch (const sim::SimException &e) {
        EXPECT_EQ(e.code(), sim::ErrorCode::kInternal);
    }
}

// -------------------------------------------------------- new wire ops

TEST(ServiceProtocol, PingAndCompactOpsRoundTrip)
{
    for (const std::string op : {"ping", "stats", "compact"}) {
        Request request;
        request.op = op;
        const Request parsed = requestFromLine(requestLine(request));
        EXPECT_EQ(parsed.op, op);
    }

    Response pong;
    pong.status = "ok";
    pong.ping = PingInfo{"grit_serve/test", true};
    const Response parsed = responseFromLine(responseLine(pong));
    EXPECT_EQ(parsed.status, "ok");
    ASSERT_TRUE(parsed.ping.has_value());
    EXPECT_EQ(parsed.ping->version, "grit_serve/test");
    EXPECT_TRUE(parsed.ping->draining);
}

TEST(ServiceProtocol, ScrubCountersRoundTripOnTheWire)
{
    Response stats;
    stats.status = "ok";
    ServiceCounters c;
    c.requests = 7;
    c.storeEntries = 3;
    c.storeScanned = 5;
    c.storeValid = 3;
    c.storeQuarantined = 2;
    c.storeTruncated = 1;
    stats.service = c;
    const Response parsed = responseFromLine(responseLine(stats));
    ASSERT_TRUE(parsed.service.has_value());
    EXPECT_EQ(parsed.service->storeScanned, 5u);
    EXPECT_EQ(parsed.service->storeValid, 3u);
    EXPECT_EQ(parsed.service->storeQuarantined, 2u);
    EXPECT_EQ(parsed.service->storeTruncated, 1u);
}

TEST(ServiceServer, PingReportsVersionAndDrainState)
{
    Server::Options options;
    Server server(std::move(options));
    server.start();

    Request ping;
    ping.op = "ping";
    Response response = server.handle(ping);
    ASSERT_EQ(response.status, "ok");
    ASSERT_TRUE(response.ping.has_value());
    EXPECT_EQ(response.ping->version, Server::kVersion);
    EXPECT_FALSE(response.ping->draining);

    server.beginDrain();
    response = server.handle(ping);
    ASSERT_TRUE(response.ping.has_value());
    EXPECT_TRUE(response.ping->draining);
    server.stop();
}

TEST(ServiceServer, CompactVerbRewritesTheStore)
{
    TempPath store("svc_compact_store.jsonl");
    {
        // Seed the store with one valid and one corrupt record.
        std::ofstream out(store.str(), std::ios::binary);
        out << "{\"schema\":\"grit-result-store\",\"version\":1}\n"
            << harness::frameRecord(
                   harness::journalLine(okEntry("aaaa000011112222", 7)))
            << "\nGF1 broken beyond recognition!!\n";
    }
    Server::Options options;
    options.storePath = store.str();
    Server server(std::move(options));
    server.start();

    Request compact;
    compact.op = "compact";
    const Response response = server.handle(compact);
    ASSERT_EQ(response.status, "ok");
    ASSERT_TRUE(response.service.has_value());
    EXPECT_EQ(response.service->storeEntries, 1u);
    EXPECT_EQ(response.service->storeQuarantined, 1u);
    server.stop();

    // On disk: header + exactly the one valid record, scrubbing clean.
    ResultStore reopened;
    reopened.open(store.str());
    EXPECT_EQ(reopened.size(), 1u);
    EXPECT_EQ(reopened.scrubStats().scanned, 1u);
    EXPECT_EQ(reopened.scrubStats().quarantined, 0u);
}

TEST(ServiceServer, CompactWithoutStoreIsStructuredError)
{
    Server::Options options;
    Server server(std::move(options));
    server.start();
    Request compact;
    compact.op = "compact";
    const Response response = server.handle(compact);
    ASSERT_EQ(response.status, "error");
    ASSERT_TRUE(response.error.has_value());
    EXPECT_EQ(response.error->code, sim::ErrorCode::kBadArgument);
    server.stop();
}

TEST(ServiceServer, OversizedLineGetsStructuredErrorAndConnectionLives)
{
    TempPath socket("svc_maxline.sock");
    Server::Options options;
    options.socketPath = socket.str();
    options.maxLineBytes = 256;
    Server server(std::move(options));
    server.start();

    const int fd = connectUnix(socket.str());
    ASSERT_GE(fd, 0);

    // An over-limit line (even with no newline yet at the limit) is
    // answered with bad-argument, never buffered unboundedly.
    ASSERT_TRUE(writeLine(fd, std::string(4096, 'x')));
    std::string line;
    ASSERT_TRUE(readLine(fd, line));
    const Response refused = responseFromLine(line);
    ASSERT_EQ(refused.status, "error");
    ASSERT_TRUE(refused.error.has_value());
    EXPECT_EQ(refused.error->code, sim::ErrorCode::kBadArgument);

    // The same connection still serves the next (well-formed) request.
    Request ping;
    ping.op = "ping";
    ASSERT_TRUE(writeLine(fd, requestLine(ping)));
    ASSERT_TRUE(readLine(fd, line));
    EXPECT_EQ(responseFromLine(line).status, "ok");

    ::close(fd);
    server.stop();

    const ServiceCounters counters = server.counters();
    EXPECT_EQ(counters.badRequests, 1u);
}

TEST(LineReader, BoundsLinesAndResyncsAfterOverflow)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const std::string stream = "short\n" + std::string(64, 'y') +
                               "\nnext\nlast";
    ASSERT_TRUE(writeAll(fds[0], stream));
    ::shutdown(fds[0], SHUT_WR);

    LineReader reader(fds[1]);
    std::string line;
    EXPECT_EQ(reader.next(line, 16), LineReader::Status::kLine);
    EXPECT_EQ(line, "short");
    // The 64-byte line overflows the 16-byte ceiling, is discarded to
    // its newline, and the reader resynchronizes on the next line.
    EXPECT_EQ(reader.next(line, 16), LineReader::Status::kTooLong);
    EXPECT_EQ(reader.next(line, 16), LineReader::Status::kLine);
    EXPECT_EQ(line, "next");
    // "last" has no newline: EOF, not a line.
    EXPECT_EQ(reader.next(line, 16), LineReader::Status::kEof);

    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(LineReader, PipelinedRequestsInOneChunk)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ASSERT_TRUE(writeAll(fds[0], "a\nb\nc\n"));
    ::shutdown(fds[0], SHUT_WR);

    LineReader reader(fds[1]);
    std::string line;
    std::vector<std::string> lines;
    while (reader.next(line, 1024) == LineReader::Status::kLine)
        lines.push_back(line);
    EXPECT_EQ(lines, (std::vector<std::string>{"a", "b", "c"}));

    ::close(fds[0]);
    ::close(fds[1]);
}

}  // namespace
}  // namespace grit::service
