/** @file Resilient-sweep suite: run-journal round trips, crash-safe
 *  resume bit-identity, watchdog deadlines and event budgets, hung-cell
 *  quarantine with partial-result salvage, cooperative cancellation,
 *  and the byte-budgeted LRU trace cache. */

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "harness/experiment.h"
#include "harness/experiment_engine.h"
#include "harness/run_journal.h"
#include "harness/simulator.h"
#include "simcore/sim_error.h"
#include "stats/json_value.h"
#include "stats/json_writer.h"
#include "workload/apps.h"
#include "workload/trace_cache.h"

namespace grit::harness {
namespace {

/** Small fast workload parameters. */
workload::WorkloadParams
fastParams()
{
    workload::WorkloadParams params;
    params.footprintDivisor = 64;
    params.intensity = 0.25;
    return params;
}

/** A 2-app x 2-config plan small enough for every test to sweep. */
RunPlan
smallPlan()
{
    const std::vector<LabeledConfig> configs = {
        {"on-touch", makeConfig(PolicyKind::kOnTouch, 4)},
        {"grit", makeConfig(PolicyKind::kGrit, 4)},
    };
    return RunPlan::matrix({workload::AppId::kGemm, workload::AppId::kSt},
                           configs, fastParams());
}

/** Full field-wise RunResult comparison, including the new fields. */
void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.localFaults, b.localFaults);
    EXPECT_EQ(a.protectionFaults, b.protectionFaults);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.peakReplicas, b.peakReplicas);
    EXPECT_EQ(a.schemeAccesses, b.schemeAccesses);
    for (unsigned k = 0; k < stats::kLatencyKinds; ++k) {
        const auto kind = static_cast<stats::LatencyKind>(k);
        EXPECT_EQ(a.breakdown.get(kind), b.breakdown.get(kind));
    }
    EXPECT_EQ(a.counters, b.counters);
    EXPECT_EQ(a.auditFindings, b.auditFindings);
    EXPECT_EQ(a.partial, b.partial);
    ASSERT_EQ(a.error.has_value(), b.error.has_value());
    if (a.error.has_value()) {
        EXPECT_EQ(a.error->str(), b.error->str());
    }
    ASSERT_EQ(a.timeline.has_value(), b.timeline.has_value());
    if (a.timeline.has_value()) {
        EXPECT_EQ(a.timeline->intervalCycles(),
                  b.timeline->intervalCycles());
        EXPECT_EQ(a.timeline->keys(), b.timeline->keys());
        ASSERT_EQ(a.timeline->intervals(), b.timeline->intervals());
        for (std::size_t i = 0; i < a.timeline->intervals(); ++i)
            for (unsigned k = 0; k < a.timeline->keys(); ++k)
                EXPECT_EQ(a.timeline->get(i, k), b.timeline->get(i, k))
                    << "interval " << i << " key " << k;
    }
}

void
expectSameMatrix(const ResultMatrix &a, const ResultMatrix &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (const auto &[row, runs] : a) {
        ASSERT_TRUE(b.count(row)) << row;
        ASSERT_EQ(runs.size(), b.at(row).size()) << row;
        for (const auto &[label, result] : runs) {
            SCOPED_TRACE(row + "/" + label);
            ASSERT_TRUE(b.at(row).count(label));
            expectSameResult(result, b.at(row).at(label));
        }
    }
}

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

// ----------------------------------------------------------- fingerprints

TEST(RunFingerprint, DigestIgnoresResilienceKnobsOnly)
{
    SystemConfig base = makeConfig(PolicyKind::kGrit, 4);
    const std::uint64_t digest = configDigest(base);
    EXPECT_EQ(digest, configDigest(base));  // deterministic

    // The watchdog/cancel knobs must NOT perturb the digest: resuming
    // with a different --deadline still matches journaled fingerprints.
    SystemConfig tweaked = base;
    tweaked.wallDeadlineSec = 12.5;
    tweaked.eventBudget = 99999;
    static std::atomic<int> flag{0};
    tweaked.cancelFlag = &flag;
    EXPECT_EQ(digest, configDigest(tweaked));

    // Everything else must.
    SystemConfig policy = makeConfig(PolicyKind::kOnTouch, 4);
    EXPECT_NE(digest, configDigest(policy));
    SystemConfig gpus = makeConfig(PolicyKind::kGrit, 8);
    EXPECT_NE(digest, configDigest(gpus));
    SystemConfig chaos = base;
    chaos.chaos = sim::ChaosSpec::parse("hang:at=100");
    EXPECT_NE(digest, configDigest(chaos));
}

TEST(RunFingerprint, DefaultDigestsArePinned)
{
    // Journals and result stores persist these digests: a change to
    // what configDigest hashes orphans every one of them.
    EXPECT_EQ(configDigest(makeConfig(PolicyKind::kGrit, 4)),
              0xb4a6cde5b7f7b486ull);
    EXPECT_EQ(configDigest(makeConfig(PolicyKind::kOnTouch, 4)),
              0xa3b7fa353350b39bull);
}

TEST(RunFingerprint, CoversWorkloadIdentityAndParams)
{
    const RunPlan plan = smallPlan();
    const auto &cells = plan.cells();
    std::vector<std::string> prints;
    for (const RunCell &cell : cells) {
        const std::string fp = runFingerprint(cell);
        EXPECT_EQ(fp.size(), 16u);
        EXPECT_EQ(fp, runFingerprint(cell));  // stable
        for (const std::string &other : prints)
            EXPECT_NE(fp, other);  // unique across the plan
        prints.push_back(fp);
    }

    RunCell tweaked = cells[0];
    tweaked.params.intensity = 0.5;
    EXPECT_NE(runFingerprint(tweaked), prints[0]);
}

// ------------------------------------------------------- JSON round trips

TEST(RunJournalFormat, RunResultRoundTripsLosslessly)
{
    // A real run with timeline enabled exercises every serialized field.
    SystemConfig config = makeConfig(PolicyKind::kGrit, 4);
    config.timelineIntervalCycles = 512;
    RunPlan plan;
    plan.addCell("GEMM", "grit", config, workload::AppId::kGemm,
                 fastParams());
    ExperimentEngine engine;
    RunResult result =
        engine.run(plan).at("GEMM").at("grit");
    ASSERT_TRUE(result.timeline.has_value());
    result.partial = true;
    result.error.emplace(sim::ErrorCode::kDeadline, "budget exhausted",
                         "workload GEMM");

    std::ostringstream os;
    stats::JsonWriter w(os);
    writeRunResultJson(w, result);
    const RunResult back =
        runResultFromJson(stats::JsonValue::parse(os.str()));
    expectSameResult(result, back);
}

TEST(RunJournalFormat, EntryLineRoundTripsOkAndFailed)
{
    JournalEntry ok;
    ok.fingerprint = "00deadbeef001234";
    ok.row = "GEMM";
    ok.label = "grit";
    ok.status = "ok";
    ok.attempts = 1;
    ok.hasResult = true;
    ok.result.cycles = 42;
    ok.result.counters = {{"uvm.faults", 7}};

    const JournalEntry backOk = journalEntryFromLine(journalLine(ok));
    EXPECT_EQ(backOk.fingerprint, ok.fingerprint);
    EXPECT_EQ(backOk.status, "ok");
    EXPECT_TRUE(backOk.hasResult);
    EXPECT_EQ(backOk.result.cycles, 42u);
    EXPECT_EQ(backOk.result.counters, ok.result.counters);

    JournalEntry failed = ok;
    failed.status = "failed";
    failed.attempts = 3;
    failed.hasResult = false;
    failed.result = RunResult{};
    failed.error.emplace(sim::ErrorCode::kDeadline, "hung", "ctx");

    const JournalEntry backFail =
        journalEntryFromLine(journalLine(failed));
    EXPECT_EQ(backFail.status, "failed");
    EXPECT_EQ(backFail.attempts, 3u);
    EXPECT_FALSE(backFail.hasResult);
    ASSERT_TRUE(backFail.error.has_value());
    EXPECT_EQ(backFail.error->code, sim::ErrorCode::kDeadline);
    EXPECT_EQ(backFail.error->str(), failed.error->str());
}

TEST(RunJournalFormat, RejectsMalformedLines)
{
    EXPECT_THROW(journalEntryFromLine("{\"truncated\":"),
                 sim::SimException);
    // "ok" status without a result payload is corrupt.
    EXPECT_THROW(
        journalEntryFromLine(
            "{\"fingerprint\":\"ab\",\"row\":\"r\",\"label\":\"l\","
            "\"status\":\"ok\",\"attempts\":1}"),
        sim::SimException);
    try {
        journalEntryFromLine("[1,2,3]");
        FAIL() << "expected SimException";
    } catch (const sim::SimException &e) {
        EXPECT_EQ(e.code(), sim::ErrorCode::kJournal);
    }
}

// ----------------------------------------------------------- journal file

TEST(RunJournalFile, AppendReopenResumeAndTornTail)
{
    TempPath path("grit_journal_test.jsonl");
    JournalEntry entry;
    entry.fingerprint = "0123456789abcdef";
    entry.row = "ST";
    entry.label = "on-touch";
    entry.status = "ok";
    entry.hasResult = true;
    entry.result.cycles = 1234;

    {
        RunJournal journal;
        journal.open(path.str(), "test_resilience", /*resume=*/false);
        ASSERT_TRUE(journal.isOpen());
        EXPECT_EQ(journal.size(), 0u);
        journal.append(entry);
        EXPECT_EQ(journal.size(), 1u);
        ASSERT_NE(journal.find(entry.fingerprint), nullptr);
        EXPECT_EQ(journal.find("ffffffffffffffff"), nullptr);
    }

    // Simulate a crash mid-append: a torn final line must be ignored.
    {
        std::ofstream torn(path.str(), std::ios::app);
        torn << "{\"fingerprint\":\"fedcba98";
    }

    {
        RunJournal journal;
        journal.open(path.str(), "test_resilience", /*resume=*/true);
        EXPECT_EQ(journal.size(), 1u);
        const JournalEntry *found = journal.find(entry.fingerprint);
        ASSERT_NE(found, nullptr);
        EXPECT_EQ(found->result.cycles, 1234u);
    }

    // A different generator must be rejected: fingerprints are only
    // comparable within one binary's plan.
    RunJournal wrong;
    EXPECT_THROW(wrong.open(path.str(), "other_bench", /*resume=*/true),
                 sim::SimException);

    // Opening without resume truncates.
    RunJournal fresh;
    fresh.open(path.str(), "test_resilience", /*resume=*/false);
    EXPECT_EQ(fresh.size(), 0u);
}

TEST(RunJournalFile, ConcurrentAppendsFromManyThreads)
{
    // Parallel sweep workers journal through one shared RunJournal;
    // every line must land intact (no interleaved bytes) and every
    // record must survive a resume.
    TempPath path("grit_journal_threads.jsonl");
    constexpr unsigned kThreads = 8;
    constexpr unsigned kPerThread = 50;
    {
        RunJournal journal;
        journal.open(path.str(), "test_resilience", /*resume=*/false);
        std::vector<std::thread> writers;
        for (unsigned t = 0; t < kThreads; ++t)
            writers.emplace_back([&journal, t] {
                for (unsigned i = 0; i < kPerThread; ++i) {
                    JournalEntry entry;
                    std::ostringstream fp;
                    fp << std::hex << std::setw(8) << std::setfill('0')
                       << t << std::setw(8) << i;
                    entry.fingerprint = fp.str();
                    entry.row = "GEMM";
                    std::ostringstream label;
                    label << 'w' << t;
                    entry.label = label.str();
                    entry.status = "ok";
                    entry.hasResult = true;
                    entry.result.cycles = t * 1000ull + i;
                    journal.append(entry);
                }
            });
        for (std::thread &w : writers)
            w.join();
        EXPECT_EQ(journal.size(), kThreads * kPerThread);
    }

    RunJournal reloaded;
    reloaded.open(path.str(), "test_resilience", /*resume=*/true);
    ASSERT_EQ(reloaded.size(), kThreads * kPerThread);
    for (unsigned t = 0; t < kThreads; ++t)
        for (unsigned i = 0; i < kPerThread; ++i) {
            std::ostringstream fp;
            fp << std::hex << std::setw(8) << std::setfill('0') << t
               << std::setw(8) << i;
            const JournalEntry *found = reloaded.find(fp.str());
            ASSERT_NE(found, nullptr) << fp.str();
            EXPECT_EQ(found->result.cycles, t * 1000ull + i);
        }
}

TEST(RunJournalFile, TwoWritersOnePathInterleaveAtLineGranularity)
{
    // Two journal handles on the same file — the multi-process analogue
    // of a resumed sweep racing a straggler. Appends go through
    // append-mode streams, so lines interleave whole, never torn, and
    // a torn tail left by a third (crashed) writer is still tolerated.
    TempPath path("grit_journal_two_writers.jsonl");
    RunJournal first;
    first.open(path.str(), "test_resilience", /*resume=*/false);
    RunJournal second;
    second.open(path.str(), "test_resilience", /*resume=*/true);

    constexpr unsigned kPerWriter = 100;
    auto writeVia = [](RunJournal &journal, const std::string &prefix) {
        for (unsigned i = 0; i < kPerWriter; ++i) {
            JournalEntry entry;
            std::ostringstream fp;
            fp << prefix << std::hex << std::setw(8)
               << std::setfill('0') << i;
            entry.fingerprint = fp.str();
            entry.row = "BFS";
            entry.label = prefix;
            entry.status = "ok";
            entry.hasResult = true;
            entry.result.cycles = i + 1;
            journal.append(entry);
        }
    };
    std::thread a([&] { writeVia(first, "aaaaaaaa"); });
    std::thread b([&] { writeVia(second, "bbbbbbbb"); });
    a.join();
    b.join();

    {
        std::ofstream torn(path.str(), std::ios::app);
        torn << "{\"fingerprint\":\"cccccccc";
    }

    RunJournal reloaded;
    reloaded.open(path.str(), "test_resilience", /*resume=*/true);
    EXPECT_EQ(reloaded.size(), 2 * kPerWriter);
    for (unsigned i = 0; i < kPerWriter; ++i) {
        std::ostringstream a_fp, b_fp;
        a_fp << "aaaaaaaa" << std::hex << std::setw(8)
             << std::setfill('0') << i;
        b_fp << "bbbbbbbb" << std::hex << std::setw(8)
             << std::setfill('0') << i;
        ASSERT_NE(reloaded.find(a_fp.str()), nullptr) << a_fp.str();
        ASSERT_NE(reloaded.find(b_fp.str()), nullptr) << b_fp.str();
    }
}

TEST(RunJournalFile, ResumesMixedLegacyAndFramedFiles)
{
    // A journal written partly before record framing existed (bare
    // JSON entry lines) and partly after must resume transparently.
    TempPath path("grit_journal_mixed.jsonl");
    JournalEntry legacy;
    legacy.fingerprint = "1111111111111111";
    legacy.row = "GEMM";
    legacy.label = "grit";
    legacy.status = "ok";
    legacy.hasResult = true;
    legacy.result.cycles = 11;
    JournalEntry framed = legacy;
    framed.fingerprint = "2222222222222222";
    framed.result.cycles = 22;
    {
        std::ofstream out(path.str(), std::ios::binary);
        out << "{\"schema\":\"grit-run-journal\",\"version\":2,"
               "\"generator\":\"test_resilience\"}\n"
            << journalLine(legacy) << "\n"
            << frameRecord(journalLine(framed)) << "\n";
    }
    {
        RunJournal journal;
        journal.open(path.str(), "test_resilience", /*resume=*/true);
        ASSERT_EQ(journal.size(), 2u);
        EXPECT_EQ(journal.scrubStats().valid, 2u);
        EXPECT_EQ(journal.scrubStats().quarantined, 0u);
        EXPECT_EQ(journal.find("1111111111111111")->result.cycles, 11u);
        EXPECT_EQ(journal.find("2222222222222222")->result.cycles, 22u);
        // New appends land framed behind the legacy records.
        JournalEntry fresh = legacy;
        fresh.fingerprint = "3333333333333333";
        fresh.result.cycles = 33;
        journal.append(fresh);
    }
    RunJournal reloaded;
    reloaded.open(path.str(), "test_resilience", /*resume=*/true);
    EXPECT_EQ(reloaded.size(), 3u);
    EXPECT_EQ(reloaded.find("3333333333333333")->result.cycles, 33u);
}

TEST(RunJournalFile, MidFileCorruptionIsQuarantinedNotTruncated)
{
    TempPath path("grit_journal_corrupt.jsonl");
    auto makeEntry = [](const std::string &fp, std::uint64_t cycles) {
        JournalEntry entry;
        entry.fingerprint = fp;
        entry.row = "ST";
        entry.label = "grit";
        entry.status = "ok";
        entry.hasResult = true;
        entry.result.cycles = cycles;
        return entry;
    };
    {
        RunJournal journal;
        journal.open(path.str(), "test_resilience", /*resume=*/false);
        journal.append(makeEntry("aaaaaaaaaaaaaaaa", 1));
        journal.append(makeEntry("bbbbbbbbbbbbbbbb", 2));
        journal.append(makeEntry("cccccccccccccccc", 3));
    }
    // Flip one byte inside the SECOND entry's frame (file line 3).
    {
        std::ifstream in(path.str(), std::ios::binary);
        std::vector<std::string> lines;
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
        in.close();
        ASSERT_EQ(lines.size(), 4u);
        lines[2][40] = static_cast<char>(lines[2][40] ^ 0x80);
        std::ofstream out(path.str(),
                          std::ios::binary | std::ios::trunc);
        for (const std::string &l : lines)
            out << l << "\n";
    }
    RunJournal journal;
    journal.open(path.str(), "test_resilience", /*resume=*/true);
    // The damaged record is skipped; the record AFTER it survives —
    // scrub-and-quarantine, not truncate-at-first-bad-byte.
    EXPECT_EQ(journal.size(), 2u);
    EXPECT_NE(journal.find("aaaaaaaaaaaaaaaa"), nullptr);
    EXPECT_EQ(journal.find("bbbbbbbbbbbbbbbb"), nullptr);
    EXPECT_NE(journal.find("cccccccccccccccc"), nullptr);
    EXPECT_EQ(journal.scrubStats().scanned, 3u);
    EXPECT_EQ(journal.scrubStats().valid, 2u);
    EXPECT_EQ(journal.scrubStats().quarantined, 1u);

    // The raw damaged line is preserved for post-mortems.
    std::ifstream sidecar(path.str() + ".quarantine");
    ASSERT_TRUE(sidecar.is_open());
    std::string preserved;
    EXPECT_TRUE(std::getline(sidecar, preserved));
}

TEST(RunJournalFile, TornTailIsTruncatedBeforeAppendsResume)
{
    TempPath path("grit_journal_torn_append.jsonl");
    JournalEntry entry;
    entry.fingerprint = "aaaaaaaaaaaaaaaa";
    entry.row = "BFS";
    entry.label = "grit";
    entry.status = "ok";
    entry.hasResult = true;
    entry.result.cycles = 7;
    {
        RunJournal journal;
        journal.open(path.str(), "test_resilience", /*resume=*/false);
        journal.append(entry);
    }
    std::uintmax_t intactBytes = 0;
    {
        std::ifstream in(path.str(), std::ios::ate | std::ios::binary);
        intactBytes = static_cast<std::uintmax_t>(in.tellg());
    }
    {
        std::ofstream torn(path.str(), std::ios::app | std::ios::binary);
        torn << "GF1 00000040 0000";  // crash mid-frame-header
    }
    {
        RunJournal journal;
        journal.open(path.str(), "test_resilience", /*resume=*/true);
        EXPECT_EQ(journal.size(), 1u);
        EXPECT_EQ(journal.scrubStats().truncated, 1u);
        // The torn bytes are gone from disk BEFORE the append stream
        // attaches, so this append starts on a clean line boundary.
        JournalEntry second = entry;
        second.fingerprint = "bbbbbbbbbbbbbbbb";
        journal.append(second);
    }
    std::uintmax_t finalBytes = 0;
    {
        std::ifstream in(path.str(), std::ios::ate | std::ios::binary);
        finalBytes = static_cast<std::uintmax_t>(in.tellg());
    }
    EXPECT_GT(finalBytes, intactBytes);

    RunJournal reloaded;
    reloaded.open(path.str(), "test_resilience", /*resume=*/true);
    EXPECT_EQ(reloaded.size(), 2u);
    EXPECT_EQ(reloaded.scrubStats().quarantined, 0u);
    EXPECT_EQ(reloaded.scrubStats().truncated, 0u);
    EXPECT_NE(reloaded.find("bbbbbbbbbbbbbbbb"), nullptr);
}

/** The whole file at @p path, byte for byte. */
std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

TEST(RunJournalFile, DamagedHeaderIsRefusedAndRecordsKept)
{
    // A damaged header cannot prove which binary wrote the journal:
    // resume refuses it with store-corrupt instead of treating the
    // file as fresh and truncating its records away.
    TempPath path("grit_journal_bad_header.jsonl");
    JournalEntry entry;
    entry.fingerprint = "aaaaaaaaaaaaaaaa";
    entry.row = "BFS";
    entry.label = "grit";
    entry.status = "ok";
    entry.hasResult = true;
    entry.result.cycles = 7;
    const std::string record = frameRecord(journalLine(entry)) + "\n";
    for (const std::string header : {"", "not json at all"}) {
        SCOPED_TRACE("header '" + header + "'");
        const std::string image = header + "\n" + record;
        {
            std::ofstream out(path.str(),
                              std::ios::binary | std::ios::trunc);
            out << image;
        }
        RunJournal journal;
        try {
            journal.open(path.str(), "test_resilience", /*resume=*/true);
            FAIL() << "resumed a journal with a damaged header";
        } catch (const sim::SimException &e) {
            EXPECT_EQ(e.code(), sim::ErrorCode::kStoreCorrupt);
        }
        EXPECT_FALSE(journal.isOpen());
        EXPECT_EQ(fileBytes(path.str()), image);
    }

    // A whole header naming another generator is a foreign file, not
    // a damaged one.
    {
        std::ofstream out(path.str(), std::ios::binary | std::ios::trunc);
        out << "{\"schema\":\"grit-run-journal\",\"version\":2,"
               "\"generator\":\"other_bench\"}\n"
            << record;
    }
    RunJournal foreign;
    try {
        foreign.open(path.str(), "test_resilience", /*resume=*/true);
        FAIL() << "resumed another generator's journal";
    } catch (const sim::SimException &e) {
        EXPECT_EQ(e.code(), sim::ErrorCode::kJournal);
    }
}

TEST(RunJournalFile, AppendingAnIndexedFingerprintWritesNothing)
{
    TempPath path("grit_journal_duplicate.jsonl");
    JournalEntry first;
    first.fingerprint = "aaaaaaaaaaaaaaaa";
    first.row = "BFS";
    first.label = "grit";
    first.status = "ok";
    first.hasResult = true;
    first.result.cycles = 100;
    JournalEntry second = first;
    second.result.cycles = 999;

    RunJournal journal;
    journal.open(path.str(), "test_resilience", /*resume=*/false);
    journal.append(first);
    const std::string before = fileBytes(path.str());
    journal.append(second);
    EXPECT_EQ(fileBytes(path.str()), before);
    EXPECT_EQ(journal.size(), 1u);
    EXPECT_EQ(journal.find(first.fingerprint)->result.cycles, 100u);
}

TEST(RunJournalFile, TornTailIsCountedWithoutValidRecords)
{
    // A crash during the very first append leaves a header and a torn
    // tail; the tail is cut and counted like any other.
    TempPath path("grit_journal_torn_only.jsonl");
    {
        RunJournal journal;
        journal.open(path.str(), "test_resilience", /*resume=*/false);
    }
    const std::string header = fileBytes(path.str());
    {
        std::ofstream torn(path.str(), std::ios::app | std::ios::binary);
        torn << "GF1 00000040 0000";
    }
    RunJournal journal;
    journal.open(path.str(), "test_resilience", /*resume=*/true);
    EXPECT_EQ(journal.size(), 0u);
    EXPECT_EQ(journal.scrubStats().truncated, 1u);
    EXPECT_EQ(fileBytes(path.str()), header);
}

// --------------------------------------------------------- resume merges

TEST(ResilientSweep, FullJournalReplayIsBitIdentical)
{
    const RunPlan plan = smallPlan();
    ExperimentEngine reference;
    const ResultMatrix expected = reference.run(plan);

    TempPath path("grit_resume_full.jsonl");
    RunJournal journal;
    journal.open(path.str(), "test_resilience", /*resume=*/false);
    ResilientOptions options;
    options.journal = &journal;

    ExperimentEngine first;
    const SweepResult sweep = first.runResilient(plan, options);
    EXPECT_TRUE(sweep.complete());
    EXPECT_EQ(sweep.executed, plan.size());
    EXPECT_EQ(sweep.reused, 0u);
    expectSameMatrix(expected, sweep.matrix);

    // A second engine resuming from the journal re-simulates nothing
    // and still merges to the bit-identical matrix.
    RunJournal resumed;
    resumed.open(path.str(), "test_resilience", /*resume=*/true);
    ResilientOptions resumeOptions;
    resumeOptions.journal = &resumed;
    ExperimentEngine second;
    const SweepResult replay = second.runResilient(plan, resumeOptions);
    EXPECT_TRUE(replay.complete());
    EXPECT_EQ(replay.executed, 0u);
    EXPECT_EQ(replay.reused, plan.size());
    expectSameMatrix(expected, replay.matrix);
}

TEST(ResilientSweep, PartialJournalResumesOnlyMissingCells)
{
    const RunPlan plan = smallPlan();
    ExperimentEngine reference;
    const ResultMatrix expected = reference.run(plan);

    // Journal only half the sweep — the on-disk state a kill -9 leaves.
    TempPath path("grit_resume_partial.jsonl");
    {
        RunPlan half;
        for (std::size_t i = 0; i < plan.size(); i += 2) {
            const RunCell &cell = plan.cells()[i];
            half.addCell(cell.row, cell.label, cell.config, cell.app,
                         cell.params);
        }
        RunJournal journal;
        journal.open(path.str(), "test_resilience", /*resume=*/false);
        ResilientOptions options;
        options.journal = &journal;
        ExperimentEngine engine;
        ASSERT_TRUE(engine.runResilient(half, options).complete());
    }

    RunJournal journal;
    journal.open(path.str(), "test_resilience", /*resume=*/true);
    ResilientOptions options;
    options.journal = &journal;
    ExperimentEngine engine;
    const SweepResult sweep = engine.runResilient(plan, options);
    EXPECT_TRUE(sweep.complete());
    EXPECT_EQ(sweep.reused, plan.size() / 2);
    EXPECT_EQ(sweep.executed, plan.size() - plan.size() / 2);
    expectSameMatrix(expected, sweep.matrix);
    // The journal now covers the whole plan.
    EXPECT_EQ(journal.size(), plan.size());
}

// ------------------------------------------------- watchdogs + quarantine

TEST(ResilientSweep, HungCellIsQuarantinedAndSalvaged)
{
    // One deliberately livelocked cell (chaos hang) among healthy ones;
    // the event budget converts the hang into a kDeadline quarantine
    // while the rest of the sweep completes normally.
    RunPlan plan;
    SystemConfig healthy = makeConfig(PolicyKind::kOnTouch, 4);
    plan.addCell("GEMM", "on-touch", healthy, workload::AppId::kGemm,
                 fastParams());
    SystemConfig hung = healthy;
    hung.chaos = sim::ChaosSpec::parse("hang:at=1000");
    plan.addCell("GEMM", "hung", hung, workload::AppId::kGemm,
                 fastParams());

    ResilientOptions options;
    options.eventBudget = 50000;
    ExperimentEngine engine;
    const SweepResult sweep = engine.runResilient(plan, options);

    EXPECT_FALSE(sweep.complete());
    EXPECT_FALSE(sweep.cancelled);
    ASSERT_EQ(sweep.failures.size(), 1u);
    const FailureRecord &failure = sweep.failures[0];
    EXPECT_EQ(failure.row, "GEMM");
    EXPECT_EQ(failure.label, "hung");
    EXPECT_EQ(failure.error.code, sim::ErrorCode::kDeadline);
    EXPECT_TRUE(failure.salvaged);
    EXPECT_EQ(failure.attempts, 1u);

    // The healthy cell's result is untouched by its hung neighbor.
    ASSERT_TRUE(sweep.matrix.at("GEMM").count("on-touch"));
    EXPECT_FALSE(sweep.matrix.at("GEMM").at("on-touch").partial);

    // Salvage: the hung cell still exported counters-so-far.
    ASSERT_TRUE(sweep.matrix.at("GEMM").count("hung"));
    const RunResult &partial = sweep.matrix.at("GEMM").at("hung");
    EXPECT_TRUE(partial.partial);
    ASSERT_TRUE(partial.error.has_value());
    EXPECT_EQ(partial.error->code, sim::ErrorCode::kDeadline);
}

TEST(ResilientSweep, SalvageOffDropsPartialResults)
{
    RunPlan plan;
    SystemConfig hung = makeConfig(PolicyKind::kOnTouch, 4);
    hung.chaos = sim::ChaosSpec::parse("hang:at=1000");
    plan.addCell("GEMM", "hung", hung, workload::AppId::kGemm,
                 fastParams());

    ResilientOptions options;
    options.eventBudget = 50000;
    options.salvagePartial = false;
    ExperimentEngine engine;
    const SweepResult sweep = engine.runResilient(plan, options);
    ASSERT_EQ(sweep.failures.size(), 1u);
    EXPECT_FALSE(sweep.failures[0].salvaged);
    EXPECT_TRUE(sweep.matrix.empty());
}

TEST(ResilientSweep, TransientFailuresAreRetried)
{
    // A chaos hang trips the deadline on every attempt, so the retry
    // budget is consumed in full and recorded in the manifest.
    RunPlan plan;
    SystemConfig hung = makeConfig(PolicyKind::kOnTouch, 4);
    hung.chaos = sim::ChaosSpec::parse("hang:at=1000");
    plan.addCell("GEMM", "hung", hung, workload::AppId::kGemm,
                 fastParams());

    ResilientOptions options;
    options.eventBudget = 50000;
    options.retries = 2;
    ExperimentEngine engine;
    const SweepResult sweep = engine.runResilient(plan, options);
    ASSERT_EQ(sweep.failures.size(), 1u);
    EXPECT_EQ(sweep.failures[0].attempts, 3u);
}

TEST(ResilientSweep, QuarantinedCellIsReusedAsFailureOnResume)
{
    RunPlan plan;
    SystemConfig hung = makeConfig(PolicyKind::kOnTouch, 4);
    hung.chaos = sim::ChaosSpec::parse("hang:at=1000");
    plan.addCell("GEMM", "hung", hung, workload::AppId::kGemm,
                 fastParams());

    TempPath path("grit_resume_failed.jsonl");
    ResilientOptions options;
    options.eventBudget = 50000;
    {
        RunJournal journal;
        journal.open(path.str(), "test_resilience", /*resume=*/false);
        options.journal = &journal;
        ExperimentEngine engine;
        ASSERT_EQ(engine.runResilient(plan, options).failures.size(), 1u);
    }

    // Resume: the quarantined cell is replayed from the journal — same
    // diagnostic, same salvaged counters, no re-simulation.
    RunJournal journal;
    journal.open(path.str(), "test_resilience", /*resume=*/true);
    options.journal = &journal;
    ExperimentEngine engine;
    const SweepResult sweep = engine.runResilient(plan, options);
    EXPECT_EQ(sweep.executed, 0u);
    EXPECT_EQ(sweep.reused, 1u);
    ASSERT_EQ(sweep.failures.size(), 1u);
    EXPECT_EQ(sweep.failures[0].error.code, sim::ErrorCode::kDeadline);
    EXPECT_TRUE(sweep.failures[0].salvaged);
    ASSERT_TRUE(sweep.matrix.count("GEMM"));
    EXPECT_TRUE(sweep.matrix.at("GEMM").at("hung").partial);
}

TEST(ResilientSweep, WallDeadlineTripsAsDeadlineError)
{
    // An already-elapsed wall deadline cancels between events; the
    // simulator surfaces it as a structured kDeadline, never an abort.
    SystemConfig config = makeConfig(PolicyKind::kOnTouch, 4);
    config.wallDeadlineSec = 1e-9;
    const auto w = std::make_shared<const workload::Workload>(
        workload::makeWorkload(workload::AppId::kGemm, fastParams()));
    Simulator sim(config, workload::streamWorkload(w));
    try {
        sim.run();
        FAIL() << "expected SimException";
    } catch (const sim::SimException &e) {
        EXPECT_EQ(e.code(), sim::ErrorCode::kDeadline);
    }

    Simulator salvage(config, workload::streamWorkload(w));
    const RunResult partial = salvage.run(/*salvage_partial=*/true);
    EXPECT_TRUE(partial.partial);
    ASSERT_TRUE(partial.error.has_value());
    EXPECT_EQ(partial.error->code, sim::ErrorCode::kDeadline);
}

// ------------------------------------------------------------ cancel flag

TEST(ResilientSweep, CancelFlagSkipsUnstartedCells)
{
    static std::atomic<int> flag{SIGINT};
    const RunPlan plan = smallPlan();
    ResilientOptions options;
    options.cancelFlag = &flag;
    ExperimentEngine engine;
    const SweepResult sweep = engine.runResilient(plan, options);
    EXPECT_TRUE(sweep.cancelled);
    EXPECT_FALSE(sweep.complete());
    EXPECT_EQ(sweep.skipped, plan.size());
    EXPECT_EQ(sweep.executed, 0u);
    EXPECT_TRUE(sweep.matrix.empty());
    // Interrupted cells are not failures: resume re-executes them.
    EXPECT_TRUE(sweep.failures.empty());
}

TEST(ResilientSweep, InterruptedCellIsNeverJournaled)
{
    static std::atomic<int> flag{0};
    flag.store(SIGTERM);
    RunPlan plan;
    plan.addCell("GEMM", "on-touch", makeConfig(PolicyKind::kOnTouch, 4),
                 workload::AppId::kGemm, fastParams());

    TempPath path("grit_cancel.jsonl");
    RunJournal journal;
    journal.open(path.str(), "test_resilience", /*resume=*/false);
    ResilientOptions options;
    options.journal = &journal;
    options.cancelFlag = &flag;
    ExperimentEngine engine;
    const SweepResult sweep = engine.runResilient(plan, options);
    EXPECT_TRUE(sweep.cancelled);
    // Nothing landed in the journal, so a resume runs the cell fresh.
    EXPECT_EQ(journal.size(), 0u);
    flag.store(0);
}

// ------------------------------------------------------------ trace cache

/** Chunk 0 of @p gpu's GEMM trace under @p params, through @p cache. */
workload::ChunkHandle
gemmChunk(workload::TraceCache &cache, const workload::WorkloadParams &params,
          unsigned gpu = 0)
{
    return cache.openStream(workload::AppId::kGemm, params, gpu, 256)
        ->next();
}

TEST(TraceCacheBudget, EvictsLruBeyondByteBudget)
{
    workload::TraceCache cache;
    const workload::WorkloadParams params = fastParams();

    // Full chunks of one size all cost the same bytes.
    const auto c0 = gemmChunk(cache, params, 0);
    ASSERT_NE(c0, nullptr);
    const std::uint64_t chunk = workload::chunkBytes(*c0);
    ASSERT_GT(chunk, 0u);
    EXPECT_EQ(cache.bytes(), chunk);

    // Budget fits two chunks. Touching c0 makes c1 the LRU one, so
    // inserting c2 evicts c1 — while every outstanding handle stays
    // valid.
    cache.setByteBudget(2 * chunk + 1);
    EXPECT_EQ(cache.byteBudget(), 2 * chunk + 1);
    const auto c1 = gemmChunk(cache, params, 1);
    ASSERT_NE(c1, nullptr);
    gemmChunk(cache, params, 0);  // hit: c0 becomes most recent
    const auto c2 = gemmChunk(cache, params, 2);
    ASSERT_NE(c2, nullptr);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.bytes(), 2 * chunk);
    EXPECT_FALSE(c1->accesses.empty());  // handle survives eviction
    EXPECT_EQ(cache.misses(), 3u);
    EXPECT_EQ(cache.hits(), 1u);

    // c0 survived; the evicted c1 regenerates deterministically.
    gemmChunk(cache, params, 0);
    EXPECT_EQ(cache.hits(), 2u);
    const auto again = gemmChunk(cache, params, 1);
    EXPECT_EQ(cache.misses(), 4u);
    ASSERT_EQ(again->accesses.size(), c1->accesses.size());
    for (std::size_t i = 0; i < c1->accesses.size(); ++i) {
        EXPECT_EQ(again->accesses[i].addr, c1->accesses[i].addr);
        EXPECT_EQ(again->accesses[i].write, c1->accesses[i].write);
    }
}

TEST(TraceCacheBudget, OversizedSingleTraceStillCaches)
{
    workload::TraceCache cache;
    cache.setByteBudget(1);  // smaller than any chunk
    const auto c = gemmChunk(cache, fastParams());
    ASSERT_NE(c, nullptr);
    // The being-inserted chunk is protected from its own insertion...
    EXPECT_EQ(cache.size(), 1u);
    // ...and a hit still serves it.
    EXPECT_EQ(gemmChunk(cache, fastParams()).get(), c.get());
    EXPECT_EQ(cache.hits(), 1u);
}

TEST(TraceCacheBudget, UnboundedByDefaultAndClearResets)
{
    workload::TraceCache cache;
    EXPECT_EQ(cache.byteBudget(), 0u);
    gemmChunk(cache, fastParams());
    EXPECT_GT(cache.bytes(), 0u);
    cache.clear();
    EXPECT_EQ(cache.bytes(), 0u);
    EXPECT_EQ(cache.size(), 0u);
}

TEST(TraceCacheBudget, EngineHonorsEnvByteBudget)
{
    ExperimentEngine::Options options;
    options.traceCacheBytes = 4096;
    ExperimentEngine engine(options);
    EXPECT_EQ(engine.traceCache().byteBudget(), 4096u);
}

}  // namespace
}  // namespace grit::harness
