#include "harness/run_journal.h"

#include <bit>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "simcore/log.h"
#include "stats/timeline.h"
#include "workload/apps.h"

namespace grit::harness {

namespace {

/** splitmix64 finalizer: the repo's standard stateless mixer. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/** Running digest: order-sensitive fold of 64-bit words. */
class Digest
{
  public:
    void
    word(std::uint64_t v)
    {
        state_ = mix64(state_ ^ mix64(v));
    }
    void word(double v) { word(std::bit_cast<std::uint64_t>(v)); }
    void word(bool v) { word(std::uint64_t{v}); }
    void
    text(std::string_view s)
    {
        word(std::uint64_t{s.size()});
        for (char c : s)
            word(std::uint64_t{static_cast<unsigned char>(c)});
    }
    std::uint64_t value() const { return state_; }

  private:
    std::uint64_t state_ = 0x243F6A8885A308D3ULL;  // pi fraction
};

std::string
hex64(std::uint64_t v)
{
    static const char *digits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[v & 0xF];
        v >>= 4;
    }
    return out;
}

[[noreturn]] void
journalFail(const std::string &message, const std::string &context = {})
{
    throw sim::SimException(sim::ErrorCode::kJournal, message, context);
}

/** journalFail naming the failed call's errno. */
[[noreturn]] void
ioFail(const std::string &what, const std::string &context, int err = errno)
{
    journalFail(what + ": " + std::strerror(err), context);
}

/** A header field as text: quoted string or integer. @throws otherwise. */
std::string
scalarText(const stats::JsonValue &v)
{
    return v.isString() ? '"' + v.asString() + '"'
                        : std::to_string(v.asUint64());
}

/** fsync the directory holding @p path so a rename is durable. */
void
fsyncParentDir(const std::string &path)
{
    const std::size_t slash = path.rfind('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash + 1);
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return;  // best-effort: some filesystems refuse dir fsync
    ::fsync(fd);
    ::close(fd);
}

}  // namespace

void
writeErrorJson(stats::JsonWriter &w, const sim::SimError &error)
{
    w.beginObject();
    w.key("code").value(sim::errorCodeName(error.code));
    w.key("message").value(error.message);
    w.key("context").value(error.context);
    w.endObject();
}

sim::SimError
errorFromJson(const stats::JsonValue &v)
{
    sim::SimError error;
    const std::string &name = v.at("code").asString();
    const auto code = sim::errorCodeFromName(name);
    if (!code)
        journalFail("unknown error code '" + name + "'");
    error.code = *code;
    error.message = v.at("message").asString();
    error.context = v.at("context").asString();
    return error;
}

std::uint64_t
configDigest(const SystemConfig &config)
{
    Digest d;
    d.word(std::uint64_t{config.numGpus});
    d.word(config.geometry.baseSize);
    d.word(config.geometry.hugeSize);
    d.word(config.geometry.hugePages);
    d.word(std::uint64_t{config.geometry.promoteFaultThreshold});
    d.word(config.memoryFraction);
    d.text(policyKindName(config.policy));
    d.word(config.prefetch);
    d.word(config.maxEvents);
    d.word(config.timeline);
    d.word(config.timelineIntervalCycles);
    d.word(config.audit);
    d.word(config.auditIntervalCycles);
    d.word(config.watchdogSameCycleEvents);

    const gpu::GpuConfig &g = config.gpu;
    d.word(std::uint64_t{g.lanes});
    d.word(std::uint64_t{g.l1TlbEntries});
    d.word(std::uint64_t{g.l1TlbWays});
    d.word(g.l1TlbLatency);
    d.word(std::uint64_t{g.l2TlbEntries});
    d.word(std::uint64_t{g.l2TlbWays});
    d.word(g.l2TlbLatency);
    d.word(g.l2CacheBytes);
    d.word(std::uint64_t{g.l2CacheWays});
    d.word(g.l2CacheLatency);
    d.word(g.dramGBs);
    d.word(g.dramLatency);
    d.word(g.dramCapacityPages);
    d.word(std::uint64_t{g.counterThreshold});
    d.word(g.laneIssueInterval);
    d.word(std::uint64_t{g.nvlinkSlots});
    d.word(std::uint64_t{g.pcieSlots});
    d.word(std::uint64_t{g.faultSlots});
    d.word(std::uint64_t{g.gmmu.walkers});
    d.word(g.gmmu.walkLevelLatency);
    d.word(std::uint64_t{g.gmmu.walkCacheEntries});
    d.word(std::uint64_t{g.gmmu.walkQueueEntries});

    const uvm::UvmConfig &u = config.uvm;
    d.word(u.serviceCycles);
    d.word(u.collapseServiceCycles);
    d.word(std::uint64_t{u.servers});
    d.word(u.remapCycles);
    d.word(u.drainCycles);
    d.word(u.drainCyclesAcud);
    d.word(u.acud);
    d.word(u.transFw);
    d.word(u.transFwCycles);
    d.word(u.invalidatePteCycles);
    d.word(u.hostMemGBs);
    d.word(u.hostMemAccessCycles);
    d.word(u.messageBytes);
    d.word(u.promoteCycles);
    d.word(u.splinterCycles);

    const ic::FabricConfig &f = config.fabric;
    d.text(ic::topologyKindName(f.kind));
    d.word(std::uint64_t{f.numGpus});
    d.word(f.nvlinkGBs);
    d.word(f.nvlinkLatency);
    d.word(f.pcieGBs);
    d.word(f.pcieLatency);
    d.word(std::uint64_t{f.switchRadix});
    d.word(f.switchGBs);
    d.word(f.switchLatency);
    d.word(std::uint64_t{f.gpusPerChiplet});
    d.word(f.chipletGBs);
    d.word(f.chipletLatency);
    d.word(f.interposerGBs);
    d.word(f.interposerLatency);
    d.word(config.fabricStats);

    const core::GritConfig &gr = config.grit;
    d.word(std::uint64_t{gr.faultThreshold});
    d.word(gr.paCacheEnabled);
    d.word(gr.napEnabled);
    d.word(std::uint64_t{gr.paCacheEntries});
    d.word(std::uint64_t{gr.paCacheWays});
    d.word(gr.paCacheHitCycles);
    d.word(gr.paHiddenSlackCycles);
    d.word(std::uint64_t{gr.paTableAccessesOnMiss});
    d.word(gr.paEntryBytes);

    d.word(config.griffin.intervalCycles);
    d.word(config.griffin.dominanceRatio);
    d.word(config.griffin.profileBytesPerPage);
    d.word(config.gps.storeBytes);
    d.word(std::uint64_t{config.prefetcher.pagesPerBlock});
    d.word(std::uint64_t{config.prefetcher.blocksPerRoot});
    d.word(config.prefetcher.threshold);

    const sim::ChaosSpec &c = config.chaos;
    d.word(c.seed);
    d.word(c.linkFlap.period);
    d.word(c.linkFlap.duty);
    d.word(c.linkFlap.prob);
    d.word(std::uint64_t{c.linkSlow.factor});
    d.word(c.linkSlow.period);
    d.word(c.linkSlow.duty);
    d.word(c.serviceDelay.extra);
    d.word(c.serviceDelay.period);
    d.word(c.serviceDelay.duty);
    d.word(std::uint64_t{c.pressure.pages});
    d.word(c.pressure.period);
    d.word(c.pressure.start);
    d.word(c.promoteStorm.period);
    d.word(c.promoteStorm.start);
    d.word(c.paFlush.period);
    d.word(c.paDisable.start);
    d.word(c.paDisable.end);
    d.word(c.hang.at);

    return d.value();
}

std::string
runFingerprint(const RunCell &cell)
{
    Digest d;
    d.text(cell.row);
    d.text(cell.label);
    if (cell.workload) {
        d.text("workload");
        d.text(cell.workload->name);
    } else {
        d.text("app");
        d.text(workload::appMeta(cell.app).abbr);
    }
    d.word(std::uint64_t{cell.params.numGpus});
    d.word(std::uint64_t{cell.params.footprintDivisor});
    d.word(cell.params.seed);
    d.word(cell.params.intensity);
    d.word(configDigest(cell.config));
    return hex64(d.value());
}

void
writeRunResultJson(stats::JsonWriter &w, const RunResult &result)
{
    w.beginObject();
    w.key("cycles").value(result.cycles);
    w.key("accesses").value(result.accesses);
    w.key("accesses_batched").value(result.accessesBatched);
    w.key("local_faults").value(result.localFaults);
    w.key("protection_faults").value(result.protectionFaults);
    w.key("evictions").value(result.evictions);
    w.key("peak_replicas").value(result.peakReplicas);
    w.key("breakdown").beginArray();
    for (unsigned k = 0; k < stats::kLatencyKinds; ++k)
        w.value(result.breakdown.get(static_cast<stats::LatencyKind>(k)));
    w.endArray();
    w.key("scheme_accesses").beginArray();
    for (std::uint64_t v : result.schemeAccesses)
        w.value(v);
    w.endArray();
    w.key("counters").beginObject();
    for (const auto &[name, value] : result.counters)
        w.key(name).value(value);
    w.endObject();
    if (result.timeline) {
        const stats::IntervalSampler &t = *result.timeline;
        w.key("timeline").beginObject();
        w.key("interval_cycles").value(t.intervalCycles());
        w.key("keys").value(std::uint64_t{t.keys()});
        w.key("cells").beginArray();
        for (std::size_t i = 0; i < t.intervals(); ++i) {
            w.beginArray();
            for (unsigned k = 0; k < t.keys(); ++k)
                w.value(t.get(i, k));
            w.endArray();
        }
        w.endArray();
        w.endObject();
    }
    w.key("audit_findings").beginArray();
    for (const std::string &finding : result.auditFindings)
        w.value(finding);
    w.endArray();
    w.key("partial").value(result.partial);
    if (result.error) {
        w.key("error");
        writeErrorJson(w, *result.error);
    }
    w.endObject();
}

RunResult
runResultFromJson(const stats::JsonValue &v)
{
    try {
        RunResult r;
        r.cycles = v.at("cycles").asUint64();
        r.accesses = v.at("accesses").asUint64();
        r.accessesBatched = v.at("accesses_batched").asUint64();
        r.localFaults = v.at("local_faults").asUint64();
        r.protectionFaults = v.at("protection_faults").asUint64();
        r.evictions = v.at("evictions").asUint64();
        r.peakReplicas = v.at("peak_replicas").asUint64();
        const auto &breakdown = v.at("breakdown").asArray();
        if (breakdown.size() != stats::kLatencyKinds)
            journalFail("breakdown must have " +
                        std::to_string(stats::kLatencyKinds) + " cells");
        for (unsigned k = 0; k < stats::kLatencyKinds; ++k)
            r.breakdown.add(static_cast<stats::LatencyKind>(k),
                            breakdown[k].asUint64());
        const auto &schemes = v.at("scheme_accesses").asArray();
        if (schemes.size() != r.schemeAccesses.size())
            journalFail("scheme_accesses must have " +
                        std::to_string(r.schemeAccesses.size()) +
                        " cells");
        for (std::size_t k = 0; k < schemes.size(); ++k)
            r.schemeAccesses[k] = schemes[k].asUint64();
        for (const auto &[name, value] : v.at("counters").asObject())
            r.counters.emplace_back(name, value.asUint64());
        if (const stats::JsonValue *t = v.find("timeline")) {
            const sim::Cycle interval =
                t->at("interval_cycles").asUint64();
            const auto keys =
                static_cast<unsigned>(t->at("keys").asUint64());
            r.timeline.emplace(interval, keys);
            const auto &cells = t->at("cells").asArray();
            for (std::size_t i = 0; i < cells.size(); ++i) {
                const auto &rowCells = cells[i].asArray();
                if (rowCells.size() != keys)
                    journalFail("timeline row width mismatch");
                // record() with n = 0 still grows the interval vector,
                // so empty trailing intervals round-trip exactly.
                for (unsigned k = 0; k < keys; ++k)
                    r.timeline->record(i * interval, k,
                                       rowCells[k].asUint64());
            }
        }
        for (const auto &finding : v.at("audit_findings").asArray())
            r.auditFindings.push_back(finding.asString());
        r.partial = v.at("partial").asBool();
        if (const stats::JsonValue *e = v.find("error"))
            r.error = errorFromJson(*e);
        return r;
    } catch (const std::runtime_error &e) {
        if (dynamic_cast<const sim::SimException *>(&e))
            throw;
        journalFail(std::string("malformed run result: ") + e.what());
    }
}

void
writeJournalEntryJson(stats::JsonWriter &w, const JournalEntry &entry)
{
    w.beginObject();
    w.key("fp").value(entry.fingerprint);
    w.key("row").value(entry.row);
    w.key("label").value(entry.label);
    w.key("status").value(entry.status);
    w.key("attempts").value(std::uint64_t{entry.attempts});
    if (entry.hasResult) {
        w.key("result");
        writeRunResultJson(w, entry.result);
    }
    if (entry.error) {
        w.key("error");
        writeErrorJson(w, *entry.error);
    }
    w.endObject();
}

std::string
journalLine(const JournalEntry &entry)
{
    std::ostringstream os;
    stats::JsonWriter w(os);
    writeJournalEntryJson(w, entry);
    return os.str();
}

JournalEntry
journalEntryFromJson(const stats::JsonValue &v)
{
    try {
        JournalEntry entry;
        entry.fingerprint = v.at("fp").asString();
        entry.row = v.at("row").asString();
        entry.label = v.at("label").asString();
        entry.status = v.at("status").asString();
        if (entry.status != "ok" && entry.status != "failed")
            journalFail("unknown entry status '" + entry.status + "'");
        entry.attempts =
            static_cast<unsigned>(v.at("attempts").asUint64());
        if (const stats::JsonValue *r = v.find("result")) {
            entry.hasResult = true;
            entry.result = runResultFromJson(*r);
        }
        if (const stats::JsonValue *e = v.find("error"))
            entry.error = errorFromJson(*e);
        if (entry.status == "ok" && !entry.hasResult)
            journalFail("'ok' entry without a result");
        return entry;
    } catch (const std::runtime_error &e) {
        if (dynamic_cast<const sim::SimException *>(&e))
            throw;
        journalFail(std::string("malformed journal entry: ") + e.what());
    }
}

JournalEntry
journalEntryFromLine(const std::string &line)
{
    try {
        return journalEntryFromJson(stats::JsonValue::parse(line));
    } catch (const std::runtime_error &e) {
        if (dynamic_cast<const sim::SimException *>(&e))
            throw;
        journalFail(std::string("malformed journal line: ") + e.what());
    }
}

RecordLog::~RecordLog()
{
    close();
}

void
RecordLog::open(const std::string &path, const std::string &header)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (fd_ >= 0)
        ::close(fd_);
    path_ = path;
    header_ = header;
    scrub_ = {};
    duplicates_ = 0;
    entries_.clear();
    index_.clear();

    // O_APPEND places every write at end-of-file, so two handles on
    // one path interleave whole records instead of overwriting each
    // other through stale offsets.
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd_ < 0)
        ioFail("cannot open record log", path);
    try {
        scrubLocked();
    } catch (...) {
        ::close(fd_);
        fd_ = -1;
        throw;
    }
}

void
RecordLog::scrubLocked()
{
    RecordReader reader(path_);
    if (!reader.isOpen())
        journalFail("cannot scan record log", path_);
    std::string line;
    if (!reader.next(line)) {
        // New or empty file, or one torn before its header was whole:
        // start it over.
        if (reader.tornTail())
            ++scrub_.truncated;
        if (::ftruncate(fd_, 0) != 0)
            ioFail("cannot reset record log", path_);
        writeLocked(header_ + "\n");
        return;
    }

    // The header stays plain JSON, identifiable by eye. One that does
    // not parse means the file's identity cannot be trusted: refuse it
    // rather than guess, and leave its records on disk.
    std::string mismatch;
    try {
        const stats::JsonValue have = stats::JsonValue::parse(line);
        const stats::JsonValue expected = stats::JsonValue::parse(header_);
        for (const auto &[key, want] : expected.asObject()) {
            const std::string got = scalarText(have.at(key));
            if (got != scalarText(want)) {
                mismatch = "header field '" + key + "' is " + got +
                           ", expected " + scalarText(want);
                break;
            }
        }
    } catch (const std::runtime_error &e) {
        throw sim::SimException(
            sim::ErrorCode::kStoreCorrupt,
            std::string("header failed integrity validation: ") +
                e.what(),
            path_);
    }
    if (!mismatch.empty())
        journalFail(mismatch, path_);

    QuarantineSidecar quarantine(path_);
    while (reader.next(line)) {
        if (line.empty())
            continue;
        ++scrub_.scanned;
        // A record that fails its frame/CRC, or, unframed, its JSON,
        // is quarantined and skipped; every intact record after it is
        // still indexed. Only the unterminated tail below is cut.
        const UnframedRecord record = unframeRecord(line);
        std::string reason = record.reason;
        std::optional<JournalEntry> entry;
        if (record.kind != RecordKind::kCorrupt) {
            try {
                entry = journalEntryFromLine(std::string(record.payload));
            } catch (const sim::SimException &e) {
                reason = e.error().message;
            }
        }
        if (!entry) {
            ++scrub_.quarantined;
            quarantine.add(line);
            GRIT_LOG(sim::LogLevel::kWarn,
                     "record log " + path_ + ": quarantined record " +
                         std::to_string(scrub_.scanned) + " (" + reason +
                         ") -> " + quarantine.path());
            continue;
        }
        ++scrub_.valid;
        if (index_.count(entry->fingerprint) != 0) {
            ++duplicates_;
            continue;
        }
        const JournalEntry &kept = entries_.emplace_back(std::move(*entry));
        index_.emplace(kept.fingerprint, &kept);
    }

    // Cut an unterminated torn tail (crash mid-append) so the next
    // append starts on a clean line instead of concatenating onto it.
    if (reader.tornTail()) {
        ++scrub_.truncated;
        GRIT_LOG(sim::LogLevel::kWarn,
                 "record log " + path_ + ": truncating torn tail at byte " +
                     std::to_string(reader.terminatedBytes()));
        if (::ftruncate(fd_, static_cast<off_t>(
                                 reader.terminatedBytes())) != 0)
            ioFail("cannot truncate torn tail", path_);
    }
}

void
RecordLog::writeLocked(const std::string &bytes)
{
    if (::write(fd_, bytes.data(), bytes.size()) !=
        static_cast<ssize_t>(bytes.size()))
        ioFail("record log append failed", path_);
    if (::fsync(fd_) != 0)
        ioFail("record log fsync failed", path_);
}

bool
RecordLog::isOpen() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return fd_ >= 0;
}

std::size_t
RecordLog::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return index_.size();
}

ScrubStats
RecordLog::scrubStats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return scrub_;
}

const JournalEntry *
RecordLog::find(const std::string &fingerprint) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(fingerprint);
    return it == index_.end() ? nullptr : it->second;
}

void
RecordLog::append(const JournalEntry &entry)
{
    const std::string line = frameRecord(journalLine(entry)) + "\n";
    std::lock_guard<std::mutex> lock(mutex_);
    if (fd_ < 0)
        journalFail("append to a record log that was never opened", path_);
    if (index_.count(entry.fingerprint) != 0)
        return;
    writeLocked(line);
    const JournalEntry &kept = entries_.emplace_back(entry);
    index_.emplace(kept.fingerprint, &kept);
}

RecordLog::CompactionStats
RecordLog::compact()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (fd_ < 0)
        journalFail("compact a record log that was never opened", path_);

    // entries_ already holds exactly the first-wins survivors in
    // append order: quarantined lines were never indexed and later
    // duplicates only counted. Nothing in memory changes until the
    // rename lands, so a failed compaction (ENOSPC, EPERM, ...) leaves
    // the live log fully usable.
    CompactionStats stats;
    stats.kept = entries_.size();
    stats.duplicatesDropped = duplicates_;
    stats.recordsIn = stats.kept + stats.duplicatesDropped;

    const std::string tempPath = path_ + ".compact";
    const int tmp = ::open(tempPath.c_str(),
                           O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (tmp < 0)
        ioFail("cannot create compaction temp", tempPath);
    std::string image = header_ + "\n";
    for (const JournalEntry &entry : entries_)
        image += frameRecord(journalLine(entry)) + "\n";
    const bool written =
        ::write(tmp, image.data(), image.size()) ==
            static_cast<ssize_t>(image.size()) &&
        ::fsync(tmp) == 0;
    const int writeErr = errno;  // before close(), which may clobber it
    ::close(tmp);
    if (!written) {
        ::unlink(tempPath.c_str());
        ioFail("compaction write failed", tempPath, writeErr);
    }
    // Atomic cutover: readers and restarts see either the old complete
    // file or the new complete file, never a half-rewritten one.
    if (::rename(tempPath.c_str(), path_.c_str()) != 0) {
        const int err = errno;
        ::unlink(tempPath.c_str());
        ioFail("compaction rename failed", path_, err);
    }
    fsyncParentDir(path_);
    duplicates_ = 0;

    ::close(fd_);
    fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd_ < 0)
        ioFail("cannot reopen compacted record log", path_);
    return stats;
}

void
RecordLog::close()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

void
RunJournal::open(const std::string &path, const std::string &generator,
                 bool resume)
{
    if (!resume)
        std::ofstream(path, std::ios::out | std::ios::trunc);
    std::ostringstream header;
    stats::JsonWriter w(header);
    w.beginObject();
    w.key("schema").value(kSchemaName);
    w.key("version").value(std::uint64_t{kSchemaVersion});
    w.key("generator").value(generator);
    w.endObject();
    RecordLog::open(path, header.str());
}

}  // namespace grit::harness
