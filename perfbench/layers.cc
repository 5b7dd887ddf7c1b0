#include "layers.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string_view>

#include "core/grit_policy.h"
#include "core/pa_table.h"
#include "gpu/gpu.h"
#include "interconnect/topology.h"
#include "mem/dram_manager.h"
#include "mem/page_table.h"
#include "mem/tlb.h"
#include "stats/latency_breakdown.h"
#include "uvm/replica_directory.h"
#include "uvm/uvm_driver.h"

namespace perfbench {

using namespace grit;

PreparedCell
prepareCell(const CellInput &cell, SpanLog &spans, sim::TraceRecorder *trace,
            bool audit)
{
    SpanLog::Scope setup(spans, "harness.setup");
    const unsigned gpus = cell.config.numGpus;
    PreparedCell prepared;
    {
        SpanLog::Scope count(spans, "workload.count");
        const auto start = Clock::now();
        workload::CountingSink counting(gpus);
        cell.generator(counting);
        prepared.counted = counting.counts();
        prepared.countS = secondsSince(start);
    }
    for (std::uint64_t n : prepared.counted)
        prepared.countedTotal += n;

    workload::StreamedWorkload streamed;
    streamed.meta = cell.shell;
    streamed.accesses = prepared.counted;
    for (unsigned g = 0; g < gpus; ++g)
        streamed.streams.push_back(
            std::make_unique<workload::GeneratedTraceStream>(
                cell.generator, g, kChunkAccesses));

    harness::SystemConfig config = cell.config;
    config.trace = trace;
    config.audit = audit;
    prepared.simulator =
        std::make_unique<harness::Simulator>(config, std::move(streamed));
    return prepared;
}

std::uint64_t
counterValue(const harness::RunResult &result, const std::string &name)
{
    for (const auto &[key, value] : result.counters)
        if (key == name)
            return value;
    return 0;
}

std::string
simulatedDigest(const harness::RunResult &result)
{
    std::ostringstream os;
    os << "cycles=" << result.cycles << " accesses=" << result.accesses
       << " faults=" << result.localFaults << "+" << result.protectionFaults
       << " breakdown=";
    for (unsigned k = 0; k < stats::kLatencyKinds; ++k)
        os << (k ? "," : "")
           << result.breakdown.get(static_cast<stats::LatencyKind>(k));
    return os.str();
}

std::unique_ptr<sim::TraceRecorder>
makeRecorder(std::uint64_t accesses)
{
    // Each access records at most a walk, a fault and a few transfers;
    // the ring grows lazily, so a generous capacity costs nothing
    // unless it is used.
    return std::make_unique<sim::TraceRecorder>(
        static_cast<std::size_t>(std::max<std::uint64_t>(accesses, 1) * 16));
}

void
LayerStats::add(harness::Simulator &simulator,
                const harness::RunResult &result,
                const sim::TraceRecorder &recorder)
{
    const unsigned gpus = simulator.driver().numGpus();
    CellKeys keys;
    for (std::size_t i = 0; i < recorder.size(); ++i) {
        const sim::TraceEvent &e = recorder.at(i);
        const std::string_view name = e.name;
        if (name == "fault") {
            faultCycles_.push_back(e.dur);
            keys.faults.push_back(e.arg);
            keys.translations.push_back(e.arg);
        } else if (name == "walk") {
            walkCycles_.push_back(e.dur);
            keys.translations.push_back(e.arg);
        } else if (name == "transfer") {
            transferCycles_.push_back(e.dur);
        }
    }
    dropped_ += recorder.dropped();

    gpu::Gpu &first = simulator.gpuAt(0);
    keys.l2TlbEntries = first.config().l2TlbEntries;
    keys.l2TlbWays = first.config().l2TlbWays;
    keys.dramCapacity = first.dram().capacity();

    for (unsigned g = 0; g < gpus; ++g) {
        gpu::Gpu &gpu = simulator.gpuAt(g);
        for (const mem::Tlb &tlb : gpu.l1Tlbs()) {
            l1Hits_ += tlb.hits();
            l1Misses_ += tlb.misses();
        }
        l2Hits_ += gpu.l2Tlb().hits();
        l2Misses_ += gpu.l2Tlb().misses();
        cacheHits_ += gpu.l2Cache().hits();
        cacheMisses_ += gpu.l2Cache().misses();
        pwcHits_ += gpu.gmmu().walkCache().hits();
        pwcMisses_ += gpu.gmmu().walkCache().misses();
        walks_ += gpu.gmmu().walks();
        walkQueueDelay_ += gpu.gmmu().walkQueueDelay();
        flushes_ += gpu.flushes();
        pageTableEntries_ += gpu.pageTable().size();
        dramEvictions_ += gpu.dram().evictions();
    }

    uvm::UvmDriver &driver = simulator.driver();
    directoryEntries_ += driver.directory().size();
    serverQueueDelay_ += driver.serverQueueDelay();
    nvlinkBytes_ += driver.fabric().nvlinkBytes();
    pcieBytes_ += driver.fabric().pcieBytes();
    messages_ += driver.fabric().messages();

    accesses_ += result.accesses;
    events_ += result.eventsExecuted;
    batched_ += result.accessesBatched;
    faults_ += result.totalFaults();
    coalesced_ += counterValue(result, "uvm.coalesced_faults");
    migrations_ += counterValue(result, "uvm.migrations");
    duplications_ += counterValue(result, "uvm.duplications");
    collapses_ += counterValue(result, "uvm.collapses");
    staleReplays_ += counterValue(result, "sim.stale_replays");

    if (const auto *grit =
            dynamic_cast<const core::GritPolicy *>(&simulator.policy())) {
        sawGrit_ = true;
        keys.grit = true;
        if (const core::PaCache *cache = grit->paCache()) {
            paHits_ += cache->hits();
            paMisses_ += cache->misses();
        }
        paEntries_ += grit->paTable().size();
        schemeChanges_ += grit->schemeChanges();
        triggers_ += counterValue(result, "grit.triggers");
    }
    cells_.push_back(std::move(keys));
}

namespace {

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
}

/** Nearest-rank percentile @p q (0..100) of @p values (sorted here). */
double
percentile(std::vector<std::uint64_t> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q / 100.0 * static_cast<double>(values.size())));
    return static_cast<double>(values[std::max<std::size_t>(rank, 1) - 1]);
}

/** Host nanoseconds per call of @p body over every replayed key. */
template <typename Body>
double
nsPerOp(std::uint64_t ops, Body &&body)
{
    if (ops == 0)
        return 0.0;
    const auto start = Clock::now();
    body();
    return secondsSince(start) * 1e9 / static_cast<double>(ops);
}

}  // namespace

void
LayerStats::finish(Report &report) const
{
    auto &m = report.layers;
    m["simcore.events"] = static_cast<double>(events_);
    m["simcore.batched_frac"] = ratio(batched_, accesses_);

    m["gpu.l1_tlb_hit_rate"] = ratio(l1Hits_, l1Hits_ + l1Misses_);
    m["gpu.l2_tlb_hit_rate"] = ratio(l2Hits_, l2Hits_ + l2Misses_);
    m["gpu.l2_cache_hit_rate"] =
        ratio(cacheHits_, cacheHits_ + cacheMisses_);
    m["gpu.pwc_hit_rate"] = ratio(pwcHits_, pwcHits_ + pwcMisses_);
    m["gpu.walks"] = static_cast<double>(walks_);
    m["gpu.walk_queue_delay_cycles"] = static_cast<double>(walkQueueDelay_);
    m["gpu.flushes"] = static_cast<double>(flushes_);

    m["mem.page_table_entries"] = static_cast<double>(pageTableEntries_);
    m["mem.dram_evictions"] = static_cast<double>(dramEvictions_);
    m["mem.dram_evictions_per_fault"] = ratio(dramEvictions_, faults_);

    m["uvm.faults_per_kaccess"] = 1000.0 * ratio(faults_, accesses_);
    m["uvm.coalesced_faults"] = static_cast<double>(coalesced_);
    m["uvm.migrations"] = static_cast<double>(migrations_);
    m["uvm.duplications"] = static_cast<double>(duplications_);
    m["uvm.collapses"] = static_cast<double>(collapses_);
    m["uvm.stale_replays"] = static_cast<double>(staleReplays_);
    m["uvm.server_queue_delay_cycles"] =
        static_cast<double>(serverQueueDelay_);
    m["uvm.directory_entries"] = static_cast<double>(directoryEntries_);

    m["interconnect.nvlink_bytes"] = static_cast<double>(nvlinkBytes_);
    m["interconnect.pcie_bytes"] = static_cast<double>(pcieBytes_);
    m["interconnect.messages"] = static_cast<double>(messages_);

    if (dropped_ == 0) {
        m["uvm.fault_p50_cycles"] = percentile(faultCycles_, 50);
        m["uvm.fault_p99_cycles"] = percentile(faultCycles_, 99);
        m["gpu.walk_p99_cycles"] = percentile(walkCycles_, 99);
        m["interconnect.transfer_p99_cycles"] =
            percentile(transferCycles_, 99);
    } else {
        const std::string why = "the trace recorder dropped " +
                                std::to_string(dropped_) +
                                " events, so its distributions are partial";
        for (const char *name :
             {"uvm.fault_p50_cycles", "uvm.fault_p99_cycles",
              "gpu.walk_p99_cycles", "interconnect.transfer_p99_cycles"})
            report.notes[name] = why;
    }
    m["trace.recorder_dropped"] = static_cast<double>(dropped_);

    if (sawGrit_) {
        m["core.pa_cache_hit_rate"] = ratio(paHits_, paHits_ + paMisses_);
        m["core.pa_table_entries"] = static_cast<double>(paEntries_);
        m["core.triggers"] = static_cast<double>(triggers_);
        m["core.scheme_changes"] = static_cast<double>(schemeChanges_);
    } else {
        for (const char *name :
             {"core.pa_cache_hit_rate", "core.pa_table_entries",
              "core.triggers", "core.scheme_changes",
              "core.pa_table.ns_per_op"})
            report.notes[name] = "no GRIT cell in this workload";
    }

    // Standalone replays of the recorded page ids. The checksum keeps
    // the compiler from discarding the work.
    std::uint64_t translations = 0, faults = 0, gritFaultKeys = 0;
    for (const CellKeys &c : cells_) {
        translations += c.translations.size();
        faults += c.faults.size();
        if (c.grit)
            gritFaultKeys += c.faults.size();
    }
    std::uint64_t checksum = 0;
    m["mem.page_table.ns_per_lookup"] = nsPerOp(translations, [&] {
        for (const CellKeys &c : cells_) {
            mem::PageTable table;
            for (sim::PageId page : c.translations)
                if (!table.translates(page))
                    table.install(page, mem::MappingKind::kLocal, 0, true);
            checksum += table.size();
        }
    });
    m["mem.tlb.ns_per_lookup"] = nsPerOp(translations, [&] {
        for (const CellKeys &c : cells_) {
            mem::Tlb tlb("l2", c.l2TlbEntries, c.l2TlbWays, 1);
            for (sim::PageId page : c.translations)
                if (!tlb.lookup(page))
                    tlb.insert(page);
            checksum += tlb.hits();
        }
    });
    m["mem.dram.ns_per_op"] = nsPerOp(faults, [&] {
        for (const CellKeys &c : cells_) {
            mem::DramManager dram(c.dramCapacity);
            for (sim::PageId page : c.faults) {
                if (dram.resident(page))
                    dram.touch(page);
                else
                    dram.insert(page, mem::FrameKind::kOwned);
            }
            checksum += dram.evictions();
        }
    });
    m["uvm.directory.ns_per_op"] = nsPerOp(faults, [&] {
        for (const CellKeys &c : cells_) {
            uvm::ReplicaDirectory directory;
            for (sim::PageId page : c.faults)
                directory.info(page).touched = true;
            checksum += directory.size();
        }
    });
    if (sawGrit_)
        m["core.pa_table.ns_per_op"] = nsPerOp(gritFaultKeys, [&] {
            for (const CellKeys &c : cells_) {
                if (!c.grit)
                    continue;
                core::PaTable table;
                for (sim::PageId page : c.faults) {
                    const core::PaEntry *found = table.find(page);
                    core::PaEntry next = found ? *found : core::PaEntry{};
                    ++next.faultCounter;
                    table.put(page, next);
                }
                checksum += table.size();
            }
        });
    m["replay.checksum"] = static_cast<double>(checksum);

    // Call counts the estimated layer shares are built from (run.py).
    m["calls.page_table"] = static_cast<double>(translations);
    m["calls.tlb"] = static_cast<double>(l1Hits_ + l1Misses_ + l2Hits_ +
                                         l2Misses_);
    m["calls.dram"] = static_cast<double>(faults);
    m["calls.directory"] = static_cast<double>(faults);
    m["calls.pa_table"] = static_cast<double>(gritFaultKeys);
}

std::uint64_t
drainStreams(const CellInput &cell, SpanLog &spans)
{
    SpanLog::Scope generate(spans, "workload.generate");
    std::uint64_t accesses = 0;
    for (unsigned g = 0; g < cell.config.numGpus; ++g) {
        workload::GeneratedTraceStream stream(cell.generator, g,
                                              kChunkAccesses);
        while (workload::ChunkHandle chunk = stream.next())
            accesses += chunk->accesses.size();
    }
    return accesses;
}

}  // namespace perfbench
