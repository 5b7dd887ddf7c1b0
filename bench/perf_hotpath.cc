/**
 * @file
 * Hot-path microbenchmarks: wall-clock throughput of the four loops
 * that dominate simulation time — event dispatch through the calendar
 * queue, page-table fault service, PA-Table lookup churn, and replica
 * directory churn — plus one end-to-end Figure-17 smoke cell (GEMM
 * under GRIT).
 *
 * Also here: the million-page scale cell (docs/PERFORMANCE.md,
 * "Scaling footprints") — the SCALE workload streamed through
 * GeneratedTraceStreams into the simulator with every one of its ~10^6
 * pages resident at once, stressing the per-page store and the
 * calendar queue at production footprint. Peak RSS is recorded so CI
 * can assert the streamed path stays memory-bounded.
 *
 * Unlike every other bench binary this one measures *host* performance,
 * not simulated metrics, so its numbers vary run to run and machine to
 * machine; the simulation results it produces along the way remain
 * bit-identical. Results go to stdout and, by default, to
 * BENCH_hotpath.json as a "tables" grit-results document
 * (schema-checked in CI by the perf-smoke job). `--quick` shrinks the
 * iteration counts for CI smoke runs.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/pa_table.h"
#include "harness/simulator.h"
#include "mem/page_table.h"
#include "simcore/event_queue.h"
#include "uvm/replica_directory.h"
#include "workload/generators.h"
#include "workload/trace_stream.h"

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Peak resident set size in bytes (Linux ru_maxrss is in KiB). */
std::uint64_t
peakRssBytes()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
}

/** One microbenchmark outcome. */
struct Sample
{
    std::string loop;
    std::uint64_t ops = 0;
    double seconds = 0.0;
    std::string unit;

    double
    rate() const
    {
        return seconds > 0.0 ? static_cast<double>(ops) / seconds : 0.0;
    }
};

/**
 * Self-rescheduling event: hops forward by a stride that alternates
 * between near (same calendar window) and far (overflow heap) targets,
 * so dispatch, bucket scans, and window refills are all on the clock.
 */
struct Hopper
{
    grit::sim::EventQueue *queue;
    std::uint64_t *executed;
    std::uint64_t limit;

    void
    operator()() const
    {
        if (++*executed >= limit)
            return;
        const grit::sim::Cycle stride =
            (*executed % 7 == 0) ? 100000 : 1 + (*executed % 13);
        queue->scheduleAfter(stride, *this, "hop");
    }
};

Sample
benchEventDispatch(std::uint64_t events)
{
    grit::sim::EventQueue queue;
    std::uint64_t executed = 0;
    // 64 independent chains keep several buckets and the overflow heap
    // populated at once, like a multi-GPU simulation does.
    for (unsigned chain = 0; chain < 64; ++chain)
        queue.schedule(1 + chain, Hopper{&queue, &executed, events},
                       "hop");
    const auto start = std::chrono::steady_clock::now();
    queue.run();
    return {"event_dispatch", executed, secondsSince(start),
            "events/sec"};
}

Sample
benchFaultService(std::uint64_t faults)
{
    // The local-page-fault service pattern against a GPU page table:
    // miss lookup, install, remote flip, invalidate, re-install; a
    // rolling window of live pages keeps the table near its steady
    // simulation size while erases exercise tombstone reuse.
    grit::mem::PageTable table;
    constexpr std::uint64_t kLivePages = 1 << 15;
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < faults; ++i) {
        const grit::sim::PageId page = i % (kLivePages * 2);
        if (!table.translates(page))
            table.install(page, grit::mem::MappingKind::kLocal,
                          /*location=*/0, /*writable=*/true);
        else if (i % 5 == 0)
            table.invalidate(page);
        else if (i % 11 == 0)
            table.erase(page);
        else
            table.install(page, grit::mem::MappingKind::kRemote,
                          /*location=*/1, /*writable=*/false);
    }
    return {"fault_service", faults, secondsSince(start), "faults/sec"};
}

Sample
benchPaTable(std::uint64_t lookups)
{
    // The PA-Table's life cycle from Section V-C: one find per fault,
    // counter bumps via put, erase at the decision threshold — an
    // insert/erase churn that hammers cell recycling.
    grit::core::PaTable table;
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < lookups; ++i) {
        const grit::sim::PageId vpn = (i * 2654435761u) % (1 << 16);
        const grit::core::PaEntry *entry = table.find(vpn);
        grit::core::PaEntry next = entry ? *entry : grit::core::PaEntry{};
        ++next.faultCounter;
        next.writeSeen |= (i & 3) == 0;
        if (next.faultCounter >= 4)
            table.erase(vpn);
        else
            table.put(vpn, next);
    }
    return {"pa_table", lookups, secondsSince(start), "lookups/sec"};
}

Sample
benchReplicaDirectory(std::uint64_t ops)
{
    // Duplication-policy churn: grant replicas round-robin across
    // GPUs, revoke on simulated writes, collapse everything on a
    // migration — with info() pointer lookups interleaved as the
    // driver does on every fault.
    grit::uvm::ReplicaDirectory directory;
    constexpr unsigned kGpus = 4;
    constexpr std::uint64_t kPages = 1 << 14;
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < ops; ++i) {
        const grit::sim::PageId page = i % kPages;
        const auto gpu = static_cast<grit::sim::GpuId>(i % kGpus);
        const auto now = static_cast<grit::sim::Cycle>(i);
        grit::uvm::PageInfo &info = directory.info(page);
        info.touched = true;
        if (i % 17 == 0)
            directory.clearReplicas(page, now);
        else if (i % 5 == 0)
            directory.removeReplica(page, gpu, now);
        else if (static_cast<unsigned>(gpu) !=
                 static_cast<unsigned>(info.owner))
            directory.addReplica(page, gpu, now);
    }
    return {"replica_directory", ops, secondsSince(start), "ops/sec"};
}

/** End-to-end fig17 smoke cell: GEMM under GRIT, default params. */
Sample
benchEndToEnd(std::uint64_t *accesses, double *accessRate)
{
    const auto params = grit::bench::benchParams();
    const auto config = grit::harness::makeConfig(
        grit::harness::PolicyKind::kGrit, 4);
    const auto start = std::chrono::steady_clock::now();
    const grit::harness::RunResult result =
        grit::harness::runApp(grit::workload::AppId::kGemm, config,
                              params);
    const double sec = secondsSince(start);
    *accesses = result.accesses;
    *accessRate = sec > 0.0 ? static_cast<double>(result.accesses) / sec
                            : 0.0;
    return {"end_to_end_fig17", result.eventsExecuted, sec,
            "events/sec"};
}

/** What the million-page cell produced besides its Sample. */
struct ScaleCellStats
{
    std::uint64_t pages = 0;
    std::uint64_t accesses = 0;
    std::uint64_t batched = 0;
    double accessRate = 0.0;
};

/**
 * Million-page scale cell: every page of a ~10^6-page footprint is
 * resident at once (memoryFraction 0 disables capacity eviction, so
 * the per-page tables grow to full size), replayed from bounded
 * GeneratedTraceStreams — peak trace memory is a few chunks per GPU,
 * never the whole multi-million-access trace.
 */
Sample
benchMillionPages(bool quick, ScaleCellStats *stats)
{
    grit::workload::ScaleParams sp;
    sp.pages = 1u << 20;
    sp.randomPerGpu = quick ? (1u << 17) : (1u << 19);
    sp.sharedPerGpu = quick ? (1u << 13) : (1u << 15);

    auto config = grit::harness::makeConfig(
        grit::harness::PolicyKind::kGrit, sp.numGpus);
    config.memoryFraction = 0.0;

    grit::workload::StreamedWorkload sw;
    sw.meta = grit::workload::scaleWorkloadShell(sp);
    grit::workload::CountingSink counting(sp.numGpus);
    grit::workload::generateScaleTrace(sp, counting);
    sw.accesses = counting.counts();
    for (unsigned g = 0; g < sp.numGpus; ++g) {
        sw.streams.push_back(
            std::make_unique<grit::workload::GeneratedTraceStream>(
                [sp](grit::workload::TraceSink &sink) {
                    grit::workload::generateScaleTrace(sp, sink);
                },
                g, /*chunk_accesses=*/65536));
    }

    grit::harness::Simulator simulator(config, std::move(sw));
    const auto start = std::chrono::steady_clock::now();
    const grit::harness::RunResult result = simulator.run();
    const double sec = secondsSince(start);

    stats->pages = sp.pages;
    stats->accesses = result.accesses;
    stats->batched = result.accessesBatched;
    stats->accessRate =
        sec > 0.0 ? static_cast<double>(result.accesses) / sec : 0.0;
    return {"million_pages", result.eventsExecuted, sec, "events/sec"};
}

std::string
fmtRate(double rate)
{
    return grit::harness::TextTable::fmt(rate / 1e6, 3) + "M";
}

int
run(const grit::bench::BenchArgs &args, bool quick)
{
    using grit::harness::TextTable;

    const std::uint64_t scale = quick ? 1 : 8;
    std::vector<Sample> samples;
    samples.push_back(benchEventDispatch(scale * 1000000));
    samples.push_back(benchFaultService(scale * 2000000));
    samples.push_back(benchPaTable(scale * 4000000));
    samples.push_back(benchReplicaDirectory(scale * 2000000));
    std::uint64_t e2eAccesses = 0;
    double e2eAccessRate = 0.0;
    samples.push_back(benchEndToEnd(&e2eAccesses, &e2eAccessRate));
    ScaleCellStats scale_stats;
    samples.push_back(benchMillionPages(quick, &scale_stats));
    const std::uint64_t rssBytes = peakRssBytes();

    std::cout << "Hot-path throughput ("
              << (quick ? "quick" : "full") << " scale; host "
              << "wall-clock, not simulated time)\n\n";
    TextTable table({"loop", "ops", "seconds", "rate"});
    for (const Sample &s : samples)
        table.addRow({s.loop, std::to_string(s.ops),
                      TextTable::fmt(s.seconds, 3),
                      fmtRate(s.rate()) + " " + s.unit});
    table.print(std::cout);
    std::cout << "\nend-to-end accesses/sec: " << fmtRate(e2eAccessRate)
              << "\nmillion-page cell: " << scale_stats.pages
              << " pages, " << scale_stats.accesses << " accesses ("
              << fmtRate(scale_stats.accessRate) << " accesses/sec, "
              << scale_stats.batched << " batched inline)"
              << "\npeak RSS: " << rssBytes / (1024 * 1024) << " MiB\n";

    grit::harness::NamedTable json;
    json.name = "hotpath";
    json.columns = {"loop", "ops", "seconds", "rate_per_sec", "unit"};
    for (const Sample &s : samples)
        json.rows.push_back({s.loop, std::to_string(s.ops),
                             TextTable::fmt(s.seconds, 6),
                             TextTable::fmt(s.rate(), 1), s.unit});
    json.rows.push_back({"end_to_end_fig17_accesses",
                         std::to_string(e2eAccesses), "",
                         TextTable::fmt(e2eAccessRate, 1),
                         "accesses/sec"});
    json.rows.push_back({"million_pages_footprint",
                         std::to_string(scale_stats.pages), "", "",
                         "pages"});
    json.rows.push_back({"million_pages_accesses",
                         std::to_string(scale_stats.accesses), "",
                         TextTable::fmt(scale_stats.accessRate, 1),
                         "accesses/sec"});
    json.rows.push_back({"million_pages_batched",
                         std::to_string(scale_stats.batched), "", "",
                         "accesses"});
    json.rows.push_back(
        {"peak_rss", std::to_string(rssBytes), "", "", "bytes"});
    grit::bench::maybeWriteJsonTables(
        args, "perf_hotpath", "Hot-path throughput microbenchmarks",
        grit::bench::benchParams(), {json});
    return 0;
}

}  // namespace

int
main(int argc, char **argv)
{
    grit::bench::BenchArgs args("perf_hotpath",
                                "hot-path throughput microbenchmarks",
                                grit::bench::BenchArgs::Kind::kReport);
    args.jsonPath = "BENCH_hotpath.json";  // default; --json overrides
    bool quick = false;
    args.cli.flag("--quick", &quick,
                  "smaller iteration counts for CI smoke runs");
    return grit::bench::guardedMain(argc, argv, args,
                                    [&] { return run(args, quick); });
}
