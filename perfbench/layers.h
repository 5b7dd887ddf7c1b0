/**
 * @file
 * Driving one simulated cell through the public Simulator API, and the
 * per-layer metrics of a traced run.
 *
 * Simulated per-layer values are read from the components' accessors
 * (Simulator::gpuAt/driver/policy) and the run's counter snapshot after
 * each cell, and from the TraceRecorder's fault/walk/transfer events.
 * Host cost per operation of the page-keyed structures is timed by
 * replaying the recorded page ids through standalone instances of the
 * layer's public class, sized like the simulated ones.
 */

#ifndef GRIT_PERFBENCH_LAYERS_H_
#define GRIT_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/config.h"
#include "harness/simulator.h"
#include "report.h"
#include "simcore/trace_recorder.h"
#include "workload/trace_stream.h"

namespace perfbench {

/** A cell the benchmark runs on its own Simulator. */
struct CellInput
{
    std::string row;
    std::string label;
    grit::harness::SystemConfig config;
    grit::workload::Workload shell;           //!< metadata, traces empty
    grit::workload::TraceGenerator generator; //!< full multi-GPU trace
};

/** Accesses per streamed chunk (the library's default). */
inline constexpr std::uint64_t kChunkAccesses = 65536;

/** A cell after set-up: counted, streamed, Simulator constructed. */
struct PreparedCell
{
    std::vector<std::uint64_t> counted;  //!< per-GPU counting-pass totals
    std::uint64_t countedTotal = 0;
    double countS = 0.0;  //!< host seconds of the counting pass
    std::unique_ptr<grit::harness::Simulator> simulator;
};

/**
 * The set-up before a cell's first event: the counting pass (span
 * workload.count), one generated stream per GPU and the Simulator
 * (enclosing span harness.setup). @p trace and @p audit switch on the
 * recorder and the invariant auditor for traced runs.
 */
PreparedCell prepareCell(const CellInput &cell, SpanLog &spans,
                         grit::sim::TraceRecorder *trace = nullptr,
                         bool audit = false);

/** Value of counter @p name in @p result's snapshot (0 when absent). */
std::uint64_t counterValue(const grit::harness::RunResult &result,
                           const std::string &name);

/** Simulated local + protection faults, cycles and latency breakdown of
 *  @p result as one comparable line. */
std::string simulatedDigest(const grit::harness::RunResult &result);

/** A recorder big enough to keep every event of a run of @p accesses. */
std::unique_ptr<grit::sim::TraceRecorder>
makeRecorder(std::uint64_t accesses);

/** Accumulates the per-layer metrics over the cells of a traced run. */
class LayerStats
{
  public:
    /** Fold in one finished traced cell. */
    void add(grit::harness::Simulator &simulator,
             const grit::harness::RunResult &result,
             const grit::sim::TraceRecorder &recorder);

    /**
     * Time the standalone structures on the recorded page ids and write
     * every per-layer metric into @p report.
     */
    void finish(Report &report) const;

  private:
    /** What one cell recorded for the standalone replays. */
    struct CellKeys
    {
        std::vector<grit::sim::PageId> translations;  //!< walk + fault ids
        std::vector<grit::sim::PageId> faults;
        unsigned l2TlbEntries = 0;
        unsigned l2TlbWays = 0;
        std::uint64_t dramCapacity = 0;  //!< pages; 0 = unbounded
        bool grit = false;
    };

    std::vector<CellKeys> cells_;
    std::vector<std::uint64_t> faultCycles_;
    std::vector<std::uint64_t> walkCycles_;
    std::vector<std::uint64_t> transferCycles_;
    std::uint64_t dropped_ = 0;

    std::uint64_t accesses_ = 0;
    std::uint64_t events_ = 0;
    std::uint64_t batched_ = 0;
    std::uint64_t faults_ = 0;
    std::uint64_t l1Hits_ = 0, l1Misses_ = 0;
    std::uint64_t l2Hits_ = 0, l2Misses_ = 0;
    std::uint64_t cacheHits_ = 0, cacheMisses_ = 0;
    std::uint64_t pwcHits_ = 0, pwcMisses_ = 0;
    std::uint64_t walks_ = 0, walkQueueDelay_ = 0, flushes_ = 0;
    std::uint64_t pageTableEntries_ = 0, dramEvictions_ = 0;
    std::uint64_t coalesced_ = 0, migrations_ = 0, duplications_ = 0;
    std::uint64_t collapses_ = 0, staleReplays_ = 0, serverQueueDelay_ = 0;
    std::uint64_t directoryEntries_ = 0;
    std::uint64_t paHits_ = 0, paMisses_ = 0, paEntries_ = 0;
    std::uint64_t triggers_ = 0, schemeChanges_ = 0;
    bool sawGrit_ = false;
    std::uint64_t nvlinkBytes_ = 0, pcieBytes_ = 0, messages_ = 0;
};

/**
 * Drain every per-GPU stream of @p cell standalone (span
 * workload.generate); returns the accesses yielded.
 */
std::uint64_t drainStreams(const CellInput &cell, SpanLog &spans);

}  // namespace perfbench

#endif  // GRIT_PERFBENCH_LAYERS_H_
