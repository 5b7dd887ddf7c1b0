/**
 * @file
 * Top-level system configuration: Table I defaults plus policy
 * selection and feature flags, aggregated from the per-module configs.
 */

#ifndef GRIT_HARNESS_CONFIG_H_
#define GRIT_HARNESS_CONFIG_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "baselines/gps.h"
#include "baselines/griffin.h"
#include "baselines/tree_prefetcher.h"
#include "core/grit_policy.h"
#include "gpu/gpu.h"
#include "interconnect/topology.h"
#include "mem/page_geometry.h"
#include "simcore/fault_injector.h"
#include "simcore/sim_error.h"
#include "simcore/types.h"
#include "uvm/uvm_driver.h"

namespace grit::sim {
class TraceRecorder;
}  // namespace grit::sim

namespace grit::harness {

/** Selectable placement policies / systems. */
enum class PolicyKind {
    kOnTouch,
    kAccessCounter,
    kDuplication,
    kFirstTouch,
    kIdeal,
    kGrit,
    kGriffinDpc,
    kGps,
};

/** Printable policy name (matches the paper's legends). */
const char *policyKindName(PolicyKind kind);

/** Parse a policy name (case-insensitive; e.g. "grit", "on-touch"). */
std::optional<PolicyKind> policyKindFromName(const std::string &name);

/** Complete configuration of one simulated system. */
struct SystemConfig
{
    unsigned numGpus = 4;
    /**
     * The single source of page-size truth (docs/PAGESIZE.md): the base
     * translation granule (4 KB default; raise it for fixed-large-page
     * studies) plus the optional dynamic huge-page promote/splinter
     * mode. Passed down to the GPUs and the UVM driver by reference —
     * there are deliberately no per-layer pageSize copies to drift.
     */
    mem::PageGeometry geometry{};
    /**
     * Aggregate GPU memory as a fraction of the workload footprint
     * (Table I: 70 %), divided evenly among the GPUs. Zero disables
     * the capacity limit.
     */
    double memoryFraction = 0.70;

    PolicyKind policy = PolicyKind::kOnTouch;

    gpu::GpuConfig gpu{};
    uvm::UvmConfig uvm{};
    /**
     * Interconnect model: fabric.kind selects the topology (all-to-all
     * by default; ring, switch, chiplet — docs/TOPOLOGY.md) and the
     * rest are its parameters. Simulator builds one ic::Topology from
     * it.
     */
    ic::FabricConfig fabric{};
    core::GritConfig grit{};
    baselines::GriffinConfig griffin{};
    baselines::GpsConfig gps{};

    /** Attach the tree-based neighborhood prefetcher (Section VI-E). */
    bool prefetch = false;
    baselines::PrefetcherConfig prefetcher{};

    /**
     * Run a lane's next access inline inside its predecessor's event
     * whenever no other pending event could interleave (strictly
     * earlier next-event timestamp). Event-queue pressure then scales
     * with page transitions — fault storms and drain tails — instead of
     * raw accesses. Results are bit-identical either way; the flag
     * exists so tests can prove that.
     */
    bool batchAccesses = true;

    /**
     * Page-event timeline recorder (Chrome trace export); nullptr
     * disables tracing. Non-owning; the recorder is not thread-safe, so
     * never share one across concurrently running simulators.
     */
    sim::TraceRecorder *trace = nullptr;

    /**
     * Window width of the per-run event timeline ("timeline" in the
     * JSON); 0 samples none.
     */
    sim::Cycle timelineIntervalCycles = 0;

    /**
     * Chaos fault-injection spec (see sim::ChaosSpec::parse and
     * docs/ROBUSTNESS.md). Held by value so every Simulator builds its
     * own injector — chaos runs stay deterministic under any
     * experiment-engine thread count. Default-constructed = inert.
     */
    sim::ChaosSpec chaos{};

    /** Run cross-layer invariant audits (sim::InvariantAuditor). */
    bool audit = false;

    /**
     * Export per-link fabric accounting (`fabric.*` counters: bytes
     * and busy cycles per link, message/control-plane totals) into the
     * run's counter set. Off by default so classic documents — and the
     * determinism goldens — stay byte-identical.
     */
    bool fabricStats = false;

    /**
     * Export translation accounting (`tlb.*` hit/miss aggregates and
     * `pwc.*` walk-cache totals) plus the `promote.*`/`splinter.*`
     * rows even when zero. Off by default for the same golden-identity
     * reason as fabricStats; the fig_pagesize sweep turns it on.
     */
    bool pageSizeStats = false;

    /**
     * Period of in-run audits; 0 audits only at end of run. Only
     * meaningful with audit = true.
     */
    sim::Cycle auditIntervalCycles = 0;

    /**
     * Liveness watchdog: abort the run with a structured kNoProgress
     * diagnostic after this many events execute without simulated time
     * advancing. 0 disables.
     */
    std::uint64_t watchdogSameCycleEvents = 2'000'000;

    /**
     * Per-run wall-clock deadline in seconds; 0 disables. Polled as a
     * cooperative EventQueue cancel (never an abort): a run that
     * exceeds it stops between events with a structured kDeadline
     * diagnostic, so a hung run becomes a quarantinable timeout.
     */
    double wallDeadlineSec = 0.0;

    /**
     * Per-run executed-event budget; 0 disables. Reuses the event
     * queue's limit machinery but reports kDeadline (a per-run
     * watchdog) instead of kEventLimit (the global safety valve).
     */
    std::uint64_t eventBudget = 0;

    /**
     * External cooperative-cancel flag, e.g. set by a SIGINT/SIGTERM
     * handler; a nonzero value requests drain and the run stops with a
     * kInterrupted diagnostic naming the signal. Non-owning; must
     * outlive the run.
     */
    const std::atomic<int> *cancelFlag = nullptr;

    /**
     * Check every knob combination this config can express.
     * @return all violations (empty when the config is usable);
     *         Simulator construction throws on a non-empty result.
     */
    std::vector<sim::SimError> validate() const;
};

/** Table I defaults for @p policy and @p num_gpus. */
SystemConfig makeConfig(PolicyKind policy, unsigned num_gpus = 4);

}  // namespace grit::harness

#endif  // GRIT_HARNESS_CONFIG_H_
