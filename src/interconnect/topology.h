/**
 * @file
 * The interconnect: one fabric model, four topologies.
 *
 * Placement policies are only as credible as the fabric they are
 * evaluated on, so the fabric is a first-class model. The four
 * selectable topologies differ only in which links exist and which of
 * them a (src, dst) pair crosses:
 *
 *  - all-to-all: per-GPU NVLink ports into a full mesh, the historical
 *    default;
 *  - ring: directed ring segments with multi-hop shortest-arc routing;
 *  - switch: per-GPU ports into a shared electrical crossbar with
 *    output-port contention and a configurable radix;
 *  - chiplet: cheap intra-chiplet links, expensive cross-interposer
 *    bridges.
 *
 * The constructor names a topology's links and route() lists the hops
 * a transfer takes; everything else — the host PCIe attachment, the
 * control-message virtual channel (latency-only, counted per message
 * and per byte), the chaos FaultInjector hooks (applied per hop), the
 * TraceRecorder hooks and the per-link byte/busy-cycle accounting
 * exported as `fabric.*` counters — is written once (docs/TOPOLOGY.md,
 * docs/METRICS.md).
 */

#ifndef GRIT_INTERCONNECT_TOPOLOGY_H_
#define GRIT_INTERCONNECT_TOPOLOGY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "interconnect/link.h"
#include "simcore/types.h"

namespace grit::sim {
class FaultInjector;
class TraceRecorder;
}  // namespace grit::sim

namespace grit::ic {

/** Selectable interconnect topologies. */
enum class TopologyKind {
    kAllToAll,
    kRing,
    kSwitch,
    kChiplet,
};

/** Printable topology name ("all-to-all", "ring", ...). */
const char *topologyKindName(TopologyKind kind);

/** Parse a topology name (case-insensitive). */
std::optional<TopologyKind> topologyKindFromName(const std::string &name);

/** All selectable kinds, in declaration order (for sweeps). */
inline constexpr TopologyKind kAllTopologyKinds[] = {
    TopologyKind::kAllToAll,
    TopologyKind::kRing,
    TopologyKind::kSwitch,
    TopologyKind::kChiplet,
};

/**
 * Fabric configuration: the topology kind plus the parameters of every
 * model (only the selected kind's parameters are read; validation is
 * equally selective).
 */
struct FabricConfig
{
    TopologyKind kind = TopologyKind::kAllToAll;
    unsigned numGpus = 4;

    // All-to-all / ring / switch GPU ports (Table I NVLink-v2).
    double nvlinkGBs = 300.0;        //!< per-port bandwidth
    sim::Cycle nvlinkLatency = 700;  //!< one-way latency (cycles)

    // Host attachment, shared by every topology (Table I PCIe-v4).
    double pcieGBs = 32.0;
    sim::Cycle pcieLatency = 1000;

    // Electrical switch: GPUs feed a shared crossbar; GPU g drains
    // from output port (g % switchRadix), so a radix below numGpus
    // oversubscribes ports and two senders to one receiver always
    // serialize on its port.
    unsigned switchRadix = 8;        //!< crossbar output ports
    double switchGBs = 300.0;        //!< per-output-port bandwidth
    sim::Cycle switchLatency = 100;  //!< crossbar traversal latency

    // Chiplet/interposer: GPUs are grouped into chiplets; intra-chiplet
    // links are short and wide, cross-interposer bridges long and
    // narrow (the local-vs-remote HBM asymmetry).
    unsigned gpusPerChiplet = 2;
    double chipletGBs = 600.0;            //!< intra-chiplet link bandwidth
    sim::Cycle chipletLatency = 200;      //!< intra-chiplet latency
    double interposerGBs = 100.0;         //!< per-chiplet bridge bandwidth
    sim::Cycle interposerLatency = 1200;  //!< cross-interposer latency
};

/** One link's accounting snapshot (linkStats() enumeration). */
struct LinkStat
{
    std::string name;           //!< diagnostic link name ("gpu0.ring.cw")
    std::uint64_t bytes = 0;    //!< payload bytes moved through the pipe
    sim::Cycle busyCycles = 0;  //!< cycles the pipe was occupied
};

/**
 * The interconnect: moves bulk payloads and control messages between
 * GPUs (and the host) over the links of the topology @p config selects.
 */
class Topology
{
  public:
    explicit Topology(const FabricConfig &config);

    Topology(const Topology &) = delete;
    Topology &operator=(const Topology &) = delete;

    TopologyKind kind() const { return config_.kind; }

    /**
     * Move @p bytes from @p src to @p dst (either may be sim::kHostId).
     * Occupies every link on the route, hop by hop and stage by stage
     * (store-and-forward).
     * @return delivery completion time.
     */
    sim::Cycle transfer(sim::Cycle now, sim::GpuId src, sim::GpuId dst,
                        std::uint64_t bytes);

    /**
     * Control message (fault descriptor, invalidation, ack...). Control
     * packets ride a dedicated virtual channel: pure propagation
     * latency, never queued behind bulk page DMAs. Counted per message
     * and per byte (messages()/messageBytes()).
     */
    sim::Cycle message(sim::Cycle now, sim::GpuId src, sim::GpuId dst,
                       std::uint64_t bytes = 64);

    /**
     * One-way latency between @p src and @p dst with no queuing: the
     * latencies along the route transfer() takes.
     */
    sim::Cycle flightLatency(sim::GpuId src, sim::GpuId dst) const;

    unsigned numGpus() const { return config_.numGpus; }

    /**
     * Total payload bytes moved over the GPU-side fabric, counted once
     * per hop: a payload crossing k ring segments counts k times
     * (occupancy, not goodput).
     */
    std::uint64_t nvlinkBytes() const { return nvlinkBytes_; }

    /** Total payload bytes moved over PCIe. */
    std::uint64_t pcieBytes() const;

    /** Control messages sent so far. */
    std::uint64_t messages() const { return messages_; }

    /** Control-plane bytes carried by those messages. */
    std::uint64_t messageBytes() const { return messageBytes_; }

    /**
     * Every link's accounting snapshot, PCIe last, in construction
     * order (the `fabric.*` counter export).
     */
    std::vector<LinkStat> linkStats() const;

    /** Record bulk transfers as trace events; nullptr disables. */
    void setTrace(sim::TraceRecorder *trace) { trace_ = trace; }

    /** Attach the chaos fault injector; nullptr disables (default). */
    void setInjector(sim::FaultInjector *injector) { injector_ = injector; }

    /**
     * Forget all occupancy and accounting — links, message counters,
     * control-plane bytes (a fresh simulation run).
     */
    void reset();

    /** Bounded exponential backoff while a chaos-flapped link is down. */
    static constexpr sim::Cycle kRetryBackoffCycles = 500;
    static constexpr unsigned kMaxLinkRetries = 8;

  private:
    static constexpr unsigned kNoLink = ~0u;

    /**
     * One store-and-forward stage: one or two links (indices into
     * links_) entered at the same cycle; the slower one delivers.
     */
    struct Stage
    {
        unsigned first = kNoLink;
        unsigned second = kNoLink;
    };

    /**
     * One hop of a route, the unit the chaos injector and the trace
     * see: up to three stages, each entered when the previous one
     * delivered.
     */
    struct Hop
    {
        sim::GpuId to;
        Stage stages[3];
    };

    /** The hop a payload at @p at bound for @p dst takes next. */
    Hop route(sim::GpuId at, sim::GpuId dst) const;

    /**
     * Apply the chaos perturbations for one hop @p src → @p dst: a
     * flapped link stalls the transfer with bounded exponential
     * backoff (forced through if the flap outlasts every retry — the
     * simulation must make progress), and degraded-bandwidth windows
     * inflate @p bytes so the payload serializes slower.
     * @return the (possibly delayed) hop start time.
     */
    sim::Cycle chaosAdjust(sim::Cycle now, sim::GpuId src, sim::GpuId dst,
                           std::uint64_t &bytes);

    const FabricConfig config_;
    /**
     * Every link: GPU g's first link at index g, its second (if the
     * topology gives it one) at numGpus + g, then the bridges or switch
     * ports, then pcie.up and pcie.down.
     */
    std::vector<Link> links_;
    unsigned pcieUp_ = 0;  //!< index of pcie.up; pcie.down follows it
    sim::TraceRecorder *trace_ = nullptr;
    sim::FaultInjector *injector_ = nullptr;
    std::uint64_t nvlinkBytes_ = 0;
    std::uint64_t messages_ = 0;
    std::uint64_t messageBytes_ = 0;
};

}  // namespace grit::ic

#endif  // GRIT_INTERCONNECT_TOPOLOGY_H_
