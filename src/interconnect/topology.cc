#include "interconnect/topology.h"

#include <algorithm>
#include <cassert>
#include <cctype>

#include "simcore/fault_injector.h"
#include "simcore/trace_recorder.h"

namespace grit::ic {

const char *
topologyKindName(TopologyKind kind)
{
    switch (kind) {
      case TopologyKind::kAllToAll: return "all-to-all";
      case TopologyKind::kRing:     return "ring";
      case TopologyKind::kSwitch:   return "switch";
      case TopologyKind::kChiplet:  return "chiplet";
    }
    return "?";
}

std::optional<TopologyKind>
topologyKindFromName(const std::string &name)
{
    std::string lower;
    lower.reserve(name.size());
    for (char c : name)
        lower.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    for (TopologyKind kind : kAllTopologyKinds) {
        if (lower == topologyKindName(kind))
            return kind;
    }
    return std::nullopt;
}

Topology::Topology(const FabricConfig &config) : config_(config)
{
    const unsigned n = config.numGpus;
    assert(n >= 1);
    // One link per GPU: the first set lands at index g, the second at
    // n + g.
    const auto gpuLinks = [&](const char *suffix, double gbs,
                              sim::Cycle latency) {
        for (unsigned g = 0; g < n; ++g)
            links_.emplace_back("gpu" + std::to_string(g) + suffix, gbs,
                                latency);
    };
    switch (config.kind) {
      case TopologyKind::kAllToAll:
        gpuLinks(".nvlink.out", config.nvlinkGBs, config.nvlinkLatency);
        gpuLinks(".nvlink.in", config.nvlinkGBs, config.nvlinkLatency);
        break;
      case TopologyKind::kRing:
        // cw: g -> g+1 mod n; ccw: g -> g-1 mod n.
        gpuLinks(".ring.cw", config.nvlinkGBs, config.nvlinkLatency);
        gpuLinks(".ring.ccw", config.nvlinkGBs, config.nvlinkLatency);
        break;
      case TopologyKind::kSwitch:
        assert(config.switchRadix >= 1);
        gpuLinks(".sw.out", config.nvlinkGBs, config.nvlinkLatency);
        // Single-channel: an output port is one serializing pipe, so
        // concurrent payloads to the same destination queue behind one
        // another instead of spreading across parallel channels.
        for (unsigned p = 0; p < config.switchRadix; ++p)
            links_.emplace_back("sw.port" + std::to_string(p),
                                config.switchGBs, config.switchLatency,
                                /*channels=*/1);
        break;
      case TopologyKind::kChiplet:
        assert(config.gpusPerChiplet >= 1);
        gpuLinks(".chl.out", config.chipletGBs, config.chipletLatency);
        gpuLinks(".chl.in", config.chipletGBs, config.chipletLatency);
        for (unsigned c = 0; c * config.gpusPerChiplet < n; ++c)
            links_.emplace_back("chiplet" + std::to_string(c) +
                                    ".xbar.out",
                                config.interposerGBs,
                                config.interposerLatency);
        break;
    }
    pcieUp_ = static_cast<unsigned>(links_.size());
    links_.emplace_back("pcie.up", config.pcieGBs, config.pcieLatency);
    links_.emplace_back("pcie.down", config.pcieGBs, config.pcieLatency);
}

Topology::Hop
Topology::route(sim::GpuId at, sim::GpuId dst) const
{
    // The host hangs off the shared PCIe link on every topology.
    if (at == sim::kHostId)
        return {dst, {{pcieUp_ + 1}}};
    if (dst == sim::kHostId)
        return {dst, {{pcieUp_}}};
    assert(at >= 0 && dst >= 0);
    const unsigned n = config_.numGpus;
    const auto s = static_cast<unsigned>(at);
    const auto d = static_cast<unsigned>(dst);
    assert(s < n && d < n);
    switch (config_.kind) {
      case TopologyKind::kAllToAll:
        // Both endpoint ports carry the payload in parallel.
        return {dst, {{s, n + d}}};
      case TopologyKind::kRing: {
        // One segment along the shorter arc (ties go clockwise).
        const unsigned forward = (d + n - s) % n;
        if (forward <= n - forward)
            return {static_cast<sim::GpuId>((s + 1) % n), {{s}}};
        return {static_cast<sim::GpuId>((s + n - 1) % n), {{n + s}}};
      }
      case TopologyKind::kSwitch:
        // Into the switch, then out through the (possibly contended)
        // crossbar port serving the destination.
        return {dst, {{s}, {n + d % config_.switchRadix}}};
      case TopologyKind::kChiplet: {
        const unsigned chiplet = s / config_.gpusPerChiplet;
        if (chiplet == d / config_.gpusPerChiplet)
            return {dst, {{s, n + d}}};
        // Across the interposer: the narrow bridge is where
        // cross-chiplet traffic piles up.
        return {dst, {{s}, {2 * n + chiplet}, {n + d}}};
      }
    }
    return {dst, {}};
}

sim::Cycle
Topology::transfer(sim::Cycle now, sim::GpuId src, sim::GpuId dst,
                   std::uint64_t bytes)
{
    assert(src != dst && "transfer to self");
    // Each hop re-checks the chaos injector for its own endpoints and
    // records its own trace event, so a flapped or slowed intermediate
    // ring segment perturbs exactly the traffic routed through it.
    for (sim::GpuId at = src; at != dst;) {
        const Hop hop = route(at, dst);
        std::uint64_t hop_bytes = bytes;
        const sim::Cycle start = chaosAdjust(now, at, hop.to, hop_bytes);
        now = start;
        for (const Stage &stage : hop.stages) {
            if (stage.first == kNoLink)
                break;
            sim::Cycle done = links_[stage.first].transfer(now, hop_bytes);
            if (stage.second != kNoLink)
                done = std::max(
                    done, links_[stage.second].transfer(now, hop_bytes));
            now = done;
        }
        if (at != sim::kHostId && hop.to != sim::kHostId)
            nvlinkBytes_ += hop_bytes;
        if (trace_)
            trace_->record("transfer", "fabric", start, now - start, at,
                           hop_bytes, hop.to);
        at = hop.to;
    }
    return now;
}

sim::Cycle
Topology::flightLatency(sim::GpuId src, sim::GpuId dst) const
{
    sim::Cycle latency = 0;
    for (sim::GpuId at = src; at != dst;) {
        const Hop hop = route(at, dst);
        for (const Stage &stage : hop.stages) {
            if (stage.first == kNoLink)
                break;
            sim::Cycle stage_latency = links_[stage.first].latency();
            if (stage.second != kNoLink)
                stage_latency = std::max(stage_latency,
                                         links_[stage.second].latency());
            latency += stage_latency;
        }
        at = hop.to;
    }
    return latency;
}

sim::Cycle
Topology::message(sim::Cycle now, sim::GpuId src, sim::GpuId dst,
                  std::uint64_t bytes)
{
    ++messages_;
    messageBytes_ += bytes;
    return now + flightLatency(src, dst);
}

std::uint64_t
Topology::pcieBytes() const
{
    return links_[pcieUp_].bytesMoved() + links_[pcieUp_ + 1].bytesMoved();
}

std::vector<LinkStat>
Topology::linkStats() const
{
    std::vector<LinkStat> stats;
    stats.reserve(links_.size());
    for (const Link &link : links_)
        stats.push_back({link.name(), link.bytesMoved(), link.busyCycles()});
    return stats;
}

void
Topology::reset()
{
    for (Link &link : links_)
        link.reset();
    nvlinkBytes_ = 0;
    messages_ = 0;
    messageBytes_ = 0;
}

sim::Cycle
Topology::chaosAdjust(sim::Cycle now, sim::GpuId src, sim::GpuId dst,
                      std::uint64_t &bytes)
{
    if (injector_ == nullptr || !injector_->enabled())
        return now;
    // Graceful degradation under link chaos: a flapped link stalls
    // the transfer with bounded exponential backoff; if the flap
    // outlasts every retry the transfer is forced through anyway
    // (counted, never dropped — the simulation must make progress).
    if (injector_->linkDown(src, dst, now)) {
        sim::Cycle backoff = kRetryBackoffCycles;
        unsigned attempt = 0;
        while (attempt < kMaxLinkRetries &&
               injector_->linkDown(src, dst, now)) {
            now += backoff;
            backoff *= 2;
            ++attempt;
            injector_->noteLinkRetry();
        }
        if (injector_->linkDown(src, dst, now))
            injector_->noteLinkForced();
        else
            injector_->noteLinkRecovered();
    }
    // Degraded-bandwidth windows serialize the payload slower.
    const unsigned slow = injector_->linkSlowFactor(src, dst, now);
    if (slow > 1) {
        bytes *= slow;
        injector_->noteSlowTransfer();
    }
    return now;
}

}  // namespace grit::ic
