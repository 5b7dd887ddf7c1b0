#include "harness/config.h"

#include <algorithm>
#include <cctype>

namespace grit::harness {

const char *
policyKindName(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::kOnTouch:       return "on-touch";
      case PolicyKind::kAccessCounter: return "access-counter";
      case PolicyKind::kDuplication:   return "duplication";
      case PolicyKind::kFirstTouch:    return "first-touch";
      case PolicyKind::kIdeal:         return "ideal";
      case PolicyKind::kGrit:          return "grit";
      case PolicyKind::kGriffinDpc:    return "griffin-dpc";
      case PolicyKind::kGps:           return "gps";
    }
    return "?";
}

std::optional<PolicyKind>
policyKindFromName(const std::string &name)
{
    std::string lower;
    lower.reserve(name.size());
    for (char c : name)
        lower.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    for (PolicyKind kind :
         {PolicyKind::kOnTouch, PolicyKind::kAccessCounter,
          PolicyKind::kDuplication, PolicyKind::kFirstTouch,
          PolicyKind::kIdeal, PolicyKind::kGrit, PolicyKind::kGriffinDpc,
          PolicyKind::kGps}) {
        if (lower == policyKindName(kind))
            return kind;
    }
    return std::nullopt;
}

std::vector<sim::SimError>
SystemConfig::validate() const
{
    std::vector<sim::SimError> out;
    auto bad = [&out](const std::string &message,
                      const std::string &where) {
        out.emplace_back(sim::ErrorCode::kConfigInvalid, message, where);
    };

    if (numGpus == 0)
        bad("at least one GPU is required", "numGpus");
    if (fabric.numGpus != numGpus)
        bad("fabric.numGpus (" + std::to_string(fabric.numGpus) +
                ") disagrees with numGpus (" + std::to_string(numGpus) +
                ")",
            "fabric.numGpus");
    for (sim::SimError &err : geometry.validate("geometry"))
        out.push_back(std::move(err));
    if (memoryFraction < 0.0)
        bad("memory fraction cannot be negative", "memoryFraction");

    if (gpu.lanes == 0)
        bad("a GPU needs at least one access lane", "gpu.lanes");
    if (gpu.dramGBs <= 0.0)
        bad("local DRAM bandwidth must be positive", "gpu.dramGBs");
    if (gpu.l1TlbWays == 0 || gpu.l1TlbEntries == 0 ||
        gpu.l1TlbEntries % gpu.l1TlbWays != 0)
        bad("L1 TLB entries must be a non-zero multiple of its ways",
            "gpu.l1Tlb");
    if (gpu.l2TlbWays == 0 || gpu.l2TlbEntries == 0 ||
        gpu.l2TlbEntries % gpu.l2TlbWays != 0)
        bad("L2 TLB entries must be a non-zero multiple of its ways",
            "gpu.l2Tlb");
    if (gpu.gmmu.walkers == 0)
        bad("the GMMU needs at least one page-table walker",
            "gpu.gmmu.walkers");
    if (gpu.counterThreshold == 0)
        bad("the access-counter threshold must be non-zero",
            "gpu.counterThreshold");
    if (gpu.nvlinkSlots == 0 || gpu.pcieSlots == 0 || gpu.faultSlots == 0)
        bad("remote-transaction and fault slots must be non-zero",
            "gpu.slots");

    if (uvm.servers == 0)
        bad("the UVM driver needs at least one fault-servicing context",
            "uvm.servers");
    if (uvm.hostMemGBs <= 0.0)
        bad("host memory bandwidth must be positive", "uvm.hostMemGBs");

    if (fabric.nvlinkGBs <= 0.0)
        bad("NVLink bandwidth must be positive", "fabric.nvlinkGBs");
    if (fabric.pcieGBs <= 0.0)
        bad("PCIe bandwidth must be positive", "fabric.pcieGBs");
    if (fabric.nvlinkLatency == 0)
        bad("NVLink latency must be positive", "fabric.nvlinkLatency");
    if (fabric.pcieLatency == 0)
        bad("PCIe latency must be positive", "fabric.pcieLatency");
    // Topology-specific parameters are validated only for the selected
    // kind: an unused model's knobs cannot invalidate a config.
    if (fabric.kind == ic::TopologyKind::kSwitch) {
        if (fabric.switchRadix == 0)
            bad("the switch needs at least one crossbar port",
                "fabric.switchRadix");
        if (fabric.switchGBs <= 0.0)
            bad("switch port bandwidth must be positive",
                "fabric.switchGBs");
        if (fabric.switchLatency == 0)
            bad("switch traversal latency must be positive",
                "fabric.switchLatency");
    }
    if (fabric.kind == ic::TopologyKind::kChiplet) {
        if (fabric.gpusPerChiplet == 0)
            bad("a chiplet needs at least one GPU",
                "fabric.gpusPerChiplet");
        if (fabric.chipletGBs <= 0.0)
            bad("intra-chiplet bandwidth must be positive",
                "fabric.chipletGBs");
        if (fabric.chipletLatency == 0)
            bad("intra-chiplet latency must be positive",
                "fabric.chipletLatency");
        if (fabric.interposerGBs <= 0.0)
            bad("interposer bandwidth must be positive",
                "fabric.interposerGBs");
        if (fabric.interposerLatency == 0)
            bad("interposer latency must be positive",
                "fabric.interposerLatency");
    }

    if (policy == PolicyKind::kGrit) {
        if (grit.faultThreshold == 0)
            bad("the GRIT fault threshold must be non-zero",
                "grit.faultThreshold");
        if (grit.paCacheEnabled &&
            (grit.paCacheWays == 0 || grit.paCacheEntries == 0 ||
             grit.paCacheEntries % grit.paCacheWays != 0))
            bad("PA-Cache entries must be a non-zero multiple of its "
                "ways",
                "grit.paCache");
    }

    if (!audit && auditIntervalCycles != 0)
        bad("auditIntervalCycles is set but audit is disabled", "audit");

    if (wallDeadlineSec < 0.0 || wallDeadlineSec != wallDeadlineSec)
        bad("the wall-clock deadline cannot be negative or NaN",
            "wallDeadlineSec");

    return out;
}

SystemConfig
makeConfig(PolicyKind policy, unsigned num_gpus)
{
    SystemConfig config;
    config.numGpus = num_gpus;
    config.policy = policy;
    config.fabric.numGpus = num_gpus;
    return config;
}

}  // namespace grit::harness
