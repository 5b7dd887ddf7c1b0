/**
 * @file
 * Topology sensitivity sweep: the page-placement schemes (first-touch,
 * GPS, Griffin-DPC, GRIT) across every interconnect topology the fabric
 * layer models (all-to-all, ring, switch, chiplet — docs/TOPOLOGY.md).
 *
 * Each run exports the per-link `fabric.*` counters so the JSON
 * document shows where the bytes actually flowed — e.g. ring hop
 * amplification or switch port serialization — next to the end-to-end
 * cycle counts. `--topology KIND` restricts the sweep to one topology.
 */

#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "figures.h"

namespace {

/** The placement schemes compared on every topology. */
constexpr grit::harness::PolicyKind kSchemes[] = {
    grit::harness::PolicyKind::kFirstTouch,
    grit::harness::PolicyKind::kGps,
    grit::harness::PolicyKind::kGriffinDpc,
    grit::harness::PolicyKind::kGrit,
};

int
run(const grit::bench::BenchArgs &args)
{
    using namespace grit;

    // `--topology` narrows the sweep; by default all kinds run.
    std::vector<ic::TopologyKind> kinds(std::begin(ic::kAllTopologyKinds),
                                        std::end(ic::kAllTopologyKinds));
    if (!args.topology.empty())
        kinds = {grit::bench::parseTopology(args.topology)};

    std::vector<harness::LabeledConfig> configs;
    for (ic::TopologyKind kind : kinds) {
        for (harness::PolicyKind scheme : kSchemes) {
            harness::LabeledConfig labeled{
                std::string(ic::topologyKindName(kind)) + "/" +
                    harness::policyKindName(scheme),
                harness::makeConfig(scheme)};
            labeled.config.fabric.kind = kind;
            labeled.config.fabricStats = true;
            configs.push_back(std::move(labeled));
        }
    }

    const auto params = grit::bench::benchParams();
    const auto matrix = grit::bench::runSweep(configs, params, args);

    std::cout << "Topology sensitivity: placement schemes across "
                 "interconnect topologies\n";
    for (ic::TopologyKind kind : kinds) {
        const std::string topo = ic::topologyKindName(kind);
        std::vector<std::string> labels;
        for (harness::PolicyKind scheme : kSchemes)
            labels.push_back(topo + "/" +
                             harness::policyKindName(scheme));
        std::cout << "\n== " << topo << " ==\n";
        grit::bench::printNormalizedTable(matrix,
                                          grit::bench::Metric::kSpeedup,
                                          labels.front(), labels);
    }

    // Cross-topology robustness: how much of GRIT's advantage over
    // first-touch survives on each fabric.
    std::cout << "\nGRIT mean improvement over first-touch, per "
                 "topology:\n";
    for (ic::TopologyKind kind : kinds) {
        const std::string topo = ic::topologyKindName(kind);
        std::cout << "  " << topo << ": "
                  << harness::TextTable::pct(harness::meanImprovementPct(
                         matrix, topo + "/first-touch", topo + "/grit"))
                  << "\n";
    }

    grit::bench::maybeWriteJson(
        args, "fig_topology",
        "Topology sensitivity: schemes x interconnect topologies", params,
        matrix);
    return 0;
}

}  // namespace

int
main(int argc, char **argv)
{
    grit::bench::BenchArgs args(
        "fig_topology",
        "Topology sensitivity: schemes x interconnect topologies",
        grit::bench::BenchArgs::Kind::kSweep);
    return grit::bench::guardedMain(argc, argv, args,
                                    [&] { return run(args); });
}
