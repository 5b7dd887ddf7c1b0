/**
 * @file
 * Page-size sweep: the placement schemes under three translation
 * geometries (docs/PAGESIZE.md) —
 *
 *   4k    - the paper's default 4 KB granule;
 *   large - a fixed large granule (32 KB by default, `--page-size`
 *           overrides): the Fig. 25 scaled model of the paper's 2 MB
 *           study, over enlarged inputs. Merged pages mix read and
 *           read-write 4 KB regions (false sharing), so GRIT keeps a
 *           smaller edge than at 4 KB;
 *   dyn   - the dynamic mode: 4 KB base pages with Mosaic-style
 *           promotion of hot fully-resident regions to huge mappings
 *           (32 KB regions by default, `--huge-pages` overrides) and
 *           write-sharing-triggered splintering, so per-4 KB
 *           duplication/collapse keeps working underneath.
 *
 * Every config exports the translation accounting (`tlb.*`, `pwc.*`)
 * plus the `promote.*`/`splinter.*` ledger, and the report prints the
 * page-walk reduction dynamic promotion buys over fixed 4 KB next to
 * the speedup table.
 */

#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "figures.h"

namespace {

/** Schemes compared under every geometry. */
constexpr grit::harness::PolicyKind kSchemes[] = {
    grit::harness::PolicyKind::kOnTouch,
    grit::harness::PolicyKind::kAccessCounter,
    grit::harness::PolicyKind::kDuplication,
    grit::harness::PolicyKind::kGrit,
};

/** The three geometry modes of the sweep (file comment). */
const std::string kModes[] = {"4k", "large", "dyn"};

int
run(grit::bench::BenchArgs &args)
{
    using namespace grit;
    using harness::PolicyKind;

    workload::WorkloadParams params = grit::bench::benchParams();
    // "Enlarge the input size" (Section VI-B3): halve the divisor so
    // the large/dynamic modes see the paper's page:footprint ratio.
    params.footprintDivisor = std::max(1u, params.footprintDivisor / 2);

    const std::uint64_t large_page =
        args.pageSizeBytes != 0 ? args.pageSizeBytes : 32 * 1024;
    const std::uint64_t huge_bytes =
        args.hugePagesBytes != 0 ? args.hugePagesBytes : 32 * 1024;
    // The modes own geometry: the two flags sized them, so the sweep's
    // overrides must not apply them to every config again.
    args.pageSizeBytes = 0;
    args.hugePagesBytes = 0;

    std::vector<harness::LabeledConfig> configs;
    const auto add = [&](const std::string &label, PolicyKind scheme,
                         const std::string &mode) {
        harness::SystemConfig config = harness::makeConfig(scheme);
        if (mode == "large")
            config.geometry.baseSize = large_page;
        if (mode == "dyn") {
            config.geometry.hugePages = true;
            config.geometry.hugeSize = huge_bytes;
        }
        config.pageSizeStats = true;
        configs.push_back({label, config});
        return &configs.back().config;
    };
    for (const std::string &mode : kModes)
        for (PolicyKind scheme : kSchemes)
            add(harness::policyKindName(scheme) + ("-" + mode), scheme,
                mode);

    // The fully-resident pair: capacity limit off, so promoted regions
    // are never squeezed out by pinning — the clean-room measurement of
    // what a huge mapping buys the translation path (one TLB entry and
    // one walk per region instead of per 4 KB page).
    for (const std::string mode : {"4k", "dyn"})
        add("resident-" + mode, PolicyKind::kOnTouch, mode)
            ->memoryFraction = 0.0;  // fully resident

    const auto matrix = grit::bench::runSweep(configs, params, args);

    std::cout << "Page-size sweep: schemes x translation geometries "
                 "(large = " << large_page / 1024
              << " KB fixed, dyn = 4 KB + " << huge_bytes / 1024
              << " KB promoted regions)\n";
    for (const std::string &mode : kModes) {
        std::vector<std::string> labels;
        for (PolicyKind scheme : kSchemes)
            labels.push_back(harness::policyKindName(scheme) + ("-" + mode));
        std::cout << "\n== " << mode << " ==\n";
        grit::bench::printNormalizedTable(matrix,
                                          grit::bench::Metric::kSpeedup,
                                          labels.front(), labels);
    }

    std::cout << "\nGRIT mean improvement over on-touch, per geometry "
                 "(paper: +60 % at 4 KB vs +23 % at 2 MB):\n";
    for (const std::string &mode : kModes)
        std::cout << "  " << mode << ": "
                  << harness::TextTable::pct(harness::meanImprovementPct(
                         matrix, "on-touch-" + mode, "grit-" + mode))
                  << "\n";

    // The tentpole metric, on the fully-resident pair: how many TLB
    // misses and page walks dynamic promotion buys over fixed 4 KB
    // when pinned regions are never squeezed out by capacity.
    std::cout << "\nFully resident, dynamic promotion vs fixed 4 KB "
                 "(on-touch, capacity limit off):\n";
    for (const auto &[app, runs] : matrix) {
        const auto base = runs.find("resident-4k");
        const auto dyn = runs.find("resident-dyn");
        if (base == runs.end() || dyn == runs.end())
            continue;
        const std::uint64_t walks_4k = base->second.counter("gmmu.walks");
        const std::uint64_t walks_dyn = dyn->second.counter("gmmu.walks");
        const std::uint64_t l2miss_4k =
            base->second.counter("tlb.l2_misses");
        const std::uint64_t l2miss_dyn =
            dyn->second.counter("tlb.l2_misses");
        const double reduction =
            walks_4k == 0 ? 0.0
                          : 100.0 *
                                (static_cast<double>(walks_4k) -
                                 static_cast<double>(walks_dyn)) /
                                static_cast<double>(walks_4k);
        std::cout << "  " << app << ": walks " << walks_4k << " -> "
                  << walks_dyn << " ("
                  << harness::TextTable::pct(reduction)
                  << " fewer), L2 TLB misses " << l2miss_4k << " -> "
                  << l2miss_dyn << ", promoted "
                  << dyn->second.counter("promote.regions")
                  << " region(s), splintered "
                  << dyn->second.counter("splinter.regions") << "\n";
    }

    grit::bench::maybeWriteJson(
        args, "fig_pagesize",
        "Page-size sweep: schemes x translation geometries", params,
        matrix);
    return 0;
}

}  // namespace

int
main(int argc, char **argv)
{
    grit::bench::BenchArgs args(
        "fig_pagesize",
        "Page-size sweep: schemes x translation geometries",
        grit::bench::BenchArgs::Kind::kSweep);
    return grit::bench::guardedMain(argc, argv, args,
                                    [&] { return run(args); });
}
