/**
 * @file
 * The figure table: one row per app x config figure binary (figures.h).
 * The paper numbers each row checks against live in its claim
 * headings.
 */

#include <iostream>
#include <memory>

#include "figures.h"
#include "harness/table.h"
#include "mem/pte.h"
#include "stats/latency_breakdown.h"
#include "workload/dnn.h"

namespace grit::bench {

namespace {

using harness::PolicyKind;
using harness::ResultMatrix;
using harness::SystemConfig;
using harness::TextTable;
using Tweak = std::function<void(SystemConfig &)>;

/** @p kind's Table I config at the row's GPU count, then @p tweak. */
FigureConfig
policy(PolicyKind kind, std::string label = {}, Tweak tweak = nullptr)
{
    if (label.empty())
        label = harness::policyKindName(kind);
    return {std::move(label), [kind, tweak](unsigned gpus) {
                SystemConfig config = harness::makeConfig(kind, gpus);
                if (tweak)
                    tweak(config);
                return config;
            }};
}

/** Each of @p kinds as is, labeled with its policy name. */
std::vector<FigureConfig>
policies(const std::vector<PolicyKind> &kinds)
{
    std::vector<FigureConfig> configs;
    for (PolicyKind kind : kinds)
        configs.push_back(policy(kind));
    return configs;
}

/** GRIT with the PA-Cache and NAP switched as given (Fig. 20). */
FigureConfig
gritParts(std::string label, bool cache, bool nap)
{
    return policy(PolicyKind::kGrit, std::move(label),
                  [cache, nap](SystemConfig &c) {
                      c.grit.paCacheEnabled = cache;
                      c.grit.napEnabled = nap;
                  });
}

/** "vs <scheme>" lines of GRIT against each uniform scheme. */
std::vector<Claim>
gritVsUniform()
{
    return {{"vs on-touch", "on-touch", "grit"},
            {"vs access-counter", "access-counter", "grit"},
            {"vs duplication", "duplication", "grit"}};
}

/** "<label>" lines of each of @p labels against on-touch. */
std::vector<Claim>
overOnTouch(const std::vector<std::string> &labels)
{
    std::vector<Claim> claims;
    for (const std::string &label : labels)
        claims.push_back({label, "on-touch", label});
    return claims;
}

/** Fig. 27: replica footprint drives GPS's oversubscription. */
void
reportOversubscription(const ResultMatrix &matrix)
{
    std::cout << "\nOversubscription (evictions per 1000 accesses; "
                 "paper: GPS 34 % higher):\n";
    TextTable table({"app", "gps", "grit", "gps peak replicas",
                     "grit peak replicas"});
    double gps_sum = 0.0;
    double grit_sum = 0.0;
    for (const auto &[app, runs] : matrix) {
        if (!runs.count("gps") || !runs.count("grit"))
            continue;
        const auto &gps = runs.at("gps");
        const auto &grit_run = runs.at("grit");
        gps_sum += gps.oversubscriptionRate();
        grit_sum += grit_run.oversubscriptionRate();
        table.addRow({app, TextTable::fmt(gps.oversubscriptionRate()),
                      TextTable::fmt(grit_run.oversubscriptionRate()),
                      std::to_string(gps.peakReplicas),
                      std::to_string(grit_run.peakReplicas)});
    }
    table.print(std::cout);
    if (grit_sum > 0)
        std::cout << "GPS oversubscription rate vs GRIT: "
                  << TextTable::pct(100.0 * (gps_sum / grit_sum - 1.0))
                  << "\n";
}

/** Ablation: how much of GRIT's gain NAP carries, per app. */
void
reportNapGain(const ResultMatrix &matrix)
{
    std::cout << "\nNAP contribution per app (grit-nap / grit-no-nap):\n";
    TextTable table({"app", "NAP gain"});
    for (const auto &[app, runs] : matrix) {
        if (!runs.count("grit-no-nap") || !runs.count("grit-nap"))
            continue;
        const double gain = harness::speedupOver(runs.at("grit-no-nap"),
                                                 runs.at("grit-nap"));
        table.addRow({app, TextTable::pct(100.0 * (gain - 1.0))});
    }
    table.print(std::cout);
}

/**
 * Fig. 19: the scheme mix GRIT converges to per app. kNone accesses
 * ran under the start scheme (on-touch) before any decision.
 */
void
reportSchemeMix(const ResultMatrix &matrix)
{
    TextTable table({"app", "on-touch %", "access-counter %",
                     "duplication %"});
    for (workload::AppId app : workload::kAllApps) {
        const std::string abbr = workload::appMeta(app).abbr;
        const auto row = matrix.find(abbr);
        if (row == matrix.end() || !row->second.count("grit")) {
            table.addRow({abbr, "-", "-", "-"});
            continue;
        }
        const auto &accesses = row->second.at("grit").schemeAccesses;
        const auto of = [&](mem::Scheme s) {
            return static_cast<double>(accesses[static_cast<unsigned>(s)]);
        };
        const double shares[] = {of(mem::Scheme::kOnTouch) +
                                     of(mem::Scheme::kNone),
                                 of(mem::Scheme::kAccessCounter),
                                 of(mem::Scheme::kDuplication)};
        const double total = shares[0] + shares[1] + shares[2];
        std::vector<std::string> cells = {abbr};
        for (double share : shares)
            cells.push_back(
                total > 0 ? TextTable::fmt(100.0 * share / total, 1) : "-");
        table.addRow(cells);
    }
    table.print(std::cout);
}

/**
 * Fig. 3: latency breakdown per scheme as a fraction of the app's
 * on-touch total, then the raw mechanism counters behind it (the main
 * diagnostic for the cost model).
 */
void
reportLatencyBreakdown(const ResultMatrix &matrix)
{
    const std::vector<std::string> labels = {"on-touch", "access-counter",
                                             "duplication"};
    const char *short_names[] = {"OT", "AC", "D"};
    TextTable table({"app", "scheme", "Local", "Host", "Page-migration",
                     "Remote-access", "Page-duplication", "Write-collapse",
                     "total"});
    TextTable diag({"app", "scheme", "cycles", "faults", "migrations",
                    "duplications", "collapses", "remote-accesses",
                    "evictions", "spills"});
    for (const auto &[app, runs] : matrix) {
        if (!runs.count("on-touch") || !runs.count("access-counter") ||
            !runs.count("duplication"))
            continue;
        const double ot_total =
            static_cast<double>(runs.at("on-touch").breakdown.total());
        const auto fraction = [&](std::uint64_t cycles) {
            return TextTable::fmt(
                ot_total > 0 ? static_cast<double>(cycles) / ot_total : 0.0);
        };
        for (std::size_t i = 0; i < labels.size(); ++i) {
            const harness::RunResult &r = runs.at(labels[i]);
            std::vector<std::string> row = {app, short_names[i]};
            for (unsigned k = 0; k < stats::kLatencyKinds; ++k)
                row.push_back(fraction(
                    r.breakdown.get(static_cast<stats::LatencyKind>(k))));
            row.push_back(fraction(r.breakdown.total()));
            table.addRow(row);
            diag.addRow(
                {app, short_names[i], std::to_string(r.cycles),
                 std::to_string(r.totalFaults()),
                 std::to_string(r.counter("uvm.migrations") +
                                r.counter("uvm.host_migrations")),
                 std::to_string(r.counter("uvm.duplications")),
                 std::to_string(r.counter("uvm.collapses")),
                 std::to_string(r.counter("sim.remote_accesses")),
                 std::to_string(r.evictions),
                 std::to_string(r.counter("uvm.spills"))});
        }
    }
    table.print(std::cout);
    std::cout << "\nMechanism counters per app/scheme:\n\n";
    diag.print(std::cout);
}

constexpr workload::DnnModel kDnnModels[] = {workload::DnnModel::kVgg16,
                                             workload::DnnModel::kResNet18};

/**
 * Fig. 31 plan: the DNN traces are prebuilt (no AppId), so each model
 * is one shared workload handle run under two configurations.
 */
harness::RunPlan
dnnPlan(const workload::WorkloadParams &params)
{
    harness::RunPlan plan;
    for (workload::DnnModel model : kDnnModels) {
        workload::WorkloadParams p = params;
        p.numGpus = 4;
        const auto w = std::make_shared<const workload::Workload>(
            workload::makeDnnWorkload(model, p));
        const std::string row = workload::dnnModelName(model);
        for (PolicyKind kind : {PolicyKind::kOnTouch, PolicyKind::kGrit})
            plan.addWorkload(row, harness::policyKindName(kind),
                             harness::makeConfig(kind, 4), w);
    }
    return plan;
}

void
reportDnn(const ResultMatrix &matrix)
{
    TextTable table({"model", "on-touch", "grit", "improvement"});
    for (workload::DnnModel model : kDnnModels) {
        const std::string row = workload::dnnModelName(model);
        const auto runs = matrix.find(row);
        if (runs == matrix.end() || !runs->second.count("on-touch") ||
            !runs->second.count("grit")) {
            table.addRow({row, "-", "-", "-"});
            continue;
        }
        const double speedup = harness::speedupOver(
            runs->second.at("on-touch"), runs->second.at("grit"));
        table.addRow({row, "1.00", TextTable::fmt(speedup),
                      TextTable::pct(100.0 * (speedup - 1.0))});
    }
    table.print(std::cout);
}

std::vector<Figure>
buildTable()
{
    using enum PolicyKind;
    const std::vector<PolicyKind> uniform = {kOnTouch, kAccessCounter,
                                             kDuplication};
    const std::vector<PolicyKind> withGrit = {kOnTouch, kAccessCounter,
                                              kDuplication, kGrit};

    const std::vector<std::string> fig20 = {
        "pa-table", "pa-table+pa-cache", "pa-table+nap", "full-grit"};
    std::vector<FigureConfig> fig21 = {policy(kOnTouch)};
    for (std::uint32_t threshold : {2u, 4u, 8u, 16u})
        fig21.push_back(policy(kGrit, "grit-t" + std::to_string(threshold),
                               [threshold](SystemConfig &c) {
                                   c.grit.faultThreshold = threshold;
                               }));
    std::vector<std::string> fig21Labels;
    for (std::size_t i = 1; i < fig21.size(); ++i)
        fig21Labels.push_back(fig21[i].label);

    // Table I fixes the counter threshold at 256 (the Volta default);
    // GRIT's AC-scheme pages use the same counters.
    std::vector<FigureConfig> counter = {policy(kOnTouch)};
    for (unsigned threshold : {64u, 256u, 1024u}) {
        const Tweak set = [threshold](SystemConfig &c) {
            c.gpu.counterThreshold = threshold;
        };
        const std::string t = std::to_string(threshold);
        counter.push_back(policy(kAccessCounter, "ac-" + t, set));
        counter.push_back(policy(kGrit, "grit-" + t, set));
    }

    const Tweak acud = [](SystemConfig &c) { c.uvm.acud = true; };
    const Tweak prefetch = [](SystemConfig &c) { c.prefetch = true; };

    return {
        {.name = "fig01_motivation",
         .title = "Figure 1: uniform scheme performance vs on-touch",
         .heading = "Figure 1: performance of each scheme relative to "
                    "baseline on-touch migration",
         .configs = policies({kOnTouch, kAccessCounter, kDuplication,
                              kIdeal}),
         .baseline = "on-touch"},

        {.name = "fig03_latency_breakdown",
         .title = "Figure 3: page-handling latency breakdown",
         .heading = "Figure 3: page-handling latency breakdown "
                    "(fraction of the app's on-touch total)",
         .configs = policies(uniform),
         .report = reportLatencyBreakdown},

        {.name = "fig17_overall",
         .title = "Figure 17: GRIT vs uniform schemes",
         .heading = "Figure 17: GRIT vs uniform schemes (speedup over "
                    "on-touch)",
         .configs = policies(withGrit),
         .baseline = "on-touch",
         .claims = {{"Average improvement of GRIT (paper: +60 % / +49 % / "
                     "+29 %)",
                     gritVsUniform()}}},

        {.name = "fig18_page_faults",
         .title = "Figure 18: GPU page faults per scheme",
         .heading = "Figure 18: GPU page faults normalized to on-touch",
         .configs = policies(withGrit),
         .baseline = "on-touch",
         .metric = Metric::kFaults,
         .claims = {{"GRIT fault reduction (paper: -39 % / -55 % / -16 %)",
                     gritVsUniform(), Metric::kFaults}}},

        {.name = "fig19_scheme_breakdown",
         .title = "Figure 19: scheme mix of L2-TLB-missing accesses "
                  "under GRIT",
         .heading = "Figure 19: scheme mix of L2-TLB-missing accesses "
                    "under GRIT",
         .configs = policies({kGrit}),
         .report = reportSchemeMix},

        {.name = "fig20_ablation",
         .title = "Figure 20: GRIT component ablation",
         .heading = "Figure 20: GRIT component ablation (speedup over "
                    "on-touch)",
         .configs = {policy(kOnTouch), gritParts(fig20[0], false, false),
                     gritParts(fig20[1], true, false),
                     gritParts(fig20[2], false, true),
                     gritParts(fig20[3], true, true)},
         .baseline = "on-touch",
         .columns = fig20,
         .claims = {{"Average improvement over on-touch (paper: +31 % / "
                     "+47 % / +44 % / +60 %)",
                     overOnTouch(fig20)}}},

        {.name = "fig21_fault_threshold",
         .title = "Figure 21: GRIT fault-threshold sensitivity",
         .heading = "Figure 21: GRIT fault-threshold sensitivity (speedup "
                    "over on-touch)",
         .configs = fig21,
         .baseline = "on-touch",
         .columns = fig21Labels,
         .claims = {{"Average improvement (paper: +53 % / +60 % / +59 % / "
                     "+48 %, saturating at threshold 4)",
                     overOnTouch(fig21Labels)}}},

        // Input size held constant across GPU counts, as in the paper,
        // which reports +40/37/11 % (2 GPUs), +38/35/26 % (8) and
        // +27/26/23 % (16) over on-touch / access counter / duplication.
        {.name = "fig22_24_gpu_scaling",
         .title = "Figures 22-24: GRIT GPU scaling",
         .configs = policies(withGrit),
         .baseline = "on-touch",
         .claims = {{"GRIT average improvement", gritVsUniform()},
                    {"GRIT fault reduction", gritVsUniform(),
                     Metric::kFaults}},
         .gpuCounts = {2, 8, 16}},

        {.name = "fig26_griffin",
         .title = "Figure 26: Griffin comparison",
         .heading = "Figure 26: Griffin comparison (speedup over "
                    "Griffin-DPC)",
         .configs = {policy(kGriffinDpc), policy(kGrit),
                     policy(kGriffinDpc, "griffin", acud),
                     policy(kGrit, "grit+acud", acud)},
         .baseline = "griffin-dpc",
         .claims = {{"Averages (paper: GRIT +27 % over Griffin-DPC; "
                     "GRIT+ACUD +16 % over Griffin; ACUD on GRIT +9 %)",
                     {{"grit vs griffin-dpc", "griffin-dpc", "grit"},
                      {"grit+acud vs griffin", "griffin", "grit+acud"},
                      {"grit+acud vs grit", "grit", "grit+acud"}}}}},

        {.name = "fig27_gps",
         .title = "Figure 27: GPS comparison",
         .heading = "Figure 27: GPS comparison (speedup over GPS)",
         .configs = policies({kGps, kGrit}),
         .baseline = "gps",
         .claims = {{"GRIT vs GPS (paper: +15 %)", {{"", "gps", "grit"}}}},
         .report = reportOversubscription},

        {.name = "fig28_transfw",
         .title = "Figure 28: Griffin-DPC + Trans-FW comparison",
         .heading = "Figure 28: Griffin-DPC + Trans-FW comparison "
                    "(speedup over the combination)",
         .configs = {policy(kGriffinDpc, "dpc+transfw",
                            [](SystemConfig &c) { c.uvm.transFw = true; }),
                     policy(kGrit)},
         .baseline = "dpc+transfw",
         .claims = {{"GRIT vs Griffin-DPC+Trans-FW (paper: +18 %)",
                     {{"", "dpc+transfw", "grit"}}}}},

        {.name = "fig29_first_touch",
         .title = "Figure 29: first-touch comparison",
         .heading = "Figure 29: first-touch comparison (speedup over "
                    "first-touch)",
         .configs = policies({kFirstTouch, kGrit}),
         .baseline = "first-touch",
         .claims = {{"GRIT vs first-touch (paper: +54 %)",
                     {{"", "first-touch", "grit"}}}}},

        {.name = "fig30_prefetch",
         .title = "Figure 30: GRIT with tree-based prefetching",
         .heading = "Figure 30: GRIT combined with tree-based neighborhood "
                    "prefetching (speedup over on-touch+prefetch)",
         .configs = {policy(kOnTouch, "on-touch+prefetch", prefetch),
                     policy(kGrit, "grit+prefetch", prefetch)},
         .baseline = "on-touch+prefetch",
         .claims = {{"GRIT+prefetch vs on-touch+prefetch (paper: +23 %)",
                     {{"", "on-touch+prefetch", "grit+prefetch"}}}}},

        {.name = "fig31_dnn",
         .title = "Figure 31: DNN model parallelism",
         .heading = "Figure 31: DNN model parallelism (speedup over "
                    "on-touch; paper: VGG16 +15 %, ResNet18 +18 %)",
         .plan = dnnPlan,
         .report = reportDnn},

        {.name = "ablation_counter_threshold",
         .title = "Ablation: access-counter threshold",
         .heading = "Ablation: access-counter threshold (Table I default "
                    "256; speedup over on-touch)",
         .configs = counter,
         .baseline = "on-touch",
         .columns = {"ac-64", "ac-256", "ac-1024", "grit-64", "grit-256",
                     "grit-1024"}},

        // NeighborPredictor's group ceiling is a compile-time constant
        // (kMaxGroupPages), so this compares NAP off, NAP on, and NAP
        // on with the PA-Cache off.
        {.name = "ablation_group_size",
         .title = "Ablation: Neighboring-Aware Prediction contribution",
         .heading = "Ablation: Neighboring-Aware Prediction contribution "
                    "(speedup over on-touch)",
         .configs = {policy(kOnTouch), gritParts("grit-no-nap", true, false),
                     gritParts("grit-nap", true, true),
                     gritParts("grit-nap-no-cache", false, true)},
         .baseline = "on-touch",
         .columns = {"grit-no-nap", "grit-nap", "grit-nap-no-cache"},
         .report = reportNapGain},
    };
}

}  // namespace

const std::vector<Figure> &
figureTable()
{
    static const std::vector<Figure> table = buildTable();
    return table;
}

}  // namespace grit::bench
