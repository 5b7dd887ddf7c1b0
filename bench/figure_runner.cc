/**
 * @file
 * The generic figure runner: one sweep path and one report layout for
 * every row of the figure table (figures.h).
 */

#include <algorithm>
#include <iostream>

#include "bench_util.h"
#include "figures.h"

namespace grit::bench {

namespace {

/** @p metric of @p run normalized to @p base. */
double
normalized(Metric metric, const harness::RunResult &base,
           const harness::RunResult &run)
{
    if (metric == Metric::kSpeedup)
        return harness::speedupOver(base, run);
    const double b = static_cast<double>(base.totalFaults());
    return b > 0 ? static_cast<double>(run.totalFaults()) / b : 0.0;
}

/** The printed value of one claim line. */
std::string
claimValue(Metric metric, const harness::ResultMatrix &matrix,
           const Claim &claim)
{
    if (metric == Metric::kSpeedup)
        return harness::TextTable::pct(
            harness::meanImprovementPct(matrix, claim.base, claim.label));
    double sum = 0.0;
    for (const auto &[app, runs] : matrix) {
        const auto b = runs.find(claim.base);
        const auto g = runs.find(claim.label);
        if (b == runs.end() || g == runs.end())
            continue;  // quarantined cell
        const double base = static_cast<double>(b->second.totalFaults());
        if (base > 0)
            sum += 1.0 - static_cast<double>(g->second.totalFaults()) / base;
    }
    return harness::TextTable::fmt(
               100.0 * sum / static_cast<double>(matrix.size()), 1) +
           "% fewer faults";
}

void
printClaims(const ClaimBlock &block, const harness::ResultMatrix &matrix)
{
    std::cout << "\n" << block.heading << ":";
    const bool inlined =
        block.claims.size() == 1 && block.claims.front().name.empty();
    if (!inlined)
        std::cout << "\n";
    for (const Claim &claim : block.claims)
        std::cout << (inlined ? " " : "  " + claim.name + ": ")
                  << claimValue(block.metric, matrix, claim) << "\n";
}

/** Run @p figure's plan at @p gpus and print its report. */
harness::ResultMatrix
sweepAndReport(const Figure &figure, unsigned gpus,
               const workload::WorkloadParams &params,
               const BenchArgs &args)
{
    std::vector<harness::LabeledConfig> configs;
    for (const FigureConfig &config : figure.configs)
        configs.push_back({config.label, config.make(gpus)});
    const harness::ResultMatrix matrix =
        figure.plan ? runPlanResilient(figure.plan(params), args)
                    : runSweep(configs, params, args);

    if (figure.gpuCounts.empty())
        std::cout << figure.heading << "\n\n";
    else
        std::cout << "=== " << gpus << " GPUs (speedup over " << gpus
                  << "-GPU " << figure.baseline << ") ===\n\n";
    if (!figure.baseline.empty()) {
        std::vector<std::string> columns = figure.columns;
        if (columns.empty())
            for (const FigureConfig &config : figure.configs)
                columns.push_back(config.label);
        printNormalizedTable(matrix, figure.metric, figure.baseline,
                             columns);
    }
    for (const ClaimBlock &block : figure.claims)
        printClaims(block, matrix);
    if (figure.report)
        figure.report(matrix);
    return matrix;
}

}  // namespace

void
printNormalizedTable(const harness::ResultMatrix &matrix, Metric metric,
                     const std::string &base,
                     const std::vector<std::string> &labels)
{
    std::vector<std::string> headers = {"app"};
    headers.insert(headers.end(), labels.begin(), labels.end());
    harness::TextTable table(headers);

    std::vector<double> sums(labels.size(), 0.0);
    std::vector<std::size_t> counts(labels.size(), 0);
    for (const auto &[app, runs] : matrix) {
        std::vector<std::string> row = {app};
        const auto baseIt = runs.find(base);
        for (std::size_t i = 0; i < labels.size(); ++i) {
            const auto it = runs.find(labels[i]);
            if (it == runs.end() || baseIt == runs.end()) {
                row.push_back("-");
                continue;
            }
            const double value =
                normalized(metric, baseIt->second, it->second);
            sums[i] += value;
            ++counts[i];
            row.push_back(harness::TextTable::fmt(value));
        }
        table.addRow(row);
    }

    std::vector<std::string> mean = {"MEAN"};
    for (std::size_t i = 0; i < labels.size(); ++i)
        mean.push_back(harness::TextTable::fmt(
            counts[i] == 0 ? 0.0
                           : sums[i] / static_cast<double>(counts[i])));
    table.addRow(mean);

    table.print(std::cout);
    if (metric == Metric::kSpeedup)
        std::cout << "(speedup, higher is better; normalized to " << base
                  << ")\n";
}

int
runFigure(const std::string &name, int argc, char **argv)
{
    const std::vector<Figure> &table = figureTable();
    const auto it =
        std::find_if(table.begin(), table.end(),
                     [&](const Figure &f) { return f.name == name; });
    if (it == table.end()) {
        std::cerr << "error: no figure-table row named " << name << "\n";
        return kExitUsage;
    }
    const Figure &figure = *it;

    BenchArgs args(figure.name, figure.title, BenchArgs::Kind::kSweep);
    return guardedMain(argc, argv, args, [&] {
        const workload::WorkloadParams params = benchParams();
        if (figure.gpuCounts.empty()) {
            maybeWriteJson(args, figure.name, figure.title, params,
                           sweepAndReport(figure, 4, params, args));
            return 0;
        }
        harness::ResultMatrix combined;
        for (unsigned gpus : figure.gpuCounts) {
            const auto matrix = sweepAndReport(figure, gpus, params, args);
            for (const auto &[row, runs] : matrix)
                for (const auto &[label, result] : runs)
                    combined[row][label + "@" + std::to_string(gpus) +
                                  "gpu"] = result;
            std::cout << "\n";
        }
        maybeWriteJson(args, figure.name, figure.title, params, combined);
        return 0;
    });
}

}  // namespace grit::bench
