/**
 * @file
 * The figure table: every app x config sweep of the paper as one row of
 * data (figure_table.cc), run by one generic runner (figure_runner.cc).
 *
 * A row names its binary, its configurations (label -> SystemConfig
 * factory), the baseline the per-app table is normalized to, the
 * table's metric and columns, and the "X vs Y (paper: ...)" mean lines
 * checked against the paper's numbers. Each figure binary is the one
 * line of figure_main.cc plus its row's name (bench/CMakeLists.txt), so
 * binary names, `--help` titles and outputs stay what they were.
 *
 * The runner parses the sweep command line (BenchArgs), reads
 * benchParams() once, runs the plan through runPlanResilient (which
 * applies the config-shaping flags to every cell), prints the heading,
 * the normalized table, the claim lines and the row's report hook, and
 * writes the `--json` document.
 */

#ifndef GRIT_BENCH_FIGURES_H_
#define GRIT_BENCH_FIGURES_H_

#include <functional>
#include <string>
#include <vector>

#include "harness/config.h"
#include "harness/experiment.h"
#include "harness/experiment_engine.h"
#include "workload/apps.h"

namespace grit::bench {

/** The per-app number a table shows, normalized to the baseline. */
enum class Metric
{
    kSpeedup,  //!< baseline cycles / config cycles
    kFaults,   //!< config faults / baseline faults
};

/** One column of a figure: its label and how to build it. */
struct FigureConfig
{
    std::string label{};
    std::function<harness::SystemConfig(unsigned gpus)> make{};
};

/** One mean line: @p label against @p base, printed as "name: value". */
struct Claim
{
    std::string name{};  //!< empty: the value follows the block heading
    std::string base{};
    std::string label{};
};

/**
 * A block of mean lines under one heading. kSpeedup lines print the
 * mean improvement (harness::meanImprovementPct), kFaults lines the
 * mean fault reduction ("12.3% fewer faults").
 */
struct ClaimBlock
{
    std::string heading{};
    std::vector<Claim> claims{};
    Metric metric = Metric::kSpeedup;
};

/** One row of the figure table; see the file comment. */
struct Figure
{
    std::string name{};   //!< binary and JSON generator name
    std::string title{};  //!< `--help` title and JSON title
    /** First stdout line (GPU-count rows print one per count). */
    std::string heading{};
    std::vector<FigureConfig> configs{};
    /** Normalization column of the per-app table; empty = no table. */
    std::string baseline{};
    /** Table columns; empty = every config, in order. */
    std::vector<std::string> columns{};
    Metric metric = Metric::kSpeedup;
    std::vector<ClaimBlock> claims{};
    /**
     * One sweep and report per GPU count (Figs. 22-24), JSON labels
     * suffixed "@<n>gpu"; empty = one sweep at 4 GPUs.
     */
    std::vector<unsigned> gpuCounts{};
    /** Builds the plan when it is not configs x the Table II apps. */
    std::function<harness::RunPlan(const workload::WorkloadParams &)> plan{};
    /** Prints what a figure adds after its table and claim lines. */
    std::function<void(const harness::ResultMatrix &)> report{};
};

/** Every row, in figure order (figure_table.cc). */
const std::vector<Figure> &figureTable();

/** main() of the figure binary named @p name. */
int runFigure(const std::string &name, int argc, char **argv);

/**
 * Print the per-app table of @p metric for @p labels normalized to
 * @p base, with a MEAN row; a missing cell prints "-". Speedup tables
 * end with a "(speedup, higher is better; normalized to ...)" note.
 */
void printNormalizedTable(const harness::ResultMatrix &matrix,
                          Metric metric, const std::string &base,
                          const std::vector<std::string> &labels);

}  // namespace grit::bench

#endif  // GRIT_BENCH_FIGURES_H_
