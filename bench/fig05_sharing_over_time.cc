/**
 * @file
 * Figure 5: shared-page access distribution over time. For C2D the
 * tracked page shows producer-consumer sharing (one GPU dominates per
 * interval, then another takes over); for ST it shows all-shared
 * behaviour with pattern changes across intervals.
 */

#include <iostream>

#include "bench_util.h"
#include "workload/characterizer.h"

namespace {

void
report(const grit::workload::Workload &w, unsigned intervals,
       std::vector<grit::harness::NamedTable> &tables)
{
    using namespace grit;
    const sim::PageId page = workload::mostAccessedSharedRwPage(w);
    const auto dist = workload::pageGpuDistribution(w, page, intervals);

    std::cout << w.name << ": per-interval access share of page " << page
              << " by GPU\n";
    std::vector<std::string> headers = {"interval"};
    for (unsigned g = 0; g < w.numGpus(); ++g)
        headers.push_back("GPU" + std::to_string(g));
    harness::TextTable table(headers);
    for (unsigned k = 0; k < intervals; ++k) {
        std::uint64_t total = 0;
        for (unsigned g = 0; g < w.numGpus(); ++g)
            total += dist[k][g];
        std::vector<std::string> row = {std::to_string(k)};
        for (unsigned g = 0; g < w.numGpus(); ++g) {
            row.push_back(
                total == 0
                    ? "-"
                    : harness::TextTable::fmt(
                          100.0 * static_cast<double>(dist[k][g]) /
                              static_cast<double>(total),
                          0));
        }
        table.addRow(row);
    }
    table.print(std::cout);
    std::cout << "\n";
    tables.push_back(harness::namedTable(
        w.name + " gpu share of page " + std::to_string(page), table));
}

}  // namespace

static std::vector<grit::harness::NamedTable>
run(const grit::workload::WorkloadParams &params)
{
    using namespace grit;

    constexpr unsigned kIntervals = 16;

    std::cout << "Figure 5: shared page access pattern over time "
                 "(percent of the interval's accesses per GPU)\n\n";
    std::vector<harness::NamedTable> tables;
    report(workload::makeWorkload(workload::AppId::kC2d, params),
           kIntervals, tables);
    report(workload::makeWorkload(workload::AppId::kSt, params),
           kIntervals, tables);
    return tables;
}

int
main(int argc, char **argv)
{
    return grit::bench::reportMain(
        argc, argv, "fig05_sharing_over_time",
        "Figure 5: shared page access pattern over time", run);
}
