/**
 * @file
 * Figure 10: read/write mix over time for one read-write shared page of
 * ST — early intervals are read-only, later intervals mix reads and
 * writes, motivating time-varying scheme selection.
 */

#include <iostream>

#include "bench_util.h"
#include "workload/characterizer.h"

static std::vector<grit::harness::NamedTable>
run(const grit::workload::WorkloadParams &params)
{
    using namespace grit;

    constexpr unsigned kIntervals = 32;

    const auto w = workload::makeWorkload(workload::AppId::kSt, params);
    const sim::PageId page = workload::mostAccessedSharedRwPage(w);
    const auto dist = workload::pageRwDistribution(w, page, kIntervals);

    std::cout << "Figure 10: read/write accesses over time for ST page "
              << page << "\n\n";
    harness::TextTable table({"interval", "reads", "writes", "write %"});
    for (unsigned k = 0; k < kIntervals; ++k) {
        const auto [reads, writes] = dist[k];
        const std::uint64_t total = reads + writes;
        table.addRow({std::to_string(k), std::to_string(reads),
                      std::to_string(writes),
                      total == 0 ? "-"
                                 : harness::TextTable::fmt(
                                       100.0 * writes / total, 1)});
    }
    table.print(std::cout);
    return {harness::namedTable("rw_over_time", table)};
}

int
main(int argc, char **argv)
{
    return grit::bench::reportMain(
        argc, argv, "fig10_rw_over_time",
        "Figure 10: read/write mix over time for one ST page", run);
}
