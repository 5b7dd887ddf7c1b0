/**
 * @file
 * Table II: the application inventory — suite, access pattern, paper
 * footprint, and the scaled footprint/trace statistics this repository
 * generates for each.
 */

#include <iostream>

#include "bench_util.h"
#include "workload/characterizer.h"

static std::vector<grit::harness::NamedTable>
run(const grit::workload::WorkloadParams &params)
{
    using namespace grit;

    std::cout << "Table II: applications\n\n";
    harness::TextTable table({"abbr", "application", "suite", "pattern",
                              "paper MB", "scaled pages", "accesses",
                              "writes %"});
    for (workload::AppId app : workload::kAllApps) {
        const auto w = workload::makeWorkload(app, params);
        const double writes =
            w.totalAccesses() > 0
                ? 100.0 * static_cast<double>(w.totalWrites()) /
                      static_cast<double>(w.totalAccesses())
                : 0.0;
        table.addRow({w.name, w.fullName, w.suite, w.pattern,
                      std::to_string(w.paperFootprintMB),
                      std::to_string(w.footprintGenPages),
                      std::to_string(w.totalAccesses()),
                      harness::TextTable::fmt(writes, 1)});
    }
    table.print(std::cout);
    return {harness::namedTable("workloads", table)};
}

int
main(int argc, char **argv)
{
    return grit::bench::reportMain(
        argc, argv, "table02_workloads",
        "Table II: applications", run);
}
