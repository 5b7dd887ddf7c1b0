/**
 * @file
 * Figure 4: percentage of private vs shared pages per application, and
 * the percentage of accesses going to each class.
 */

#include <iostream>

#include "bench_util.h"
#include "workload/characterizer.h"

static std::vector<grit::harness::NamedTable>
run(const grit::workload::WorkloadParams &params)
{
    using namespace grit;

    std::cout << "Figure 4: private/shared pages and accesses\n\n";
    harness::TextTable table({"app", "private pages %", "shared pages %",
                              "accesses to private %",
                              "accesses to shared %"});
    for (workload::AppId app : workload::kAllApps) {
        const auto w = workload::makeWorkload(app, params);
        const auto c = workload::classifyPages(w);
        const double pages =
            static_cast<double>(c.totalPages());
        const double accesses =
            static_cast<double>(c.totalAccesses());
        table.addRow(
            {w.name,
             harness::TextTable::fmt(100.0 * c.privatePages / pages, 1),
             harness::TextTable::fmt(100.0 * c.sharedPages / pages, 1),
             harness::TextTable::fmt(
                 100.0 * c.accessesToPrivate / accesses, 1),
             harness::TextTable::fmt(
                 100.0 * c.accessesToShared / accesses, 1)});
    }
    table.print(std::cout);
    return {harness::namedTable("page_sharing", table)};
}

int
main(int argc, char **argv)
{
    return grit::bench::reportMain(
        argc, argv, "fig04_page_sharing",
        "Figure 4: private/shared pages and accesses", run);
}
