/**
 * @file
 * Figure 9: percentage of GPU memory accesses going to read pages
 * (never written) vs read-write pages, per application.
 */

#include <iostream>

#include "bench_util.h"
#include "workload/characterizer.h"

static std::vector<grit::harness::NamedTable>
run(const grit::workload::WorkloadParams &params)
{
    using namespace grit;

    std::cout << "Figure 9: accesses to read vs read-write pages\n\n";
    harness::TextTable table({"app", "read pages %", "read-write pages %",
                              "accesses to read %",
                              "accesses to read-write %"});
    for (workload::AppId app : workload::kAllApps) {
        const auto w = workload::makeWorkload(app, params);
        const auto c = workload::classifyPages(w);
        const double pages = static_cast<double>(c.totalPages());
        const double accesses = static_cast<double>(c.totalAccesses());
        table.addRow(
            {w.name,
             harness::TextTable::fmt(100.0 * c.readPages / pages, 1),
             harness::TextTable::fmt(100.0 * c.readWritePages / pages, 1),
             harness::TextTable::fmt(100.0 * c.accessesToRead / accesses,
                                     1),
             harness::TextTable::fmt(
                 100.0 * c.accessesToReadWrite / accesses, 1)});
    }
    table.print(std::cout);
    return {harness::namedTable("read_write_mix", table)};
}

int
main(int argc, char **argv)
{
    return grit::bench::reportMain(
        argc, argv, "fig09_read_write_mix",
        "Figure 9: accesses to read vs read-write pages", run);
}
