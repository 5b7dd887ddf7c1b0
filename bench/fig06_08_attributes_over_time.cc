/**
 * @file
 * Figures 6-8: page attributes (private/shared, read/read-write) over
 * time across consecutive pages, for GEMM (regular: consecutive regions
 * hold stable attributes) and ST (irregular: attributes change over
 * time but neighboring pages change together). Rendered as a coarse
 * character map plus the neighbor-similarity metric that motivates
 * Neighboring-Aware Prediction (Section IV-C).
 */

#include <iostream>

#include "bench_util.h"
#include "workload/characterizer.h"

namespace {

char
glyph(grit::workload::PageAttr attr)
{
    using grit::workload::PageAttr;
    switch (attr) {
      case PageAttr::kUntouched:        return '.';
      case PageAttr::kPrivateRead:      return 'p';
      case PageAttr::kPrivateReadWrite: return 'P';
      case PageAttr::kSharedRead:       return 's';
      case PageAttr::kSharedReadWrite:  return 'S';
    }
    return '?';
}

void
report(const grit::workload::Workload &w,
       std::vector<grit::harness::NamedTable> &tables)
{
    using namespace grit;
    constexpr unsigned kIntervals = 20;
    constexpr unsigned kColumns = 64;

    harness::TextTable out({"interval", "attribute_map"});

    const auto map = workload::attributesOverTime(w, kIntervals);
    std::cout << w.name << ": attribute map (rows = time intervals, "
              << "columns = " << kColumns << " page bins; "
              << "p/P private read/rw, s/S shared read/rw)\n";
    const std::size_t pages = map.front().size();
    for (unsigned k = 0; k < kIntervals; ++k) {
        std::string row;
        for (unsigned c = 0; c < kColumns; ++c) {
            // Majority attribute within the page bin.
            const std::size_t lo = c * pages / kColumns;
            const std::size_t hi = (c + 1) * pages / kColumns;
            unsigned counts[5] = {0, 0, 0, 0, 0};
            for (std::size_t p = lo; p < hi && p < pages; ++p)
                counts[static_cast<unsigned>(map[k][p])] += 1;
            unsigned best = 0;
            for (unsigned a = 1; a < 5; ++a)
                if (counts[a] > counts[best])
                    best = a;
            row.push_back(glyph(static_cast<workload::PageAttr>(best)));
        }
        std::cout << "  " << row << "\n";
        out.addRow({std::to_string(k), row});
    }
    const double similarity = 100.0 * workload::neighborSimilarity(map);
    std::cout << "  neighbor-attribute similarity: "
              << harness::TextTable::fmt(similarity, 1)
              << "% of adjacent touched page pairs agree\n\n";
    out.addRow({"neighbor_similarity_pct",
                harness::TextTable::fmt(similarity, 1)});
    tables.push_back(
        harness::namedTable(w.name + " attribute map", out));
}

}  // namespace

static std::vector<grit::harness::NamedTable>
run(const grit::workload::WorkloadParams &params)
{
    using namespace grit;

    std::cout << "Figures 6-8: page attributes over time for "
                 "consecutive pages\n\n";
    std::vector<harness::NamedTable> tables;
    report(workload::makeWorkload(workload::AppId::kGemm, params),
           tables);
    report(workload::makeWorkload(workload::AppId::kSt, params), tables);
    return tables;
}

int
main(int argc, char **argv)
{
    return grit::bench::reportMain(
        argc, argv, "fig06_08_attributes_over_time",
        "Figures 6-8: page attributes over time", run);
}
