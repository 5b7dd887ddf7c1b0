#include "workload/characterizer.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

namespace grit::workload {

namespace {

/** Running per-page facts over a whole trace. */
struct PageFacts
{
    unsigned firstGpu = 0;  //!< GPU of the first access
    bool shared = false;    //!< a second GPU has touched the page
    std::uint64_t accesses = 0;
    std::uint64_t writes = 0;

    void add(unsigned gpu, bool write)
    {
        if (accesses == 0)
            firstGpu = gpu;
        else if (gpu != firstGpu)
            shared = true;
        accesses += 1;
        writes += write ? 1 : 0;
    }
};

std::unordered_map<sim::PageId, PageFacts>
collectFacts(const Workload &w)
{
    std::unordered_map<sim::PageId, PageFacts> facts;
    for (unsigned g = 0; g < w.numGpus(); ++g) {
        for (const Access &a : w.traces[g])
            facts[a.addr / kGenPageBytes].add(g, a.write);
    }
    return facts;
}

/** Interval index of access @p i in a trace of @p n accesses. */
std::size_t
intervalOf(std::size_t i, std::size_t n, unsigned intervals)
{
    if (n == 0)
        return 0;
    const std::size_t k = i * intervals / n;
    return std::min<std::size_t>(k, intervals - 1);
}

}  // namespace

PageClassification
classifyPages(const Workload &w)
{
    PageClassification out;
    for (const auto &[page, f] : collectFacts(w)) {
        (void)page;
        if (f.shared) {
            out.sharedPages += 1;
            out.accessesToShared += f.accesses;
        } else {
            out.privatePages += 1;
            out.accessesToPrivate += f.accesses;
        }
        if (f.writes > 0) {
            out.readWritePages += 1;
            out.accessesToReadWrite += f.accesses;
        } else {
            out.readPages += 1;
            out.accessesToRead += f.accesses;
        }
    }
    return out;
}

const char *
pageAttrName(PageAttr attr)
{
    switch (attr) {
      case PageAttr::kUntouched:        return "untouched";
      case PageAttr::kPrivateRead:      return "private-read";
      case PageAttr::kPrivateReadWrite: return "private-rw";
      case PageAttr::kSharedRead:       return "shared-read";
      case PageAttr::kSharedReadWrite:  return "shared-rw";
    }
    return "?";
}

std::vector<std::vector<PageAttr>>
attributesOverTime(const Workload &w, unsigned intervals)
{
    assert(intervals > 0);
    const std::size_t pages =
        static_cast<std::size_t>(w.footprintGenPages);
    std::vector<std::unordered_map<sim::PageId, PageFacts>> per_interval(
        intervals);

    for (unsigned g = 0; g < w.numGpus(); ++g) {
        const GpuTrace &trace = w.traces[g];
        for (std::size_t i = 0; i < trace.size(); ++i) {
            const std::size_t k =
                intervalOf(i, trace.size(), intervals);
            per_interval[k][trace[i].addr / kGenPageBytes].add(
                g, trace[i].write);
        }
    }

    std::vector<std::vector<PageAttr>> map(
        intervals, std::vector<PageAttr>(pages, PageAttr::kUntouched));
    for (unsigned k = 0; k < intervals; ++k) {
        for (const auto &[page, f] : per_interval[k]) {
            if (page >= pages)
                continue;
            const bool wrote = f.writes > 0;
            PageAttr attr;
            if (f.shared) {
                attr = wrote ? PageAttr::kSharedReadWrite
                             : PageAttr::kSharedRead;
            } else {
                attr = wrote ? PageAttr::kPrivateReadWrite
                             : PageAttr::kPrivateRead;
            }
            map[k][static_cast<std::size_t>(page)] = attr;
        }
    }
    return map;
}

double
neighborSimilarity(const std::vector<std::vector<PageAttr>> &attr_map)
{
    std::uint64_t pairs = 0;
    std::uint64_t matching = 0;
    for (const auto &row : attr_map) {
        for (std::size_t p = 0; p + 1 < row.size(); ++p) {
            if (row[p] == PageAttr::kUntouched ||
                row[p + 1] == PageAttr::kUntouched) {
                continue;
            }
            pairs += 1;
            matching += row[p] == row[p + 1] ? 1 : 0;
        }
    }
    return pairs == 0 ? 0.0
                      : static_cast<double>(matching) /
                            static_cast<double>(pairs);
}

std::vector<std::vector<std::uint64_t>>
pageGpuDistribution(const Workload &w, sim::PageId page,
                    unsigned intervals)
{
    assert(intervals > 0);
    std::vector<std::vector<std::uint64_t>> out(
        intervals, std::vector<std::uint64_t>(w.numGpus(), 0));
    for (unsigned g = 0; g < w.numGpus(); ++g) {
        const GpuTrace &trace = w.traces[g];
        for (std::size_t i = 0; i < trace.size(); ++i) {
            if (trace[i].addr / kGenPageBytes != page)
                continue;
            out[intervalOf(i, trace.size(), intervals)][g] += 1;
        }
    }
    return out;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
pageRwDistribution(const Workload &w, sim::PageId page, unsigned intervals)
{
    assert(intervals > 0);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out(
        intervals, {0, 0});
    for (unsigned g = 0; g < w.numGpus(); ++g) {
        const GpuTrace &trace = w.traces[g];
        for (std::size_t i = 0; i < trace.size(); ++i) {
            if (trace[i].addr / kGenPageBytes != page)
                continue;
            auto &cell = out[intervalOf(i, trace.size(), intervals)];
            if (trace[i].write)
                cell.second += 1;
            else
                cell.first += 1;
        }
    }
    return out;
}

namespace {

sim::PageId
pickPage(const Workload &w, bool require_write)
{
    sim::PageId best = 0;
    std::uint64_t best_accesses = 0;
    for (const auto &[page, f] : collectFacts(w)) {
        if (!f.shared)
            continue;
        if (require_write && f.writes == 0)
            continue;
        // Ties go to the lowest page id, not to hash order.
        if (f.accesses > best_accesses ||
            (f.accesses == best_accesses && page < best)) {
            best_accesses = f.accesses;
            best = page;
        }
    }
    return best;
}

}  // namespace

sim::PageId
mostAccessedSharedPage(const Workload &w)
{
    return pickPage(w, /*require_write=*/false);
}

sim::PageId
mostAccessedSharedRwPage(const Workload &w)
{
    return pickPage(w, /*require_write=*/true);
}

}  // namespace grit::workload
