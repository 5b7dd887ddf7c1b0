/** @file Unit tests for the offline trace characterizer on hand-built
 *  workloads with known properties. */

#include <gtest/gtest.h>

#include "workload/characterizer.h"
#include "workload/trace.h"

namespace grit::workload {
namespace {

/** Hand-built workload: two GPUs, four pages with known classes. */
Workload
tinyWorkload()
{
    Workload w;
    w.name = "tiny";
    w.footprintGenPages = 4;
    w.traces.resize(2);
    auto touch = [&](unsigned gpu, sim::PageId page, bool write) {
        w.traces[gpu].push_back(Access{pageLineAddr(page, 0, kGenPageBytes), write});
    };
    // Page 0: private read (GPU 0 only, reads).
    touch(0, 0, false);
    touch(0, 0, false);
    // Page 1: private read-write (GPU 1 only).
    touch(1, 1, false);
    touch(1, 1, true);
    // Page 2: shared read (both GPUs).
    touch(0, 2, false);
    touch(1, 2, false);
    // Page 3: shared read-write.
    touch(0, 3, true);
    touch(1, 3, false);
    return w;
}

TEST(Characterizer, ClassifiesPagesAndAccesses)
{
    const auto c = classifyPages(tinyWorkload());
    EXPECT_EQ(c.privatePages, 2u);
    EXPECT_EQ(c.sharedPages, 2u);
    EXPECT_EQ(c.readPages, 2u);
    EXPECT_EQ(c.readWritePages, 2u);
    EXPECT_EQ(c.accessesToPrivate, 4u);
    EXPECT_EQ(c.accessesToShared, 4u);
    EXPECT_EQ(c.accessesToRead, 4u);
    EXPECT_EQ(c.accessesToReadWrite, 4u);
    EXPECT_EQ(c.totalPages(), 4u);
    EXPECT_EQ(c.totalAccesses(), 8u);
}

TEST(Characterizer, AttributesOverTime)
{
    const auto map = attributesOverTime(tinyWorkload(), 1);
    ASSERT_EQ(map.size(), 1u);
    ASSERT_EQ(map[0].size(), 4u);
    EXPECT_EQ(map[0][0], PageAttr::kPrivateRead);
    EXPECT_EQ(map[0][1], PageAttr::kPrivateReadWrite);
    EXPECT_EQ(map[0][2], PageAttr::kSharedRead);
    EXPECT_EQ(map[0][3], PageAttr::kSharedReadWrite);
}

TEST(Characterizer, AttributesChangePerInterval)
{
    Workload w;
    w.footprintGenPages = 1;
    w.traces.resize(2);
    // First half: GPU 0 reads page 0; second half: GPU 1 writes it.
    w.traces[0].push_back(Access{0, false});
    w.traces[0].push_back(Access{0, false});
    w.traces[1].push_back(Access{0, true});
    w.traces[1].push_back(Access{0, true});
    // With 2 intervals, each GPU's trace splits in half; both GPUs are
    // active in both intervals -> shared either way, write bit varies
    // per interval via the per-interval facts.
    const auto map = attributesOverTime(w, 2);
    EXPECT_EQ(map[0][0], PageAttr::kSharedReadWrite);
}

TEST(Characterizer, UntouchedPagesStayUntouched)
{
    Workload w;
    w.footprintGenPages = 3;
    w.traces.resize(1);
    w.traces[0].push_back(Access{0, false});  // only page 0 touched
    const auto map = attributesOverTime(w, 2);
    EXPECT_EQ(map[0][1], PageAttr::kUntouched);
    EXPECT_EQ(map[1][2], PageAttr::kUntouched);
}

TEST(Characterizer, NeighborSimilarityBounds)
{
    // Identical neighbors -> similarity 1.
    std::vector<std::vector<PageAttr>> uniform(
        2, std::vector<PageAttr>(8, PageAttr::kSharedRead));
    EXPECT_DOUBLE_EQ(neighborSimilarity(uniform), 1.0);

    // Alternating attributes -> similarity 0.
    std::vector<std::vector<PageAttr>> alternating(
        1, std::vector<PageAttr>(8));
    for (std::size_t p = 0; p < 8; ++p)
        alternating[0][p] = p % 2 == 0 ? PageAttr::kPrivateRead
                                       : PageAttr::kSharedRead;
    EXPECT_DOUBLE_EQ(neighborSimilarity(alternating), 0.0);

    // Untouched pages are excluded from the metric.
    std::vector<std::vector<PageAttr>> sparse(
        1, std::vector<PageAttr>(4, PageAttr::kUntouched));
    EXPECT_DOUBLE_EQ(neighborSimilarity(sparse), 0.0);
}

TEST(Characterizer, PageGpuDistribution)
{
    const auto dist = pageGpuDistribution(tinyWorkload(), 2, 1);
    ASSERT_EQ(dist.size(), 1u);
    EXPECT_EQ(dist[0][0], 1u);
    EXPECT_EQ(dist[0][1], 1u);
}

TEST(Characterizer, PageRwDistribution)
{
    const auto dist = pageRwDistribution(tinyWorkload(), 3, 1);
    EXPECT_EQ(dist[0].first, 1u);   // one read
    EXPECT_EQ(dist[0].second, 1u);  // one write
}

TEST(Characterizer, SharedPagePickers)
{
    const Workload w = tinyWorkload();
    // Pages 2 and 3 tie at two accesses: the lower id wins.
    EXPECT_EQ(mostAccessedSharedPage(w), 2u);
    EXPECT_EQ(mostAccessedSharedRwPage(w), 3u);
}

TEST(Characterizer, PickerTiesGoToTheLowestPage)
{
    Workload w;
    w.name = "ties";
    w.footprintGenPages = 64;
    w.traces.resize(2);
    // Shared pages 41, 17, 29 and 23 all take three accesses (one a
    // write); private page 5 takes more but is not a candidate.
    for (sim::PageId page : {41, 17, 29, 23}) {
        w.traces[0].push_back(
            Access{pageLineAddr(page, 0, kGenPageBytes), true});
        w.traces[1].push_back(
            Access{pageLineAddr(page, 1, kGenPageBytes), false});
        w.traces[1].push_back(
            Access{pageLineAddr(page, 2, kGenPageBytes), false});
    }
    for (int i = 0; i < 8; ++i)
        w.traces[0].push_back(Access{pageLineAddr(5, 0, kGenPageBytes), false});
    EXPECT_EQ(mostAccessedSharedPage(w), 17u);
    EXPECT_EQ(mostAccessedSharedRwPage(w), 17u);
}

TEST(Characterizer, SharingIsSeenBeyondThirtyTwoGpus)
{
    Workload w;
    w.name = "wide";
    w.footprintGenPages = 2;
    w.traces.resize(40);
    // GPUs 1 and 33 share page 0; GPU 33 alone touches page 1.
    w.traces[1].push_back(Access{pageLineAddr(0, 0, kGenPageBytes), false});
    w.traces[33].push_back(Access{pageLineAddr(0, 0, kGenPageBytes), false});
    w.traces[33].push_back(Access{pageLineAddr(1, 0, kGenPageBytes), false});
    const auto c = classifyPages(w);
    EXPECT_EQ(c.sharedPages, 1u);
    EXPECT_EQ(c.privatePages, 1u);
    EXPECT_EQ(attributesOverTime(w, 1)[0][0], PageAttr::kSharedRead);
    EXPECT_EQ(mostAccessedSharedPage(w), 0u);
}

TEST(Characterizer, PageAttrNames)
{
    EXPECT_STREQ(pageAttrName(PageAttr::kUntouched), "untouched");
    EXPECT_STREQ(pageAttrName(PageAttr::kSharedReadWrite), "shared-rw");
}

}  // namespace
}  // namespace grit::workload
