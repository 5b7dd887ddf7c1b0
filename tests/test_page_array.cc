/** @file Tests for sim::PageArray, the dense per-page store behind the
 *  page tables, replica directory, PA-Table, fault coalescer, L1 holder
 *  filter, access counters and DRAM LRU: lazy allocation, pointer
 *  stability, erase/size/clear, and ascending iteration. */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "simcore/page_array.h"
#include "simcore/rng.h"
#include "simcore/sim_error.h"

namespace grit::sim {
namespace {

TEST(PageArray, NeverWrittenPageIsAbsentAndAllocatesNothing)
{
    PageArray<int> pages;
    EXPECT_EQ(pages.find(0), nullptr);
    EXPECT_EQ(pages.find(12345), nullptr);
    EXPECT_EQ(pages.find(PageId{1} << 62), nullptr);
    EXPECT_FALSE(pages.contains(7));
    EXPECT_FALSE(pages.erase(7));
    EXPECT_EQ(pages.size(), 0u);
    EXPECT_EQ(pages.chunkCount(), 0u);
    EXPECT_TRUE(pages.begin() == pages.end());

    // A live page makes only its own chunk; its neighbours stay absent.
    pages[3 * PageArray<int>::kChunkSize + 1] = 5;
    EXPECT_EQ(pages.chunkCount(), 1u);
    EXPECT_EQ(pages.find(3 * PageArray<int>::kChunkSize), nullptr);
    EXPECT_EQ(pages.find(0), nullptr);
}

TEST(PageArray, OperatorBracketDefaultConstructsOnce)
{
    PageArray<std::vector<int>> pages;
    pages[4].push_back(1);
    pages[4].push_back(2);
    EXPECT_EQ(pages.size(), 1u);
    ASSERT_NE(pages.find(4), nullptr);
    EXPECT_EQ(pages.find(4)->size(), 2u);
}

TEST(PageArray, PointersStayValidAcrossGrowthToAFarPage)
{
    PageArray<std::string> pages;
    pages[1] = "near";
    const std::string *near = pages.find(1);
    // Far enough that the chunk directory must grow many times over.
    for (PageId p = 0; p < 64; ++p)
        pages[(PageId{1} << 24) + p * PageArray<std::string>::kChunkSize] =
            "far";
    EXPECT_EQ(pages.find(1), near);
    EXPECT_EQ(*near, "near");
    pages.erase(PageId{1} << 24);
    EXPECT_EQ(pages.find(1), near);
}

TEST(PageArray, EraseSizeAndClear)
{
    PageArray<int> pages;
    for (PageId p = 0; p < 2000; p += 3)
        pages[p] = static_cast<int>(p);
    EXPECT_EQ(pages.size(), 667u);
    EXPECT_TRUE(pages.erase(3));
    EXPECT_FALSE(pages.erase(3));
    EXPECT_FALSE(pages.erase(4));  // never written
    EXPECT_EQ(pages.size(), 666u);
    EXPECT_EQ(pages.find(3), nullptr);

    // An erased page comes back default-constructed, not with its old
    // value.
    EXPECT_EQ(pages[3], 0);
    EXPECT_EQ(pages.size(), 667u);

    pages.clear();
    EXPECT_EQ(pages.size(), 0u);
    EXPECT_EQ(pages.chunkCount(), 0u);
    EXPECT_EQ(pages.find(6), nullptr);
    EXPECT_TRUE(pages.begin() == pages.end());
}

TEST(PageArray, IterationIsAscendingWhateverTheWriteOrder)
{
    PageArray<int> pages;
    const std::vector<PageId> order = {9000, 5, 64, 63, 0, 511, 512, 70000};
    for (PageId p : order)
        pages[p] = static_cast<int>(p) + 1;
    pages.erase(64);

    std::vector<PageId> seen;
    for (const auto &[page, value] : pages) {
        EXPECT_EQ(value, static_cast<int>(page) + 1);
        seen.push_back(page);
    }
    EXPECT_EQ(seen,
              (std::vector<PageId>{0, 5, 63, 511, 512, 9000, 70000}));
}

TEST(PageArray, MatchesAnOrderedMapUnderRandomChurn)
{
    PageArray<int> pages;
    std::map<PageId, int> reference;
    Rng rng(42);
    for (int i = 0; i < 50000; ++i) {
        const PageId page = rng.below(6000);
        switch (rng.below(3)) {
          case 0:
            pages[page] = i;
            reference[page] = i;
            break;
          case 1:
            EXPECT_EQ(pages.erase(page), reference.erase(page) > 0);
            break;
          default: {
            const int *value = pages.find(page);
            const auto it = reference.find(page);
            ASSERT_EQ(value != nullptr, it != reference.end()) << page;
            if (value != nullptr) {
                EXPECT_EQ(*value, it->second);
            }
          }
        }
        ASSERT_EQ(pages.size(), reference.size());
    }
    auto it = reference.begin();
    for (const auto &[page, value] : pages) {
        ASSERT_NE(it, reference.end());
        EXPECT_EQ(page, it->first);
        EXPECT_EQ(value, it->second);
        ++it;
    }
    EXPECT_EQ(it, reference.end());
}

TEST(PageArray, WriteBeyondTheDensePageRangeThrows)
{
    PageArray<int> pages;
    EXPECT_THROW(pages[PageArray<int>::kMaxPages], SimException);
    EXPECT_EQ(pages.size(), 0u);
    EXPECT_EQ(pages.chunkCount(), 0u);
}

}  // namespace
}  // namespace grit::sim
