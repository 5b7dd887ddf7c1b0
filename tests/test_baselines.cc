/** @file Unit tests for the comparison baselines: Griffin-DPC, GPS,
 *  and the tree-based neighborhood prefetcher. */

#include <gtest/gtest.h>

#include <memory>

#include "baselines/gps.h"
#include "baselines/griffin.h"
#include "baselines/tree_prefetcher.h"
#include "policy/on_touch.h"
#include "test_util.h"

namespace grit::baselines {
namespace {

using test::MiniSystem;

// ------------------------------------------------------------------- Griffin

TEST(GriffinDpc, ColdMigratesThenMapsRemote)
{
    MiniSystem sys(2);
    sys.usePolicy(std::make_unique<GriffinDpcPolicy>());
    sys.driver->handleFault(0, 10, false, false, 0);
    EXPECT_EQ(sys.driver->directory().ownerOf(10), 0);
    sys.driver->handleFault(1, 10, false, false, 1000);
    EXPECT_EQ(sys.gpu(1).pageTable().find(10)->kind,
              mem::MappingKind::kRemote);
}

TEST(GriffinDpc, IntervalMigratesToDominantAccessor)
{
    GriffinConfig config;
    config.intervalCycles = 1000;
    config.minAccesses = 4;
    config.dominanceRatio = 2.0;
    MiniSystem sys(2);
    auto policy = std::make_unique<GriffinDpcPolicy>(config);
    GriffinDpcPolicy *dpc = policy.get();
    sys.usePolicy(std::move(policy));

    sys.driver->handleFault(0, 10, false, false, 0);  // GPU 0 owns
    // GPU 1 hammers the page remotely within the interval.
    for (int i = 0; i < 10; ++i)
        dpc->onAccess(1, 10, false, true, 100 + i);
    // Crossing the boundary triggers classification.
    dpc->onAccess(1, 10, false, true, 1500);
    EXPECT_EQ(sys.driver->directory().ownerOf(10), 1);
    EXPECT_GE(dpc->migrationsIssued(), 1u);
    EXPECT_GE(dpc->intervalsProcessed(), 1u);
}

TEST(GriffinDpc, QuietPagesStayPut)
{
    GriffinConfig config;
    config.intervalCycles = 1000;
    config.minAccesses = 16;
    MiniSystem sys(2);
    auto policy = std::make_unique<GriffinDpcPolicy>(config);
    GriffinDpcPolicy *dpc = policy.get();
    sys.usePolicy(std::move(policy));

    sys.driver->handleFault(0, 10, false, false, 0);
    dpc->onAccess(1, 10, false, true, 100);  // below minAccesses
    dpc->onAccess(1, 10, false, true, 1500);
    EXPECT_EQ(sys.driver->directory().ownerOf(10), 0);
    EXPECT_EQ(dpc->migrationsIssued(), 0u);
}

TEST(GriffinDpc, ResetClearsIntervalState)
{
    MiniSystem sys(2);
    auto policy = std::make_unique<GriffinDpcPolicy>();
    GriffinDpcPolicy *dpc = policy.get();
    sys.usePolicy(std::move(policy));
    dpc->onAccess(0, 1, false, false, 10);
    dpc->reset();
    EXPECT_EQ(dpc->intervalsProcessed(), 0u);
}

// ----------------------------------------------------------------------- GPS

TEST(Gps, SubscribesWithWritableReplica)
{
    MiniSystem sys(2);
    sys.usePolicy(std::make_unique<GpsPolicy>());
    sys.driver->handleFault(0, 10, false, false, 0);
    sys.driver->handleFault(1, 10, false, false, 100000);
    const mem::PteRecord *rec = sys.gpu(1).pageTable().find(10);
    ASSERT_NE(rec, nullptr);
    EXPECT_TRUE(rec->pte.writable());       // GPS replicas are writable
    EXPECT_FALSE(rec->readOnlyReplica);
    // The owner keeps write permission too: no collapses under GPS.
    EXPECT_TRUE(sys.gpu(0).pageTable().find(10)->pte.writable());
    EXPECT_TRUE(sys.driver->directory().find(10)->hasReplica(1));
}

TEST(Gps, StoresBroadcastToSubscribers)
{
    MiniSystem sys(3);
    auto policy = std::make_unique<GpsPolicy>();
    GpsPolicy *gps = policy.get();
    sys.usePolicy(std::move(policy));
    sys.driver->handleFault(0, 10, false, false, 0);
    sys.driver->handleFault(1, 10, false, false, 100000);
    sys.driver->handleFault(2, 10, false, false, 200000);

    const sim::Cycle overhead = gps->onAccess(1, 10, true, false, 300000);
    EXPECT_GT(overhead, 0u);
    // Pushes to the owner (GPU 0) and the other subscriber (GPU 2).
    EXPECT_EQ(gps->broadcasts(), 2u);
}

TEST(Gps, ReadsAndUnsharedWritesAreFree)
{
    MiniSystem sys(2);
    auto policy = std::make_unique<GpsPolicy>();
    GpsPolicy *gps = policy.get();
    sys.usePolicy(std::move(policy));
    sys.driver->handleFault(0, 10, false, false, 0);
    EXPECT_EQ(gps->onAccess(0, 10, false, false, 100), 0u);  // read
    EXPECT_EQ(gps->onAccess(0, 10, true, false, 200), 0u);   // no replicas
    EXPECT_EQ(gps->broadcasts(), 0u);
}

// ----------------------------------------------------------- TreePrefetcher

TEST(TreePrefetcher, MajorityOccupancyPrefetchesSiblings)
{
    MiniSystem sys(2);
    sys.usePolicy(std::make_unique<policy::OnTouchPolicy>());
    PrefetcherConfig config;
    config.pagesPerBlock = 2;
    config.blocksPerRoot = 4;  // root covers 8 pages
    TreePrefetcher prefetcher(*sys.driver, config);

    // Touch three of the four pages under the 2-leaf node (blocks 0-1):
    // occupancy strictly exceeds 50 % -> the remaining page prefetches.
    sys.driver->handleFault(0, 0, false, false, 0);
    sys.driver->handleFault(0, 1, false, false, 100000);
    sys.driver->handleFault(0, 2, false, false, 200000);
    EXPECT_GE(prefetcher.triggers(), 1u);
    EXPECT_GE(prefetcher.prefetchedPages(), 1u);
    EXPECT_EQ(sys.driver->directory().ownerOf(3), 0);
    EXPECT_GT(sys.stats.get("uvm.prefetches"), 0u);
}

TEST(TreePrefetcher, DoesNotStealResidentPages)
{
    MiniSystem sys(2);
    sys.usePolicy(std::make_unique<policy::OnTouchPolicy>());
    PrefetcherConfig config;
    config.pagesPerBlock = 2;
    config.blocksPerRoot = 4;
    TreePrefetcher prefetcher(*sys.driver, config);

    // GPU 1 owns page 2 before GPU 0's occupancy grows.
    sys.driver->handleFault(1, 2, false, false, 0);
    sys.driver->handleFault(0, 0, false, false, 100000);
    sys.driver->handleFault(0, 1, false, false, 200000);
    EXPECT_EQ(sys.driver->directory().ownerOf(2), 1);  // untouched
}

TEST(TreePrefetcher, PerGpuTreesAreIndependent)
{
    MiniSystem sys(2);
    sys.usePolicy(std::make_unique<policy::OnTouchPolicy>());
    PrefetcherConfig config;
    config.pagesPerBlock = 2;
    config.blocksPerRoot = 4;
    TreePrefetcher prefetcher(*sys.driver, config);

    // Each GPU holds one page of the node: neither reaches majority
    // within its own tree.
    sys.driver->handleFault(0, 0, false, false, 0);
    sys.driver->handleFault(1, 2, false, false, 100000);
    EXPECT_EQ(prefetcher.triggers(), 0u);
}

}  // namespace
}  // namespace grit::baselines
