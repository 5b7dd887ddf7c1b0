/** @file Unit tests for page tables, TLBs, walk cache, data cache, DRAM
 *  manager, and access counters. */

#include <gtest/gtest.h>

#include <list>
#include <unordered_map>

#include "mem/access_counter.h"
#include "mem/data_cache.h"
#include "mem/dram_manager.h"
#include "mem/page_table.h"
#include "mem/page_walk_cache.h"
#include "mem/tlb.h"
#include "simcore/rng.h"

namespace grit::mem {
namespace {

// ------------------------------------------------------------------ PageTable

TEST(PageTable, InstallAndLookup)
{
    PageTable pt;
    EXPECT_FALSE(pt.translates(5));
    pt.install(5, MappingKind::kLocal, 0, /*writable=*/true);
    EXPECT_TRUE(pt.translates(5));
    const PteRecord *rec = pt.find(5);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->kind, MappingKind::kLocal);
    EXPECT_EQ(rec->location, 0);
    EXPECT_TRUE(rec->pte.writable());
}

TEST(PageTable, RemoteMapping)
{
    PageTable pt;
    pt.install(9, MappingKind::kRemote, 3, /*writable=*/true);
    EXPECT_EQ(pt.find(9)->kind, MappingKind::kRemote);
    EXPECT_EQ(pt.find(9)->location, 3);
}

TEST(PageTable, InvalidateKeepsSchemeAnnotation)
{
    PageTable pt;
    pt.install(7, MappingKind::kLocal, 1, true);
    pt.setScheme(7, Scheme::kDuplication);
    pt.invalidate(7);
    EXPECT_FALSE(pt.translates(7));
    EXPECT_EQ(pt.scheme(7), Scheme::kDuplication);
}

TEST(PageTable, SchemeAnnotationBeforeMapping)
{
    PageTable pt;
    pt.setScheme(11, Scheme::kAccessCounter);
    EXPECT_FALSE(pt.translates(11));
    EXPECT_EQ(pt.scheme(11), Scheme::kAccessCounter);
    pt.setGroupBits(11, GroupBits::kPages8);
    EXPECT_EQ(pt.groupBits(11), GroupBits::kPages8);
}

TEST(PageTable, EraseRemovesEntry)
{
    PageTable pt;
    pt.install(3, MappingKind::kLocal, 0, true);
    pt.erase(3);
    EXPECT_EQ(pt.find(3), nullptr);
    EXPECT_EQ(pt.scheme(3), Scheme::kNone);
}

TEST(PageTable, ValidCountExcludesAnnotations)
{
    PageTable pt;
    pt.install(1, MappingKind::kLocal, 0, true);
    pt.install(2, MappingKind::kLocal, 0, true);
    pt.setScheme(3, Scheme::kOnTouch);  // annotation only
    pt.invalidate(2);
    EXPECT_EQ(pt.size(), 3u);
    EXPECT_EQ(pt.validCount(), 1u);
}

TEST(PageTable, ReadOnlyReplicaFlag)
{
    PageTable pt;
    pt.install(4, MappingKind::kLocal, 2, /*writable=*/false,
               /*read_only_replica=*/true);
    EXPECT_TRUE(pt.find(4)->readOnlyReplica);
    pt.invalidate(4);
    EXPECT_FALSE(pt.find(4)->readOnlyReplica);
}

// ------------------------------------------------------------------------ Tlb

TEST(Tlb, MissThenHit)
{
    Tlb tlb("t", 32, 32, 1);
    EXPECT_FALSE(tlb.lookup(10));
    tlb.insert(10);
    EXPECT_TRUE(tlb.lookup(10));
    EXPECT_EQ(tlb.hits(), 1u);
    EXPECT_EQ(tlb.misses(), 1u);
}

TEST(Tlb, LruEvictionWithinSet)
{
    Tlb tlb("t", 2, 2, 1);  // one set, two ways
    tlb.insert(1);
    tlb.insert(2);
    EXPECT_TRUE(tlb.lookup(1));  // make 2 the LRU
    tlb.insert(3);               // evicts 2
    EXPECT_TRUE(tlb.lookup(1));
    EXPECT_FALSE(tlb.lookup(2));
    EXPECT_TRUE(tlb.lookup(3));
}

TEST(Tlb, SetsIndexedByPageModulo)
{
    Tlb tlb("t", 4, 2, 1);  // two sets
    // Pages 0 and 2 map to set 0; 1 and 3 to set 1.
    tlb.insert(0);
    tlb.insert(2);
    tlb.insert(4);  // evicts within set 0 only
    EXPECT_TRUE(tlb.lookup(4));
    EXPECT_EQ(tlb.occupancy(), 2u);
}

TEST(Tlb, InvalidateSinglePage)
{
    Tlb tlb("t", 32, 32, 1);
    tlb.insert(5);
    tlb.insert(6);
    tlb.invalidate(5);
    EXPECT_FALSE(tlb.lookup(5));
    EXPECT_TRUE(tlb.lookup(6));
}

TEST(Tlb, FlushAllIsTotal)
{
    Tlb tlb("t", 32, 32, 1);
    for (sim::PageId p = 0; p < 20; ++p)
        tlb.insert(p);
    EXPECT_EQ(tlb.occupancy(), 20u);
    tlb.flushAll();
    EXPECT_EQ(tlb.occupancy(), 0u);
    EXPECT_FALSE(tlb.lookup(3));
    tlb.insert(3);
    EXPECT_TRUE(tlb.lookup(3));  // usable after flush
}

TEST(Tlb, DoubleInsertDoesNotDuplicate)
{
    Tlb tlb("t", 4, 4, 1);
    tlb.insert(9);
    tlb.insert(9);
    EXPECT_EQ(tlb.occupancy(), 1u);
}

/** Property sweep over Table I TLB geometries. */
class TlbGeometry
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(TlbGeometry, CapacityNeverExceeded)
{
    const auto [entries, ways] = GetParam();
    Tlb tlb("t", entries, ways, 1);
    for (sim::PageId p = 0; p < 4 * entries; ++p)
        tlb.insert(p);
    EXPECT_LE(tlb.occupancy(), entries);
}

INSTANTIATE_TEST_SUITE_P(
    TableIGeometries, TlbGeometry,
    ::testing::Values(std::make_tuple(32u, 32u),    // L1 TLB
                      std::make_tuple(512u, 16u),   // L2 TLB
                      std::make_tuple(64u, 4u),
                      std::make_tuple(16u, 1u)));

// -------------------------------------------------------------- PageWalkCache

TEST(PageWalkCache, ColdWalkTakesAllLevels)
{
    PageWalkCache pwc(128);
    EXPECT_EQ(pwc.walkAccesses(0x12345), PageWalkCache::kLevels);
}

TEST(PageWalkCache, FilledPrefixShortensWalk)
{
    PageWalkCache pwc(128);
    pwc.fill(0x12345);
    EXPECT_EQ(pwc.walkAccesses(0x12345), 1u);  // leaf access only
    // A page in the same 2 MB region shares the level-1 prefix.
    EXPECT_EQ(pwc.walkAccesses(0x12345 ^ 0x1), 1u);
}

TEST(PageWalkCache, DistantPageSharesOnlyUpperLevels)
{
    PageWalkCache pwc(128);
    pwc.fill(0);  // covers prefixes of page 0
    // Same 1 GB region, different 2 MB region: level-2 hit -> 2 accesses.
    EXPECT_EQ(pwc.walkAccesses(1 << 9), 2u);
    // Same 512 GB region, different 1 GB region: 3 accesses.
    EXPECT_EQ(pwc.walkAccesses(1 << 18), 3u);
    // Different top-level region: full walk.
    EXPECT_EQ(pwc.walkAccesses(std::uint64_t{1} << 27), 4u);
}

TEST(PageWalkCache, FlushRestoresFullWalks)
{
    PageWalkCache pwc(128);
    pwc.fill(42);
    pwc.flushAll();
    EXPECT_EQ(pwc.walkAccesses(42), PageWalkCache::kLevels);
}

TEST(PageWalkCache, RecordsHitsAndMisses)
{
    PageWalkCache pwc(128);
    pwc.recordWalk(4);
    pwc.recordWalk(1);
    EXPECT_EQ(pwc.hits(), 1u);
    EXPECT_EQ(pwc.misses(), 1u);
}

TEST(PageWalkCache, EvictsTheLeastRecentlyFilledPrefix)
{
    // Capacity 4. fill(a) leaves, oldest first, L1(a) L2 L3; fill(b)
    // (same 1 GB region) adds L1(b) and refreshes L2 and L3, so the
    // LRU order is L1(a) L1(b) L2 L3. fill(c) must evict L1(a) alone.
    PageWalkCache pwc(4);
    const sim::PageId a = 0, b = 1 << 9, c = 2 << 9;
    pwc.fill(a);
    pwc.fill(b);
    pwc.fill(c);
    EXPECT_EQ(pwc.walkAccesses(a), 2u);  // its 2 MB entry was the victim
    EXPECT_EQ(pwc.walkAccesses(b), 1u);
    EXPECT_EQ(pwc.walkAccesses(c), 1u);
    // Walks never refresh: L1(b) is now the LRU entry, then L1(c).
    pwc.fill(3 << 9);
    EXPECT_EQ(pwc.walkAccesses(b), 2u);
    EXPECT_EQ(pwc.walkAccesses(c), 1u);
}

/**
 * Reference model: a fully associative LRU that finds, refreshes and
 * evicts by scanning every slot with a use tick, the simplest form of
 * the behaviour PageWalkCache must reproduce exactly.
 */
class ScanWalkCache
{
  public:
    explicit ScanWalkCache(unsigned entries) : entries_(entries) {}

    unsigned walkAccesses(sim::PageId page) const
    {
        for (unsigned level = 1; level < PageWalkCache::kLevels; ++level)
            for (const Entry &e : entries_)
                if (e.valid && e.key == key(page, level))
                    return level;
        return PageWalkCache::kLevels;
    }

    void fill(sim::PageId page)
    {
        for (unsigned level = 1; level < PageWalkCache::kLevels; ++level)
            touch(key(page, level));
    }

    void flushAll()
    {
        for (Entry &e : entries_)
            e.valid = false;
    }

  private:
    struct Entry
    {
        std::uint64_t key = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    static std::uint64_t key(sim::PageId page, unsigned level)
    {
        return (page >> (9 * level)) |
               (static_cast<std::uint64_t>(level) << 60);
    }

    void touch(std::uint64_t key)
    {
        ++tick_;
        Entry *victim = &entries_.front();
        for (Entry &e : entries_) {
            if (e.valid && e.key == key) {
                e.lastUse = tick_;
                return;
            }
            if (!e.valid) {
                victim = &e;
                break;
            }
            if (e.lastUse < victim->lastUse)
                victim = &e;
        }
        victim->key = key;
        victim->lastUse = tick_;
        victim->valid = true;
    }

    std::vector<Entry> entries_;
    std::uint64_t tick_ = 0;
};

class WalkCacheModel : public ::testing::TestWithParam<unsigned>
{
};

/**
 * Drive a PageWalkCache of @p capacity and the reference through one
 * seeded stream of walks, fills and flushes; with @p combined, fills
 * go through walk() and its answer is checked too.
 */
void
expectMatchesReference(unsigned capacity, bool combined)
{
    PageWalkCache pwc(capacity);
    ScanWalkCache ref(capacity);
    sim::Rng rng(0xC0FFEE + capacity);
    // Pages over 4 top-level (512 GB) regions, 8 1 GB regions each and
    // up to 400 2 MB regions each: far more distinct prefixes than the
    // largest capacity, with half the draws from a hot set near it so
    // that which entry is evicted decides later hits.
    auto draw = [&rng]() -> sim::PageId {
        const std::uint64_t top = rng.below(4);
        const std::uint64_t mid = rng.below(rng.chance(0.5) ? 2 : 8);
        const std::uint64_t region = rng.below(rng.chance(0.5) ? 48 : 400);
        return (top << 27) | (mid << 18) | (region << 9) | rng.below(512);
    };
    unsigned hits = 0;
    for (unsigned step = 0; step < 40000; ++step) {
        const sim::PageId page = draw();
        const unsigned expected = ref.walkAccesses(page);
        hits += expected < PageWalkCache::kLevels;
        const bool flush = rng.chance(0.001);
        const bool fills = !flush && !rng.chance(0.1);  // some only look
        if (combined && fills) {
            ASSERT_EQ(pwc.walk(page), expected)
                << "page " << page << " at step " << step;
        } else {
            ASSERT_EQ(pwc.walkAccesses(page), expected)
                << "page " << page << " at step " << step;
            if (fills)
                pwc.fill(page);
        }
        if (fills)
            ref.fill(page);
        if (flush) {
            pwc.flushAll();
            ref.flushAll();
        }
    }
    EXPECT_GT(hits, 1000u);  // the stream exercises hits, not just misses
}

TEST_P(WalkCacheModel, MatchesScanReference)
{
    expectMatchesReference(GetParam(), /*combined=*/false);
}

TEST_P(WalkCacheModel, WalkMatchesScanReference)
{
    expectMatchesReference(GetParam(), /*combined=*/true);
}

INSTANTIATE_TEST_SUITE_P(Capacities, WalkCacheModel,
                         ::testing::Values(1u, 3u, 128u, 129u));

// ------------------------------------------------------------------ DataCache

TEST(DataCache, MissFillsThenHits)
{
    DataCache cache("c", 1024, 2, 64, 10);
    EXPECT_FALSE(cache.access(7));
    EXPECT_TRUE(cache.access(7));
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(DataCache, LruEvictionWithinSet)
{
    DataCache cache("c", 2 * 64, 2, 64, 10);  // one set, two ways
    cache.access(1);
    cache.access(2);
    cache.access(1);  // 2 becomes LRU
    cache.access(3);  // evicts 2
    EXPECT_TRUE(cache.contains(1));
    EXPECT_FALSE(cache.contains(2));
    EXPECT_TRUE(cache.contains(3));
}

TEST(DataCache, InvalidatePageRemovesItsLines)
{
    DataCache cache("c", 256 * 1024, 16, 64, 10);
    const unsigned lines_per_page = 64;
    cache.access(5 * lines_per_page + 3);
    cache.access(6 * lines_per_page + 3);
    cache.invalidatePage(5, lines_per_page);
    EXPECT_FALSE(cache.contains(5 * lines_per_page + 3));
    EXPECT_TRUE(cache.contains(6 * lines_per_page + 3));
}

TEST(DataCache, FlushAllClears)
{
    DataCache cache("c", 1024, 2, 64, 10);
    cache.access(1);
    cache.flushAll();
    EXPECT_FALSE(cache.contains(1));
    EXPECT_FALSE(cache.access(1));  // refill works
    EXPECT_TRUE(cache.contains(1));
}

// ---------------------------------------------------------------- DramManager

TEST(DramManager, UnlimitedCapacityNeverEvicts)
{
    DramManager dram(0);
    for (sim::PageId p = 0; p < 1000; ++p)
        EXPECT_FALSE(dram.insert(p, FrameKind::kOwned).has_value());
    EXPECT_EQ(dram.size(), 1000u);
    EXPECT_EQ(dram.evictions(), 0u);
}

TEST(DramManager, EvictsLruWhenFull)
{
    DramManager dram(2);
    dram.insert(1, FrameKind::kOwned);
    dram.insert(2, FrameKind::kOwned);
    dram.touch(1);  // 2 becomes LRU
    const auto victim = dram.insert(3, FrameKind::kOwned);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->page, 2u);
    EXPECT_TRUE(dram.resident(1));
    EXPECT_TRUE(dram.resident(3));
    EXPECT_EQ(dram.evictions(), 1u);
}

TEST(DramManager, VictimReportsFrameKind)
{
    DramManager dram(1);
    dram.insert(1, FrameKind::kReplica);
    const auto victim = dram.insert(2, FrameKind::kOwned);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->kind, FrameKind::kReplica);
}

TEST(DramManager, ReplicaCounting)
{
    DramManager dram(0);
    dram.insert(1, FrameKind::kReplica);
    dram.insert(2, FrameKind::kOwned);
    EXPECT_EQ(dram.replicaCount(), 1u);
    dram.setKind(1, FrameKind::kOwned);
    EXPECT_EQ(dram.replicaCount(), 0u);
    dram.setKind(2, FrameKind::kReplica);
    EXPECT_EQ(dram.replicaCount(), 1u);
    dram.erase(2);
    EXPECT_EQ(dram.replicaCount(), 0u);
}

TEST(DramManager, EraseFreesFrame)
{
    DramManager dram(1);
    dram.insert(1, FrameKind::kOwned);
    EXPECT_TRUE(dram.erase(1));
    EXPECT_FALSE(dram.erase(1));
    EXPECT_FALSE(dram.insert(2, FrameKind::kOwned).has_value());
}

TEST(DramManager, KindOfResidentPage)
{
    DramManager dram(0);
    dram.insert(9, FrameKind::kReplica);
    EXPECT_EQ(dram.kindOf(9), FrameKind::kReplica);
}

/**
 * Reference model of DramManager's LRU: the std::list + hash-map
 * implementation it replaced, with the same pinned-region victim rule.
 */
class ListLru
{
  public:
    ListLru(std::uint64_t capacity, std::uint64_t pages_per_region)
        : capacity_(capacity), perRegion_(pages_per_region)
    {
    }

    std::optional<Eviction>
    insert(sim::PageId page, FrameKind kind)
    {
        std::optional<Eviction> victim;
        if (capacity_ != 0 && map_.size() >= capacity_)
            victim = evict();
        lru_.push_front(Eviction{page, kind});
        map_[page] = lru_.begin();
        account(lru_.front(), +1);
        return victim;
    }

    void
    touch(sim::PageId page)
    {
        const auto it = map_.find(page);
        if (it != map_.end())
            lru_.splice(lru_.begin(), lru_, it->second);
    }

    bool
    erase(sim::PageId page)
    {
        const auto it = map_.find(page);
        if (it == map_.end())
            return false;
        account(*it->second, -1);
        lru_.erase(it->second);
        map_.erase(it);
        return true;
    }

    void
    setKind(sim::PageId page, FrameKind kind)
    {
        Eviction &frame = *map_.at(page);
        account(frame, -1);
        frame.kind = kind;
        account(frame, +1);
    }

    std::optional<Eviction>
    evictLru()
    {
        if (lru_.empty())
            return std::nullopt;
        return evict();
    }

    bool resident(sim::PageId page) const { return map_.count(page) != 0; }
    std::uint64_t ownedIn(sim::PageId region) const
    {
        const auto it = owned_.find(region);
        return it == owned_.end() ? 0 : it->second;
    }

    std::vector<Eviction> frames() const { return {lru_.begin(), lru_.end()}; }

    std::unordered_map<sim::PageId, bool> pinned;
    std::uint64_t evictions = 0;
    std::uint64_t replicas = 0;

  private:
    Eviction
    evict()
    {
        auto victim = std::prev(lru_.end());
        if (perRegion_ > 1) {
            for (auto it = lru_.end(); it != lru_.begin();) {
                --it;
                if (!pinned[it->page / perRegion_]) {
                    victim = it;
                    break;
                }
            }
        }
        const Eviction out = *victim;
        account(out, -1);
        map_.erase(out.page);
        lru_.erase(victim);
        ++evictions;
        return out;
    }

    void
    account(const Eviction &frame, int delta)
    {
        if (frame.kind == FrameKind::kReplica)
            replicas += delta;
        else if (perRegion_ > 1)
            owned_[frame.page / perRegion_] += delta;
    }

    std::uint64_t capacity_;
    std::uint64_t perRegion_;
    std::list<Eviction> lru_;
    std::unordered_map<sim::PageId, std::list<Eviction>::iterator> map_;
    std::unordered_map<sim::PageId, std::uint64_t> owned_;
};

void
expectSameFrames(const std::vector<Eviction> &got,
                 const std::vector<Eviction> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].page, want[i].page) << "frame " << i;
        EXPECT_EQ(got[i].kind, want[i].kind) << "frame " << i;
    }
}

void
expectSameVictim(const std::optional<Eviction> &got,
                 const std::optional<Eviction> &want)
{
    ASSERT_EQ(got.has_value(), want.has_value());
    if (got) {
        EXPECT_EQ(got->page, want->page);
        EXPECT_EQ(got->kind, want->kind);
    }
}

/** Drive DramManager and the list model with one seeded op stream. */
void
checkAgainstListModel(std::uint64_t capacity, std::uint64_t per_region,
                      std::uint64_t seed)
{
    DramManager dram(capacity);
    dram.configureRegions(per_region);
    ListLru model(capacity, per_region);
    sim::Rng rng(seed);
    const std::uint64_t pages = 300;
    for (int i = 0; i < 20000; ++i) {
        const sim::PageId page = rng.below(pages);
        const FrameKind kind =
            rng.chance(0.3) ? FrameKind::kReplica : FrameKind::kOwned;
        switch (rng.below(per_region > 1 ? 7 : 5)) {
          case 0:
          case 1:
            if (!model.resident(page))
                expectSameVictim(dram.insert(page, kind),
                                 model.insert(page, kind));
            break;
          case 2:
            dram.touch(page);
            model.touch(page);
            break;
          case 3:
            if (rng.chance(0.2)) {
                expectSameVictim(dram.evictLru(), model.evictLru());
            } else {
                EXPECT_EQ(dram.erase(page), model.erase(page));
            }
            break;
          case 4:
            if (model.resident(page)) {
                dram.setKind(page, kind);
                model.setKind(page, kind);
            }
            break;
          default: {
            const sim::PageId region = page / per_region;
            const bool pin = rng.chance(0.5);
            if (pin)
                dram.pinRegion(region);
            else
                dram.unpinRegion(region);
            model.pinned[region] = pin;
            EXPECT_EQ(dram.regionPinned(region), pin);
          }
        }
        ASSERT_EQ(dram.size(), model.frames().size()) << "op " << i;
        EXPECT_EQ(dram.evictions(), model.evictions);
        EXPECT_EQ(dram.replicaCount(), model.replicas);
        if (per_region > 1) {
            EXPECT_EQ(dram.ownedInRegion(page / per_region),
                      model.ownedIn(page / per_region));
        }
        if (i % 97 == 0) {
            expectSameFrames(dram.frames(), model.frames());
        }
    }
    expectSameFrames(dram.frames(), model.frames());
}

TEST(DramManager, MatchesTheListModelWithoutRegions)
{
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(seed);
        checkAgainstListModel(/*capacity=*/64, /*per_region=*/1, seed);
        checkAgainstListModel(/*capacity=*/0, /*per_region=*/1, seed);
    }
}

TEST(DramManager, MatchesTheListModelWithPinnedRegions)
{
    for (std::uint64_t seed : {4u, 5u, 6u}) {
        SCOPED_TRACE(seed);
        checkAgainstListModel(/*capacity=*/64, /*per_region=*/8, seed);
        checkAgainstListModel(/*capacity=*/16, /*per_region=*/4, seed);
    }
}

// --------------------------------------------------------- AccessCounterTable

TEST(AccessCounterTable, GroupsAre64KB)
{
    // 16 pages of 4 KB per group (Table I's 64 KB granularity).
    AccessCounterTable counters(16, 256);
    EXPECT_EQ(counters.groupOf(0), 0u);
    EXPECT_EQ(counters.groupOf(15), 0u);
    EXPECT_EQ(counters.groupOf(16), 1u);
    EXPECT_EQ(counters.groupFirstPage(2), 32u);
}

TEST(AccessCounterTable, TriggersAtThresholdAndResets)
{
    AccessCounterTable counters(16, 4);
    EXPECT_FALSE(counters.recordRemoteAccess(0));
    EXPECT_FALSE(counters.recordRemoteAccess(1));
    EXPECT_FALSE(counters.recordRemoteAccess(2));
    EXPECT_TRUE(counters.recordRemoteAccess(3));  // 4th access, same group
    EXPECT_EQ(counters.count(0), 0u);             // reset after trigger
    EXPECT_EQ(counters.triggers(), 1u);
}

TEST(AccessCounterTable, GroupsAreIndependent)
{
    AccessCounterTable counters(16, 4);
    counters.recordRemoteAccess(0);
    counters.recordRemoteAccess(16);
    EXPECT_EQ(counters.count(0), 1u);
    EXPECT_EQ(counters.count(16), 1u);
}

TEST(AccessCounterTable, ClearErasesGroup)
{
    AccessCounterTable counters(16, 4);
    counters.recordRemoteAccess(5);
    counters.clear(5);
    EXPECT_EQ(counters.count(5), 0u);
}

TEST(AccessCounterTable, DefaultThresholdIs256)
{
    AccessCounterTable counters(16, 256);
    for (int i = 0; i < 255; ++i)
        EXPECT_FALSE(counters.recordRemoteAccess(0));
    EXPECT_TRUE(counters.recordRemoteAccess(0));
}

}  // namespace
}  // namespace grit::mem
