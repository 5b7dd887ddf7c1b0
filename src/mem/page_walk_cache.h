/**
 * @file
 * Page-walk cache shared across the GMMU's page-table walkers.
 *
 * Models a 128-entry cache of upper-level page-table entries (Table I).
 * A four-level x86-style radix table maps a 4 KB page with 9 bits per
 * level; the PWC caches the three non-leaf levels so a walk that hits on
 * the deepest cached prefix performs a single leaf access, while a full
 * miss performs four sequential accesses of walkLevelLatency each.
 */

#ifndef GRIT_MEM_PAGE_WALK_CACHE_H_
#define GRIT_MEM_PAGE_WALK_CACHE_H_

#include <cstdint>
#include <vector>

#include "simcore/types.h"

namespace grit::mem {

/**
 * Cache of non-leaf page-table prefixes; fully associative, exact LRU
 * over fills (lookups do not refresh). Every operation is O(1): an
 * open-addressed index maps a prefix to its slot, and a recency list
 * threaded through the slots gives the victim.
 */
class PageWalkCache
{
  public:
    /** Total radix levels of the modeled page table. */
    static constexpr unsigned kLevels = 4;

    /** @param entries capacity across all levels. @pre entries > 0 */
    explicit PageWalkCache(unsigned entries);

    /**
     * Memory accesses a walk for @p page needs given current contents:
     * 1 (deepest prefix cached) .. kLevels (nothing cached).
     */
    unsigned walkAccesses(sim::PageId page) const;

    /** Install all prefixes of @p page after a completed walk. */
    void fill(sim::PageId page) { walk(page); }

    /**
     * walkAccesses(@p page) followed by fill(@p page), probing each
     * prefix once.
     */
    unsigned walk(sim::PageId page);

    /** Invalidate every entry (full shootdown). */
    void flushAll();

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    /** Record a walk outcome in the hit/miss stats. */
    void recordWalk(unsigned accesses);

  private:
    /** Slot number meaning "none": an empty index cell, a miss. */
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    /** A cached prefix, linked in recency order. */
    struct Entry
    {
        std::uint64_t key = 0;
        std::uint32_t prev = 0;  //!< towards the MRU end
        std::uint32_t next = 0;  //!< towards the LRU end
    };

    /**
     * Prefix key for non-leaf level @p level (1-based from the leaf:
     * level 1 covers 2 MB, level 2 covers 1 GB, level 3 covers 512 GB).
     */
    static std::uint64_t key(sim::PageId page, unsigned level);

    /** Index cell where the probe for @p key starts. */
    std::uint32_t home(std::uint64_t key) const;
    /** Slot holding @p key, or kNone. */
    std::uint32_t find(std::uint64_t key) const;
    /** Put @p key in a free slot, else in the LRU slot's place. */
    void insert(std::uint64_t key);
    /** Drop cached @p key from the index (backward-shift delete). */
    void unindex(std::uint64_t key);
    void unlink(std::uint32_t slot);
    void pushMru(std::uint32_t slot);

    /**
     * Slots 0 .. capacity-1 hold entries, used in order after a flush;
     * slot `capacity` is the sentinel of the circular recency list.
     */
    std::vector<Entry> entries_;
    std::uint32_t capacity_;
    std::uint32_t used_ = 0;
    /** Open-addressed key -> slot map, >= 2x capacity cells. */
    std::vector<std::uint32_t> index_;
    std::uint32_t mask_;
    unsigned shift_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

}  // namespace grit::mem

#endif  // GRIT_MEM_PAGE_WALK_CACHE_H_
