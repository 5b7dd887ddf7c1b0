#include "mem/page_walk_cache.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace grit::mem {

PageWalkCache::PageWalkCache(unsigned entries)
    : entries_(entries + 1),
      capacity_(entries),
      index_(std::bit_ceil(2 * std::uint64_t{entries}), kNone),
      mask_(static_cast<std::uint32_t>(index_.size() - 1)),
      shift_(64 - std::countr_zero(index_.size()))
{
    assert(entries > 0);
    flushAll();
}

std::uint64_t
PageWalkCache::key(sim::PageId page, unsigned level)
{
    assert(level >= 1 && level < kLevels);
    // 9 bits of the VPN are consumed per level; tag the key with the
    // level so prefixes from different levels never alias.
    return (page >> (9 * level)) | (static_cast<std::uint64_t>(level) << 60);
}

std::uint32_t
PageWalkCache::home(std::uint64_t key) const
{
    // Fibonacci hashing: the top bits of the product mix every key bit.
    return static_cast<std::uint32_t>((key * 0x9E3779B97F4A7C15ULL) >>
                                      shift_);
}

std::uint32_t
PageWalkCache::find(std::uint64_t key) const
{
    for (std::uint32_t i = home(key);; i = (i + 1) & mask_) {
        const std::uint32_t slot = index_[i];
        if (slot == kNone || entries_[slot].key == key)
            return slot;
    }
}

unsigned
PageWalkCache::walkAccesses(sim::PageId page) const
{
    // Walk from the deepest (cheapest) cached prefix: if the 2 MB-level
    // entry is cached only the leaf access remains, and so on upward.
    for (unsigned level = 1; level < kLevels; ++level) {
        if (find(key(page, level)) != kNone)
            return level;
    }
    return kLevels;
}

unsigned
PageWalkCache::walk(sim::PageId page)
{
    std::uint32_t found[kLevels];
    unsigned accesses = kLevels;
    for (unsigned level = kLevels - 1; level >= 1; --level) {
        found[level] = find(key(page, level));
        if (found[level] != kNone)
            accesses = level;
    }
    // Refresh or install the prefixes leaf-side first, as a walk fills
    // them. An insert may evict a prefix found above; its slot then
    // holds the new, differently tagged key and the check re-inserts.
    for (unsigned level = 1; level < kLevels; ++level) {
        const std::uint64_t k = key(page, level);
        const std::uint32_t slot = found[level];
        if (slot != kNone && entries_[slot].key == k) {
            unlink(slot);
            pushMru(slot);
        } else {
            insert(k);
        }
    }
    return accesses;
}

void
PageWalkCache::insert(std::uint64_t key)
{
    std::uint32_t slot;
    if (used_ < capacity_) {
        slot = used_++;
    } else {
        slot = entries_[capacity_].prev;  // the LRU entry
        unindex(entries_[slot].key);
        unlink(slot);
    }
    entries_[slot].key = key;
    std::uint32_t i = home(key);
    while (index_[i] != kNone)
        i = (i + 1) & mask_;
    index_[i] = slot;
    pushMru(slot);
}

void
PageWalkCache::unindex(std::uint64_t key)
{
    std::uint32_t hole = home(key);
    while (entries_[index_[hole]].key != key)
        hole = (hole + 1) & mask_;
    // Pull back each later cell of the run whose home is not between
    // the hole and itself, so every key stays reachable from its home.
    for (std::uint32_t i = (hole + 1) & mask_; index_[i] != kNone;
         i = (i + 1) & mask_) {
        const std::uint32_t dist = (i - home(entries_[index_[i]].key)) & mask_;
        if (dist >= ((i - hole) & mask_)) {
            index_[hole] = index_[i];
            hole = i;
        }
    }
    index_[hole] = kNone;
}

void
PageWalkCache::unlink(std::uint32_t slot)
{
    Entry &e = entries_[slot];
    entries_[e.prev].next = e.next;
    entries_[e.next].prev = e.prev;
}

void
PageWalkCache::pushMru(std::uint32_t slot)
{
    Entry &sentinel = entries_[capacity_];
    Entry &e = entries_[slot];
    e.prev = capacity_;
    e.next = sentinel.next;
    entries_[sentinel.next].prev = slot;
    sentinel.next = slot;
}

void
PageWalkCache::flushAll()
{
    std::fill(index_.begin(), index_.end(), kNone);
    used_ = 0;
    entries_[capacity_].prev = entries_[capacity_].next = capacity_;
}

void
PageWalkCache::recordWalk(unsigned accesses)
{
    if (accesses <= 1)
        ++hits_;
    else
        ++misses_;
}

}  // namespace grit::mem
