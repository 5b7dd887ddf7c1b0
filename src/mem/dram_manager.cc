#include "mem/dram_manager.h"

#include <cassert>

namespace grit::mem {

DramManager::DramManager(std::uint64_t capacity_pages)
    : capacity_(capacity_pages)
{
}

void
DramManager::configureRegions(std::uint64_t pages_per_region)
{
    assert(frames_.empty() && "configure regions before any allocation");
    pagesPerRegion_ = pages_per_region > 1 ? pages_per_region : 1;
    regions_.clear();
}

std::uint64_t
DramManager::ownedInRegion(sim::PageId region) const
{
    if (pagesPerRegion_ <= 1)
        return 0;
    const RegionState *state = regions_.find(region);
    return state != nullptr ? state->owned : 0;
}

void
DramManager::pinRegion(sim::PageId region)
{
    if (pagesPerRegion_ <= 1)
        return;
    regions_[region].pinned = true;
}

void
DramManager::unpinRegion(sim::PageId region)
{
    if (pagesPerRegion_ <= 1)
        return;
    if (RegionState *state = regions_.find(region))
        state->pinned = false;
}

bool
DramManager::regionPinned(sim::PageId region) const
{
    if (pagesPerRegion_ <= 1)
        return false;
    const RegionState *state = regions_.find(region);
    return state != nullptr && state->pinned;
}

void
DramManager::accountOwned(sim::PageId page, std::int64_t delta)
{
    if (pagesPerRegion_ <= 1)
        return;
    std::uint64_t &owned = regions_[regionOf(page)].owned;
    if (delta > 0) {
        owned += static_cast<std::uint64_t>(delta);
    } else {
        const auto dec = static_cast<std::uint64_t>(-delta);
        assert(owned >= dec && "region owned-count underflow");
        owned -= dec;
    }
}

void
DramManager::linkFront(sim::PageId page, Frame &frame)
{
    frame.prev = kNil;
    frame.next = mru_;
    if (mru_ != kNil)
        frames_.find(mru_)->prev = page;
    else
        lru_ = page;
    mru_ = page;
}

void
DramManager::unlink(const Frame &frame)
{
    if (frame.prev != kNil)
        frames_.find(frame.prev)->next = frame.next;
    else
        mru_ = frame.next;
    if (frame.next != kNil)
        frames_.find(frame.next)->prev = frame.prev;
    else
        lru_ = frame.prev;
}

Eviction
DramManager::release(sim::PageId page)
{
    const Frame &frame = *frames_.find(page);
    const Eviction freed{page, frame.kind};
    unlink(frame);
    frames_.erase(page);
    if (freed.kind == FrameKind::kReplica)
        --replicas_;
    else
        accountOwned(page, -1);
    return freed;
}

sim::PageId
DramManager::pickVictim() const
{
    assert(lru_ != kNil);
    if (pagesPerRegion_ > 1) {
        // Scan from the LRU tail for the first frame outside a pinned
        // region. Pinned (promoted) frames are hot by construction, so
        // they cluster near the MRU end and the scan stays short.
        for (sim::PageId page = lru_; page != kNil;
             page = frames_.find(page)->prev) {
            if (!regionPinned(regionOf(page)))
                return page;
        }
        // Every frame is pinned: capacity is a hard limit, so the true
        // LRU goes anyway; the caller splinters its region.
    }
    return lru_;
}

std::optional<Eviction>
DramManager::insert(sim::PageId page, FrameKind kind)
{
    assert(!resident(page) && "double allocation of a frame");

    std::optional<Eviction> victim;
    if (capacity_ != 0 && frames_.size() >= capacity_) {
        victim = release(pickVictim());
        ++evictions_;
    }

    Frame &frame = frames_[page];
    frame.kind = kind;
    linkFront(page, frame);
    if (kind == FrameKind::kReplica)
        ++replicas_;
    else
        accountOwned(page, +1);
    return victim;
}

void
DramManager::touch(sim::PageId page)
{
    Frame *frame = frames_.find(page);
    if (frame == nullptr || page == mru_)
        return;
    unlink(*frame);
    linkFront(page, *frame);
}

bool
DramManager::erase(sim::PageId page)
{
    if (!resident(page))
        return false;
    release(page);
    return true;
}

bool
DramManager::resident(sim::PageId page) const
{
    return frames_.contains(page);
}

FrameKind
DramManager::kindOf(sim::PageId page) const
{
    const Frame *frame = frames_.find(page);
    assert(frame != nullptr);
    return frame->kind;
}

void
DramManager::setKind(sim::PageId page, FrameKind kind)
{
    Frame *frame = frames_.find(page);
    assert(frame != nullptr);
    if (frame->kind == kind)
        return;
    if (frame->kind == FrameKind::kReplica) {
        --replicas_;
        accountOwned(page, +1);
    } else {
        ++replicas_;
        accountOwned(page, -1);
    }
    frame->kind = kind;
}

std::optional<Eviction>
DramManager::evictLru()
{
    if (frames_.empty())
        return std::nullopt;
    const Eviction victim = release(pickVictim());
    ++evictions_;
    return victim;
}

std::vector<Eviction>
DramManager::frames() const
{
    std::vector<Eviction> out;
    out.reserve(frames_.size());
    for (sim::PageId page = mru_; page != kNil;) {
        const Frame &frame = *frames_.find(page);
        out.push_back(Eviction{page, frame.kind});
        page = frame.next;
    }
    return out;
}

void
DramManager::clear()
{
    frames_.clear();
    mru_ = kNil;
    lru_ = kNil;
    evictions_ = 0;
    replicas_ = 0;
    regions_.clear();
}

}  // namespace grit::mem
