/**
 * @file
 * Region-residency bookkeeping for dynamic huge pages (PAGESIZE.md).
 *
 * The UVM driver owns one RegionTracker per run. It records per-
 * (GPU, region) fault heat, which regions are currently promoted to a
 * huge mapping and by whom, and the lifetime promote/splinter counters
 * the `promote.*`/`splinter.*` results rows come from. Pure
 * bookkeeping: the mechanics (TLB overlays, DRAM pinning, PTE state)
 * live in gpu::Gpu and uvm::UvmDriver; InvariantAuditor checks all
 * three layers agree.
 */

#ifndef GRIT_MEM_REGION_TRACKER_H_
#define GRIT_MEM_REGION_TRACKER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/page_geometry.h"
#include "simcore/page_array.h"
#include "simcore/types.h"

namespace grit::mem {

/** Why a promoted region was splintered back to base pages. */
enum class SplinterReason : unsigned {
    kWriteSharing = 0,  //!< duplication / collapse / remote map
    kEviction = 1,      //!< capacity pressure evicted a region page
    kChaos = 2,         //!< chaos promostorm clause
};

inline constexpr unsigned kSplinterReasons = 3;

/** Promoted-region directory + promotion heat + lifetime counters. */
class RegionTracker
{
  public:
    RegionTracker() = default;

    /** Enabled iff @p geometry turns dynamic huge pages on. */
    explicit RegionTracker(const PageGeometry &geometry)
        : enabled_(geometry.hugePages),
          pagesPerRegion_(geometry.hugePages ? geometry.basePagesPerHuge()
                                             : 1)
    {
    }

    bool enabled() const { return enabled_; }
    std::uint64_t pagesPerRegion() const { return pagesPerRegion_; }

    sim::PageId
    regionOf(sim::PageId page) const
    {
        return page / pagesPerRegion_;
    }

    /** Count a fault by @p gpu in @p region; returns the new count. */
    std::uint32_t
    noteRegionFault(sim::GpuId gpu, sim::PageId region)
    {
        std::vector<std::uint32_t> &row = heat_[region];
        const std::size_t slot = heatSlot(gpu);
        if (row.size() <= slot)
            row.resize(slot + 1, 0);
        return ++row[slot];
    }

    /** Faults @p gpu has taken in @p region so far. */
    std::uint32_t
    regionFaults(sim::GpuId gpu, sim::PageId region) const
    {
        const std::vector<std::uint32_t> *row = heat_.find(region);
        const std::size_t slot = heatSlot(gpu);
        return row != nullptr && slot < row->size() ? (*row)[slot] : 0;
    }

    bool
    promoted(sim::PageId region) const
    {
        return promoted_.contains(region);
    }

    /** GPU holding @p region's huge mapping; kNoGpu if not promoted. */
    sim::GpuId
    holder(sim::PageId region) const
    {
        const sim::GpuId *g = promoted_.find(region);
        return g != nullptr ? *g : sim::kNoGpu;
    }

    void
    markPromoted(sim::PageId region, sim::GpuId holder)
    {
        promoted_[region] = holder;
        ++promotions_;
        promotedPages_ += pagesPerRegion_;
    }

    void
    markSplintered(sim::PageId region, SplinterReason reason)
    {
        promoted_.erase(region);
        ++splinters_;
        ++splintersBy_[static_cast<unsigned>(reason)];
        // Drop every GPU's heat for the region: re-promotion must earn
        // a fresh promoteFaultThreshold faults, or a single straggler
        // fault after a write-sharing splinter would ping-pong the
        // region between promoted and base state.
        heat_.erase(region);
    }

    /** Regions currently promoted (== promotions() - splinters()). */
    std::uint64_t promotedCount() const { return promoted_.size(); }

    /** (region, holder) pairs in ascending region order, for audits
     *  and splinter storms. */
    const sim::PageArray<sim::GpuId> &
    promotedRegions() const
    {
        return promoted_;
    }

    std::uint64_t promotions() const { return promotions_; }
    std::uint64_t promotedPages() const { return promotedPages_; }
    std::uint64_t splinters() const { return splinters_; }

    std::uint64_t
    splintersBy(SplinterReason reason) const
    {
        return splintersBy_[static_cast<unsigned>(reason)];
    }

  private:
    /** @p gpu's slot in a region's heat row; +2 keeps kHostId/kNoGpu
     *  >= 0. */
    static std::size_t
    heatSlot(sim::GpuId gpu)
    {
        return static_cast<std::size_t>(gpu + 2);
    }

    bool enabled_ = false;
    std::uint64_t pagesPerRegion_ = 1;

    /** Per-region fault counts, one row slot per GPU (heatSlot). */
    sim::PageArray<std::vector<std::uint32_t>> heat_;
    sim::PageArray<sim::GpuId> promoted_;

    std::uint64_t promotions_ = 0;
    std::uint64_t promotedPages_ = 0;
    std::uint64_t splinters_ = 0;
    std::uint64_t splintersBy_[kSplinterReasons] = {0, 0, 0};
};

}  // namespace grit::mem

#endif  // GRIT_MEM_REGION_TRACKER_H_
