#include "uvm/fault.h"

#include <cassert>

namespace grit::uvm {

sim::Cycle
FaultCoalescer::inflight(sim::GpuId gpu, sim::PageId page, sim::Cycle now)
{
    assert(gpu >= 0);
    const auto g = static_cast<std::size_t>(gpu);
    if (g >= inflight_.size())
        return sim::kCycleMax;
    const sim::Cycle *completion = inflight_[g].find(page);
    if (completion == nullptr)
        return sim::kCycleMax;
    if (*completion <= now) {
        inflight_[g].erase(page);  // episode finished; next fault is fresh
        return sim::kCycleMax;
    }
    ++coalesced_;
    return *completion;
}

void
FaultCoalescer::record(sim::GpuId gpu, sim::PageId page,
                       sim::Cycle completion)
{
    assert(gpu >= 0);
    const auto g = static_cast<std::size_t>(gpu);
    if (g >= inflight_.size())
        inflight_.resize(g + 1);
    inflight_[g][page] = completion;
}

std::size_t
FaultCoalescer::size() const
{
    std::size_t n = 0;
    for (const auto &episodes : inflight_)
        n += episodes.size();
    return n;
}

void
FaultCoalescer::reset()
{
    inflight_.clear();
    coalesced_ = 0;
}

}  // namespace grit::uvm
