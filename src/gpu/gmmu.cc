#include "gpu/gmmu.h"

#include "simcore/trace_recorder.h"

namespace grit::gpu {

Gmmu::Gmmu(const GmmuConfig &config)
    : config_(config),
      walkers_("gmmu.walkers", config.walkers),
      pwc_(config.walkCacheEntries)
{
}

WalkResult
Gmmu::walk(sim::PageId page, sim::Cycle now)
{
    const unsigned accesses = pwc_.walk(page);
    const sim::Cycle service =
        static_cast<sim::Cycle>(accesses) * config_.walkLevelLatency;
    const sim::Cycle completion = walkers_.acquire(now, service);
    pwc_.recordWalk(accesses);
    if (trace_)
        trace_->record("walk", "gmmu", now, completion - now, gpuId_,
                       page);
    return WalkResult{completion, accesses};
}

}  // namespace grit::gpu
