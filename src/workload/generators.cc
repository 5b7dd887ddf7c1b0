#include "workload/generators.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "simcore/sim_error.h"

namespace grit::workload {

Region
Region::slice(unsigned i, unsigned n) const
{
    assert(n > 0 && i < n);
    const std::uint64_t base = pages / n;
    const std::uint64_t extra = pages % n;
    const std::uint64_t begin =
        static_cast<std::uint64_t>(i) * base + std::min<std::uint64_t>(i, extra);
    const std::uint64_t len = base + (i < extra ? 1 : 0);
    return Region{firstPage + begin, len};
}

Region
RegionAllocator::alloc(std::uint64_t pages)
{
    const Region region{next_, pages};
    next_ += pages;
    return region;
}

TraceBuilder::TraceBuilder(unsigned num_gpus, std::uint64_t seed)
    : gpus_(num_gpus),
      rng_(seed),
      owned_(std::make_unique<VectorSink>(num_gpus)),
      sink_(owned_.get())
{
    assert(num_gpus > 0);
}

TraceBuilder::TraceBuilder(unsigned num_gpus, std::uint64_t seed,
                           TraceSink &sink)
    : gpus_(num_gpus), rng_(seed), sink_(&sink)
{
    assert(num_gpus > 0);
}

std::vector<GpuTrace>
TraceBuilder::take()
{
    assert(owned_ != nullptr && "take() requires materializing mode");
    return owned_->take();
}

void
TraceBuilder::touch(unsigned gpu, sim::PageId page, bool write)
{
    assert(gpu < gpus_);
    const unsigned line = static_cast<unsigned>(
        rng_.below(kGenPageBytes / sim::kLineSize));
    sink_->emit(gpu, Access{pageLineAddr(page, line, kGenPageBytes), write});
}

void
TraceBuilder::touchLines(unsigned gpu, sim::PageId page, unsigned count,
                         bool write)
{
    const unsigned lines_per_page =
        static_cast<unsigned>(kGenPageBytes / sim::kLineSize);
    for (unsigned i = 0; i < count; ++i) {
        const unsigned line = i % lines_per_page;
        sink_->emit(gpu, Access{pageLineAddr(page, line, kGenPageBytes), write});
    }
}

void
TraceBuilder::sweep(unsigned gpu, const Region &region, unsigned per_page,
                    double write_prob)
{
    for (sim::PageId p = region.firstPage; p < region.endPage(); ++p) {
        for (unsigned i = 0; i < per_page; ++i)
            touch(gpu, p, rng_.chance(write_prob));
    }
}

void
TraceBuilder::randomAccesses(unsigned gpu, const Region &region,
                             std::uint64_t count, double write_prob)
{
    if (region.pages == 0)
        throw sim::SimException(sim::ErrorCode::kTraceLoad,
                                "random accesses over an empty region",
                                "page " + std::to_string(region.firstPage));
    for (std::uint64_t i = 0; i < count; ++i) {
        const sim::PageId p = region.firstPage + rng_.below(region.pages);
        touch(gpu, p, rng_.chance(write_prob));
    }
}

void
TraceBuilder::stridedPass(unsigned gpu, const Region &region,
                          std::uint64_t start_offset, std::uint64_t stride,
                          unsigned per_page, double write_prob)
{
    assert(stride > 0);
    for (std::uint64_t off = start_offset; off < region.pages;
         off += stride) {
        const sim::PageId p = region.firstPage + off;
        for (unsigned i = 0; i < per_page; ++i)
            touch(gpu, p, rng_.chance(write_prob));
    }
}

Workload
scaleWorkloadShell(const ScaleParams &params)
{
    Workload w;
    w.name = "SCALE";
    w.fullName = "Production-scale synthetic footprint";
    w.suite = "grit-bench";
    w.pattern = "Adjacent+Random";
    w.paperFootprintMB =
        static_cast<unsigned>(params.pages * kGenPageBytes / (1 << 20));
    w.footprintGenPages = params.pages;
    return w;
}

void
generateScaleTrace(const ScaleParams &params, TraceSink &sink)
{
    assert(params.numGpus > 0 && params.pages >= params.numGpus);
    TraceBuilder tb(params.numGpus, params.seed ^ 0x5CA1EULL, sink);
    RegionAllocator ra;
    const std::uint64_t shared_pages =
        std::max<std::uint64_t>(1, params.pages / 64);
    const Region shared = ra.alloc(shared_pages);
    const Region slab = ra.alloc(params.pages - shared_pages);

    // Residency sweep: every page of every private slice is touched, so
    // the page tables and replica directory reach full-footprint size.
    for (unsigned g = 0; g < params.numGpus; ++g)
        tb.sweep(g, slab.slice(g, params.numGpus), params.sweepPerPage,
                 /*write_prob=*/0.3);
    // Steady state: random re-touches of the private slice plus shared
    // read traffic, interleaved per GPU in modest rounds so the lanes
    // of all GPUs stay concurrently active.
    const unsigned rounds = 8;
    for (unsigned r = 0; r < rounds; ++r) {
        for (unsigned g = 0; g < params.numGpus; ++g) {
            tb.randomAccesses(g, slab.slice(g, params.numGpus),
                              params.randomPerGpu / rounds,
                              /*write_prob=*/0.2);
            tb.randomAccesses(g, shared, params.sharedPerGpu / rounds,
                              /*write_prob=*/0.0);
        }
    }
}

Workload
makeScaleWorkload(const ScaleParams &params)
{
    Workload w = scaleWorkloadShell(params);
    VectorSink sink(params.numGpus);
    generateScaleTrace(params, sink);
    w.traces = sink.take();
    return w;
}

}  // namespace grit::workload
