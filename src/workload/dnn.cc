#include "workload/dnn.h"

#include <cassert>
#include <vector>

#include "workload/generators.h"

namespace grit::workload {

namespace {

/** Per-model geometry (scaled-down layer counts and relative sizes). */
struct DnnGeometry
{
    const char *name;
    unsigned layers;
    unsigned paperFootprintMB;
    /** Weight pages per layer relative to activation pages. */
    double weightRatio;
    unsigned minibatches;
    /** Fraction denominator of the read-shared region (1/N). */
    unsigned sharedDenominator;
};

DnnGeometry
geometry(DnnModel model)
{
    switch (model) {
      case DnnModel::kVgg16:
        // VGG16 is weight-heavy (large dense layers).
        return {"VGG16", 16, 64, 2.0, 8, 5};
      case DnnModel::kResNet18:
        // ResNet18 is activation-heavy relative to weights.
        return {"ResNet18", 18, 48, 1.5, 8, 8};
    }
    return {"?", 1, 1, 1.0, 1, 8};
}

}  // namespace

const char *
dnnModelName(DnnModel model)
{
    return geometry(model).name;
}

Workload
dnnWorkloadShell(DnnModel model, const WorkloadParams &params)
{
    assert(params.numGpus > 0);
    checkParams(params);
    const DnnGeometry geo = geometry(model);

    Workload w;
    w.name = geo.name;
    w.fullName = std::string(geo.name) + " model-parallel training";
    w.suite = "DNN";
    w.pattern = "Pipeline";
    w.paperFootprintMB = geo.paperFootprintMB;
    w.footprintGenPages = static_cast<std::uint64_t>(geo.paperFootprintMB) *
                         256 / params.footprintDivisor;
    return w;
}

void
generateDnnTrace(DnnModel model, const WorkloadParams &params,
                 TraceSink &sink)
{
    assert(params.numGpus > 0);
    const DnnGeometry geo = geometry(model);
    const std::uint64_t footprint_pages =
        dnnWorkloadShell(model, params).footprintGenPages;

    TraceBuilder tb(params.numGpus, params.seed ^ 0xD77ULL, sink);
    RegionAllocator ra;

    // Partition the footprint between weights (+gradients), the
    // inter-layer activation buffers, and a read-shared region
    // (normalization statistics, embedding tables, and the input batch
    // consulted by every pipeline stage).
    const std::uint64_t shared_pages = std::max<std::uint64_t>(
        8, footprint_pages / geo.sharedDenominator);
    const std::uint64_t rest = footprint_pages - shared_pages;
    const std::uint64_t act_pages = static_cast<std::uint64_t>(
        static_cast<double>(rest) / (1.0 + geo.weightRatio));
    const std::uint64_t weight_pages = rest - act_pages;

    const Region shared = ra.alloc(shared_pages);
    std::vector<Region> weights;   // one per layer, private to its GPU
    std::vector<Region> acts;      // boundaries between layers
    weights.reserve(geo.layers);
    acts.reserve(geo.layers + 1);
    for (unsigned l = 0; l < geo.layers; ++l)
        weights.push_back(ra.alloc(std::max<std::uint64_t>(
            1, weight_pages / geo.layers)));
    for (unsigned l = 0; l <= geo.layers; ++l)
        acts.push_back(ra.alloc(std::max<std::uint64_t>(
            1, act_pages / (geo.layers + 1))));

    auto gpu_of_layer = [&](unsigned layer) {
        return static_cast<unsigned>(
            static_cast<std::uint64_t>(layer) * params.numGpus /
            geo.layers);
    };

    const unsigned batches = std::max<unsigned>(
        1, static_cast<unsigned>(geo.minibatches * params.intensity));
    for (unsigned b = 0; b < batches; ++b) {
        // Forward pass: read the incoming activation and the layer
        // weights, produce the outgoing activation. Every stage also
        // consults the read-shared region (input batch, normalization
        // statistics) — under GRIT those pages converge to duplication.
        for (unsigned l = 0; l < geo.layers; ++l) {
            const unsigned g = gpu_of_layer(l);
            tb.sweep(g, acts[l], /*per_page=*/4, /*write_prob=*/0.0);
            tb.sweep(g, weights[l], /*per_page=*/3, /*write_prob=*/0.0);
            tb.sweep(g, shared, /*per_page=*/2, /*write_prob=*/0.0);
            tb.sweep(g, acts[l + 1], /*per_page=*/2, /*write_prob=*/1.0);
        }
        // Backward pass: read the stored activations, update the
        // weights (read-write), and push gradients back one layer.
        for (unsigned l = geo.layers; l-- > 0;) {
            const unsigned g = gpu_of_layer(l);
            tb.sweep(g, acts[l + 1], /*per_page=*/2, /*write_prob=*/0.0);
            tb.sweep(g, weights[l], /*per_page=*/3, /*write_prob=*/0.5);
            tb.sweep(g, acts[l], /*per_page=*/2, /*write_prob=*/1.0);
        }
    }
}

Workload
makeDnnWorkload(DnnModel model, const WorkloadParams &params)
{
    Workload w = dnnWorkloadShell(model, params);
    VectorSink sink(params.numGpus);
    generateDnnTrace(model, params, sink);
    w.traces = sink.take();
    return w;
}

}  // namespace grit::workload
