/**
 * @file
 * Shared fixtures for driver-level tests: a miniature multi-GPU system
 * (fabric + GPUs + UVM driver + stats) with small, deterministic
 * geometry.
 */

#ifndef GRIT_TESTS_TEST_UTIL_H_
#define GRIT_TESTS_TEST_UTIL_H_

#include <memory>
#include <vector>

#include "gpu/gpu.h"
#include "interconnect/topology.h"
#include "mem/page_geometry.h"
#include "policy/policy.h"
#include "stats/counters.h"
#include "stats/latency_breakdown.h"
#include "uvm/uvm_driver.h"

namespace grit::test {

/** A small fully wired system for unit-testing UVM mechanics. */
class MiniSystem
{
  public:
    /**
     * @param num_gpus       GPUs to build.
     * @param capacity_pages per-GPU DRAM frames (0 = unlimited).
     */
    explicit MiniSystem(unsigned num_gpus = 2,
                        std::uint64_t capacity_pages = 0,
                        uvm::UvmConfig uvm_config = {},
                        mem::PageGeometry geo = {})
        : geometry(geo)
    {
        ic::FabricConfig fabric_config;
        fabric_config.numGpus = num_gpus;
        fabric = std::make_unique<ic::Topology>(fabric_config);

        gpu::GpuConfig gpu_config;
        gpu_config.lanes = 4;  // keep L1 TLB count small
        gpu_config.dramCapacityPages = capacity_pages;
        std::vector<gpu::Gpu *> views;
        for (unsigned g = 0; g < num_gpus; ++g) {
            gpus.push_back(std::make_unique<gpu::Gpu>(
                static_cast<sim::GpuId>(g), gpu_config, geometry));
            views.push_back(gpus.back().get());
        }
        driver = std::make_unique<uvm::UvmDriver>(
            uvm_config, *fabric, views, stats, breakdown, geometry);
    }

    /** Attach @p policy to the driver and keep it alive. */
    void
    usePolicy(std::unique_ptr<policy::PlacementPolicy> p)
    {
        policy = std::move(p);
        driver->setPolicy(policy.get());
    }

    gpu::Gpu &gpu(unsigned g) { return *gpus[g]; }

    /** Declared before gpus/driver: both hold references into it. */
    mem::PageGeometry geometry;
    stats::StatSet stats;
    stats::LatencyBreakdown breakdown;
    std::unique_ptr<ic::Topology> fabric;
    std::vector<std::unique_ptr<gpu::Gpu>> gpus;
    std::unique_ptr<uvm::UvmDriver> driver;
    std::unique_ptr<policy::PlacementPolicy> policy;
};

}  // namespace grit::test

#endif  // GRIT_TESTS_TEST_UTIL_H_
