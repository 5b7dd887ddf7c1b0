/** @file Tests for the workload generators: structural invariants for
 *  every app, plus per-app characterization properties matching the
 *  paper's Section IV observations. */

#include <gtest/gtest.h>

#include "simcore/sim_error.h"
#include "workload/apps.h"
#include "workload/characterizer.h"
#include "workload/dnn.h"
#include "workload/generators.h"

namespace grit::workload {
namespace {

// --------------------------------------------------------------- generators

TEST(Region, SliceCoversWithoutOverlap)
{
    const Region region{100, 10};
    std::uint64_t total = 0;
    sim::PageId next = region.firstPage;
    for (unsigned i = 0; i < 4; ++i) {
        const Region s = region.slice(i, 4);
        EXPECT_EQ(s.firstPage, next);
        next = s.endPage();
        total += s.pages;
    }
    EXPECT_EQ(total, region.pages);
    EXPECT_EQ(next, region.endPage());
}

TEST(Region, Contains)
{
    const Region region{10, 5};
    EXPECT_TRUE(region.contains(10));
    EXPECT_TRUE(region.contains(14));
    EXPECT_FALSE(region.contains(15));
    EXPECT_FALSE(region.contains(9));
}

TEST(RegionAllocator, SequentialNonOverlapping)
{
    RegionAllocator ra;
    const Region a = ra.alloc(10);
    const Region b = ra.alloc(5);
    EXPECT_EQ(a.firstPage, 0u);
    EXPECT_EQ(b.firstPage, 10u);
    EXPECT_EQ(ra.allocated(), 15u);
}

TEST(TraceBuilder, SweepTouchesEveryPage)
{
    TraceBuilder tb(1, 1);
    tb.sweep(0, Region{0, 10}, 3, 0.0);
    const auto traces = tb.take();
    EXPECT_EQ(traces[0].size(), 30u);
    for (const Access &a : traces[0]) {
        EXPECT_LT(a.addr / kGenPageBytes, 10u);
        EXPECT_FALSE(a.write);
    }
}

TEST(TraceBuilder, WriteProbabilityRespected)
{
    TraceBuilder tb(1, 2);
    tb.randomAccesses(0, Region{0, 4}, 4000, 0.5);
    const auto traces = tb.take();
    std::size_t writes = 0;
    for (const Access &a : traces[0])
        writes += a.write ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(writes) / 4000.0, 0.5, 0.05);
}

TEST(TraceBuilder, RandomAccessesRejectAnEmptyRegion)
{
    TraceBuilder tb(1, 2);
    EXPECT_THROW(tb.randomAccesses(0, Region{8, 0}, 10, 0.5),
                 sim::SimException);
}

TEST(TraceBuilder, StridedPassVisitsStrideOffsets)
{
    TraceBuilder tb(1, 3);
    tb.stridedPass(0, Region{0, 16}, 1, 4, 1, 0.0);
    const auto traces = tb.take();
    ASSERT_EQ(traces[0].size(), 4u);  // pages 1, 5, 9, 13
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(traces[0][i].addr / kGenPageBytes, 1 + 4 * i);
}

// ------------------------------------------------------------- app metadata

TEST(AppMeta, TableIIRows)
{
    EXPECT_STREQ(appMeta(AppId::kBfs).suite, "SHOC");
    EXPECT_STREQ(appMeta(AppId::kBfs).pattern, "Random");
    EXPECT_EQ(appMeta(AppId::kBfs).paperFootprintMB, 32u);
    EXPECT_STREQ(appMeta(AppId::kFir).suite, "Hetero-Mark");
    EXPECT_EQ(appMeta(AppId::kFir).paperFootprintMB, 155u);
    EXPECT_STREQ(appMeta(AppId::kGemm).pattern, "Scatter-Gather");
    EXPECT_STREQ(appMeta(AppId::kC2d).suite, "DNN-Mark");
    EXPECT_EQ(appMeta(AppId::kSt).paperFootprintMB, 33u);
}

TEST(AppMeta, NameLookupRoundTrip)
{
    for (AppId app : kAllApps)
        EXPECT_EQ(appFromName(appMeta(app).abbr), app);
    EXPECT_EQ(appFromName("gemm"), AppId::kGemm);  // case-insensitive
    EXPECT_FALSE(appFromName("NOPE").has_value());
}

// ------------------------------------------------- structural invariants

class AllApps : public ::testing::TestWithParam<AppId>
{
  protected:
    WorkloadParams params_;  // defaults: 4 GPUs
};

TEST_P(AllApps, GeneratesNonEmptyShardedTraces)
{
    const Workload w = makeWorkload(GetParam(), params_);
    EXPECT_EQ(w.numGpus(), 4u);
    EXPECT_GT(w.footprintGenPages, 0u);
    EXPECT_GT(w.totalAccesses(), 1000u);
    for (const GpuTrace &trace : w.traces)
        EXPECT_FALSE(trace.empty());
}

TEST_P(AllApps, AddressesStayInsideFootprint)
{
    const Workload w = makeWorkload(GetParam(), params_);
    for (const GpuTrace &trace : w.traces)
        for (const Access &a : trace)
            ASSERT_LT(a.addr, w.footprintBytes());
}

TEST_P(AllApps, AddressesStayInsideFootprintAtEveryDivisor)
{
    // Large divisors shrink a footprint to a handful of pages, where a
    // per-GPU slice can be one page or empty.
    for (unsigned divisor : {16u, 128u, 512u, 1024u}) {
        SCOPED_TRACE(divisor);
        WorkloadParams p = params_;
        p.footprintDivisor = divisor;
        const Workload w = makeWorkload(GetParam(), p);
        for (const GpuTrace &trace : w.traces)
            for (const Access &a : trace)
                ASSERT_LT(a.addr / kGenPageBytes, w.footprintGenPages);
    }
}

TEST_P(AllApps, DeterministicForSameSeed)
{
    const Workload a = makeWorkload(GetParam(), params_);
    const Workload b = makeWorkload(GetParam(), params_);
    ASSERT_EQ(a.totalAccesses(), b.totalAccesses());
    for (unsigned g = 0; g < a.numGpus(); ++g) {
        ASSERT_EQ(a.traces[g].size(), b.traces[g].size());
        for (std::size_t i = 0; i < a.traces[g].size(); ++i) {
            ASSERT_EQ(a.traces[g][i].addr, b.traces[g][i].addr);
            ASSERT_EQ(a.traces[g][i].write, b.traces[g][i].write);
        }
    }
}

TEST_P(AllApps, DifferentSeedsDiffer)
{
    WorkloadParams other = params_;
    other.seed = params_.seed + 1;
    const Workload a = makeWorkload(GetParam(), params_);
    const Workload b = makeWorkload(GetParam(), other);
    // Same structure, different sampled lines/pages somewhere.
    bool any_difference = false;
    for (unsigned g = 0; g < a.numGpus() && !any_difference; ++g) {
        for (std::size_t i = 0;
             i < std::min(a.traces[g].size(), b.traces[g].size()); ++i) {
            if (a.traces[g][i].addr != b.traces[g][i].addr) {
                any_difference = true;
                break;
            }
        }
    }
    EXPECT_TRUE(any_difference);
}

TEST_P(AllApps, ScalesWithGpuCount)
{
    for (unsigned gpus : {2u, 8u, 16u}) {
        WorkloadParams p = params_;
        p.numGpus = gpus;
        const Workload w = makeWorkload(GetParam(), p);
        EXPECT_EQ(w.numGpus(), gpus);
        for (const GpuTrace &trace : w.traces)
            EXPECT_FALSE(trace.empty());
    }
}

TEST_P(AllApps, FootprintDivisorScalesPages)
{
    WorkloadParams big = params_;
    big.footprintDivisor = 8;
    const Workload a = makeWorkload(GetParam(), params_);  // divisor 16
    const Workload b = makeWorkload(GetParam(), big);
    EXPECT_EQ(b.footprintGenPages, 2 * a.footprintGenPages);
}

INSTANTIATE_TEST_SUITE_P(
    TableII, AllApps, ::testing::ValuesIn(kAllApps),
    [](const ::testing::TestParamInfo<AppId> &info) {
        return std::string(appMeta(info.param).abbr);
    });

// ------------------------------------ paper characterization properties

TEST(AppCharacter, FirAndScAreOverwhelminglyPrivate)
{
    for (AppId app : {AppId::kFir, AppId::kSc}) {
        const auto c = classifyPages(makeWorkload(app));
        const double private_frac =
            static_cast<double>(c.privatePages) /
            static_cast<double>(c.totalPages());
        EXPECT_GT(private_frac, 0.9) << appMeta(app).abbr;
    }
}

TEST(AppCharacter, BfsAndStShareMostPages)
{
    for (AppId app : {AppId::kBfs, AppId::kSt}) {
        const auto c = classifyPages(makeWorkload(app));
        const double shared_frac =
            static_cast<double>(c.sharedPages) /
            static_cast<double>(c.totalPages());
        EXPECT_GT(shared_frac, 0.6) << appMeta(app).abbr;
    }
}

TEST(AppCharacter, BfsAccessesConcentrateOnPrivatePages)
{
    // Section IV-B: BFS has many shared pages but few accesses to them.
    const auto c = classifyPages(makeWorkload(AppId::kBfs));
    EXPECT_GT(c.accessesToPrivate, c.accessesToShared);
}

TEST(AppCharacter, GemmAndMmMixPrivateAndShared)
{
    for (AppId app : {AppId::kGemm, AppId::kMm}) {
        const auto c = classifyPages(makeWorkload(app));
        const double shared_frac =
            static_cast<double>(c.sharedPages) /
            static_cast<double>(c.totalPages());
        EXPECT_GT(shared_frac, 0.25) << appMeta(app).abbr;
        EXPECT_LT(shared_frac, 0.75) << appMeta(app).abbr;
    }
}

TEST(AppCharacter, BfsAndGemmAreReadDominant)
{
    for (AppId app : {AppId::kBfs, AppId::kGemm}) {
        const auto c = classifyPages(makeWorkload(app));
        const double read_frac =
            static_cast<double>(c.accessesToRead) /
            static_cast<double>(c.totalAccesses());
        EXPECT_GT(read_frac, 0.5) << appMeta(app).abbr;
    }
}

TEST(AppCharacter, BsAndStAreReadWriteHeavy)
{
    for (AppId app : {AppId::kBs, AppId::kSt}) {
        const auto c = classifyPages(makeWorkload(app));
        const double rw_frac =
            static_cast<double>(c.accessesToReadWrite) /
            static_cast<double>(c.totalAccesses());
        EXPECT_GT(rw_frac, 0.6) << appMeta(app).abbr;
    }
}

TEST(AppCharacter, NeighborPagesShareAttributes)
{
    // Section IV-C: adjacent pages mostly carry the same attribute —
    // the property Neighboring-Aware Prediction exploits.
    for (AppId app : {AppId::kGemm, AppId::kSt, AppId::kFir}) {
        const Workload w = makeWorkload(app);
        const auto map = attributesOverTime(w, 16);
        EXPECT_GT(neighborSimilarity(map), 0.8) << appMeta(app).abbr;
    }
}

TEST(AppCharacter, StHasReadOnlyIntervalsThenWrites)
{
    // Fig. 10: early intervals read-only, later intervals mix writes.
    const Workload w = makeWorkload(AppId::kSt);
    const sim::PageId page = mostAccessedSharedRwPage(w);
    const auto dist = pageRwDistribution(w, page, 16);
    EXPECT_EQ(dist.front().second, 0u);  // no early writes
    std::uint64_t late_writes = 0;
    for (std::size_t k = 8; k < dist.size(); ++k)
        late_writes += dist[k].second;
    EXPECT_GT(late_writes, 0u);
}

// ------------------------------------------------------------------ DNN

TEST(Dnn, ModelsGenerateAndDiffer)
{
    const Workload vgg = makeDnnWorkload(DnnModel::kVgg16);
    const Workload resnet = makeDnnWorkload(DnnModel::kResNet18);
    EXPECT_EQ(vgg.name, "VGG16");
    EXPECT_EQ(resnet.name, "ResNet18");
    EXPECT_GT(vgg.totalAccesses(), 1000u);
    EXPECT_GT(resnet.totalAccesses(), 1000u);
    EXPECT_NE(vgg.footprintGenPages, resnet.footprintGenPages);
}

TEST(Dnn, PipelineSharesActivationBoundaries)
{
    const auto c = classifyPages(makeDnnWorkload(DnnModel::kResNet18));
    EXPECT_GT(c.sharedPages, 0u);
    EXPECT_GT(c.privatePages, 0u);  // weights stay private
}

}  // namespace
}  // namespace grit::workload
