#include "apps/kmeans/kmeans.hpp"

#include <gtest/gtest.h>

#include "support/fnv1a.hpp"

namespace altis::apps::kmeans {
namespace {

params tiny_params() {
    params p;
    p.n = 512;
    p.d = 4;
    p.k = 4;
    p.iterations = 12;
    return p;
}

TEST(Kmeans, GoldenSeparatesSyntheticBlobs) {
    const params p = tiny_params();
    const dataset data = make_dataset(p);
    const clustering c = golden(p, data);
    // Points were generated as k blobs on a line; after Lloyd the centers
    // must be distinct and each cluster non-empty.
    std::vector<int> counts(p.k, 0);
    for (int a : c.assignment) {
        ASSERT_GE(a, 0);
        ASSERT_LT(a, static_cast<int>(p.k));
        counts[static_cast<std::size_t>(a)]++;
    }
    for (int cnt : counts) EXPECT_GT(cnt, 0);
}

TEST(Kmeans, GoldenIsDeterministic) {
    const params p = tiny_params();
    const dataset data = make_dataset(p);
    const clustering a = golden(p, data);
    const clustering b = golden(p, data);
    EXPECT_EQ(a.assignment, b.assignment);
    EXPECT_EQ(a.centers, b.centers);
}

// The oracle's nearest-center map runs on the thread pool; each point's
// distance arithmetic is unchanged and the accumulation stays serial in point
// order, so the output bytes must match the serial reference exactly.
// Digests pinned from the serial implementation. Size 1 only: size 2
// (centers 0x4175684db246ce09, assignment 0xa3762a2927a22325) takes over a
// second.
TEST(Kmeans, GoldenOutputIsBitIdenticalToSerialReference) {
    const params p = params::preset(1);
    const clustering c = golden(p, make_dataset(p));
    EXPECT_EQ(support::fnv1a<float>(c.centers), 0xf70a3515ee5fb124ULL);
    EXPECT_EQ(support::fnv1a<int>(c.assignment), 0x5dde5014ce5a2325ULL);
}

struct Case {
    const char* device;
    Variant variant;
};

class KmeansVariants : public ::testing::TestWithParam<Case> {};

TEST_P(KmeansVariants, FunctionalRunVerifies) {
    RunConfig cfg;
    cfg.size = 1;
    cfg.device = GetParam().device;
    cfg.variant = GetParam().variant;
    const AppResult r = run(cfg);
    EXPECT_GT(r.kernel_ms, 0.0);
    EXPECT_LE(r.error, 2e-3);
}

INSTANTIATE_TEST_SUITE_P(
    DevicesAndVariants, KmeansVariants,
    ::testing::Values(Case{"rtx_2080", Variant::cuda},
                      Case{"a100", Variant::sycl_opt},
                      Case{"xeon_6128", Variant::sycl_base},
                      Case{"stratix_10", Variant::fpga_base},
                      Case{"stratix_10", Variant::fpga_opt},
                      Case{"agilex", Variant::fpga_opt}),
    [](const ::testing::TestParamInfo<Case>& info) {
        return std::string(info.param.device) + "_" +
               to_string(info.param.variant);
    });

// Fig. 4: pipes + Single-Task fusion give KMeans its ~500x FPGA speedup.
TEST(Kmeans, PipesDeliverLargeFpgaSpeedup) {
    const auto& s10 = perf::device_by_name("stratix_10");
    const auto base = simulate_region(region(Variant::fpga_base, s10, 3), s10,
                                      perf::runtime_kind::sycl);
    const auto opt = simulate_region(region(Variant::fpga_opt, s10, 3), s10,
                                     perf::runtime_kind::sycl);
    const double speedup = base.total_ms() / opt.total_ms();
    EXPECT_GT(speedup, 100.0);
    EXPECT_LT(speedup, 2000.0);
}

TEST(Kmeans, OptimizedDesignIsOneDataflowLaunch) {
    const auto& s10 = perf::device_by_name("stratix_10");
    const timed_region r = region(Variant::fpga_opt, s10, 2);
    EXPECT_TRUE(r.kernels.empty());
    ASSERT_EQ(r.dataflow.size(), 1u);
    EXPECT_EQ(r.dataflow[0].kernels.size(), 2u);  // mapCenters + resetAccFin
    // Only mapCenters moves bulk data to/from global memory (Fig. 3b).
    const auto& map = r.dataflow[0].kernels[0];
    const auto& raf = r.dataflow[0].kernels[1];
    EXPECT_GT(map.bytes_read, raf.bytes_read * 100.0);
    EXPECT_TRUE(map.writes_pipe);
    EXPECT_TRUE(raf.reads_pipe);
}

TEST(Kmeans, BaselineLaunchesFourKernelsPerIteration) {
    const auto& s10 = perf::device_by_name("stratix_10");
    const timed_region r = region(Variant::fpga_base, s10, 1);
    ASSERT_EQ(r.kernels.size(), 4u);
    const double iters = static_cast<double>(params::preset(1).iterations);
    for (const auto& slot : r.kernels) EXPECT_DOUBLE_EQ(slot.count, iters);
}

TEST(Kmeans, RunMatchesRegionSimulation) {
    RunConfig cfg;
    cfg.size = 1;
    cfg.device = "stratix_10";
    cfg.variant = Variant::fpga_opt;
    const AppResult r = run(cfg);
    const auto& dev = perf::device_by_name(cfg.device);
    const auto est = simulate_region(region(cfg.variant, dev, cfg.size), dev,
                                     perf::runtime_kind::sycl);
    EXPECT_NEAR(r.kernel_ms, est.kernel_ms(), r.kernel_ms * 0.01);
}

}  // namespace
}  // namespace altis::apps::kmeans
