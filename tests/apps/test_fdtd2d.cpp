#include "apps/fdtd2d/fdtd2d.hpp"

#include <gtest/gtest.h>

#include "support/fnv1a.hpp"

namespace altis::apps::fdtd2d {
namespace {

TEST(Fdtd2d, GoldenEvolvesFields) {
    params p{32, 32, 5};
    fields f = initial_fields(p);
    const fields before = f;
    golden(p, f);
    std::size_t changed = 0;
    for (std::size_t i = 0; i < f.hz.size(); ++i)
        if (f.hz[i] != before.hz[i]) ++changed;
    EXPECT_GT(changed, f.hz.size() / 2);
}

TEST(Fdtd2d, SourceRowIsDriven) {
    params p{16, 16, 3};
    fields f = initial_fields(p);
    golden(p, f);
    // ey row 0 carries the source of the last step.
    for (std::size_t j = 0; j < p.ny; ++j) EXPECT_FLOAT_EQ(f.ey[j], 2.0f);
}

// The oracle's row updates run on the thread pool; each cell's arithmetic is
// unchanged and every pass reads only fields the previous pass finished, so
// the output bytes must match the serial reference exactly. Digests pinned
// from the serial implementation.
TEST(Fdtd2d, GoldenOutputIsBitIdenticalToSerialReference) {
    const std::uint64_t pinned[][3] = {
        {0x2dc6782a37710b4aULL, 0xdbd240cb1a4afb54ULL, 0x4ed42c03bc1d0fa5ULL},
        {0x736492e33a721a7fULL, 0x8115c18821e48e2dULL, 0x9e169eb6c4f2465aULL}};
    for (int size = 1; size <= 2; ++size) {
        const params p = params::preset(size);
        fields f = initial_fields(p);
        golden(p, f);
        EXPECT_EQ(support::fnv1a<float>(f.ex), pinned[size - 1][0])
            << "size " << size;
        EXPECT_EQ(support::fnv1a<float>(f.ey), pinned[size - 1][1])
            << "size " << size;
        EXPECT_EQ(support::fnv1a<float>(f.hz), pinned[size - 1][2])
            << "size " << size;
    }
}

struct Case {
    const char* device;
    Variant variant;
};

class Fdtd2dVariants : public ::testing::TestWithParam<Case> {};

TEST_P(Fdtd2dVariants, FunctionalRunVerifies) {
    RunConfig cfg;
    cfg.size = 1;
    cfg.device = GetParam().device;
    cfg.variant = GetParam().variant;
    const AppResult r = run(cfg);
    EXPECT_GT(r.kernel_ms, 0.0);
    EXPECT_LE(r.error, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    DevicesAndVariants, Fdtd2dVariants,
    ::testing::Values(Case{"rtx_2080", Variant::cuda},
                      Case{"rtx_2080", Variant::sycl_base},
                      Case{"rtx_2080", Variant::sycl_opt},
                      Case{"xeon_6128", Variant::sycl_opt},
                      Case{"stratix_10", Variant::fpga_base},
                      Case{"agilex", Variant::fpga_opt}),
    [](const ::testing::TestParamInfo<Case>& info) {
        return std::string(info.param.device) + "_" +
               to_string(info.param.variant);
    });

// Figure 1's structure: SYCL's non-kernel region dwarfs CUDA's because of
// per-launch overhead across 3 x steps launches.
TEST(Fdtd2d, NonKernelRegionGrowsUnderSycl) {
    const auto& rtx = perf::device_by_name("rtx_2080");
    const auto cuda = simulate_region(region(Variant::cuda, rtx, 1), rtx,
                                      perf::runtime_kind::cuda);
    const auto sycl = simulate_region(region(Variant::sycl_opt, rtx, 1), rtx,
                                      perf::runtime_kind::sycl);
    EXPECT_GT(sycl.non_kernel_ms() / cuda.non_kernel_ms(), 3.0);
}

TEST(Fdtd2d, Fig1ShapeAtBothSizes) {
    const auto& rtx = perf::device_by_name("rtx_2080");
    // Size 1: SYCL's non-kernel region exceeds its kernel region.
    const auto sycl1 = simulate_region(region(Variant::sycl_opt, rtx, 1), rtx,
                                       perf::runtime_kind::sycl);
    EXPECT_GT(sycl1.non_kernel_ms(), sycl1.kernel_ms());
    // Size 3: the kernel region dominates the non-kernel one.
    const auto sycl3 = simulate_region(region(Variant::sycl_opt, rtx, 3), rtx,
                                       perf::runtime_kind::sycl);
    EXPECT_GT(sycl3.kernel_ms(), sycl3.non_kernel_ms());
}

// Sec. 3.3: the original CUDA missed a cudaDeviceSynchronize, so its timer
// saw almost nothing -- the Fig. 2 "baseline" rows compare against that.
TEST(Fdtd2d, MistimedCudaReportsOnlySubmissionCost) {
    const auto& rtx = perf::device_by_name("rtx_2080");
    const auto bad = simulate_region(region_cuda_mistimed(rtx, 1), rtx,
                                     perf::runtime_kind::cuda);
    const auto good = simulate_region(region(Variant::cuda, rtx, 1), rtx,
                                      perf::runtime_kind::cuda);
    EXPECT_DOUBLE_EQ(bad.kernel_ms(), 0.0);
    EXPECT_LT(bad.total_ms(), good.total_ms());
}

TEST(Fdtd2d, RunMatchesRegionSimulation) {
    RunConfig cfg;
    cfg.size = 1;
    cfg.device = "rtx_2080";
    cfg.variant = Variant::sycl_opt;
    const AppResult r = run(cfg);
    const auto& dev = perf::device_by_name(cfg.device);
    const auto est = simulate_region(region(cfg.variant, dev, cfg.size), dev,
                                     perf::runtime_kind::sycl);
    EXPECT_NEAR(r.kernel_ms, est.kernel_ms(), r.kernel_ms * 0.01);
}

}  // namespace
}  // namespace altis::apps::fdtd2d
