#include "apps/mandelbrot/mandelbrot.hpp"

#include <gtest/gtest.h>

#include "support/fnv1a.hpp"

namespace altis::apps::mandelbrot {
namespace {

TEST(Mandelbrot, GoldenHasInteriorAndExteriorPixels) {
    params p;
    p.width = p.height = 64;
    std::vector<std::uint16_t> iters(p.pixels());
    golden(p, iters);
    bool has_max = false, has_small = false;
    for (auto v : iters) {
        if (v == p.max_iters) has_max = true;
        if (v < 8) has_small = true;
    }
    EXPECT_TRUE(has_max);    // interior of the set never escapes
    EXPECT_TRUE(has_small);  // far corners escape immediately
}

// The per-pixel oracle loop runs on the thread pool; each pixel's arithmetic
// is unchanged, so the output must match the serial reference bit for bit.
// Digests pinned from the serial implementation.
TEST(Mandelbrot, GoldenOutputIsBitIdenticalToSerialReference) {
    const std::uint64_t pinned[] = {0x1a0f8c00f8570a49ULL,
                                    0x633ad937b75a876dULL};
    for (int size = 1; size <= 2; ++size) {
        const params p = params::preset(size);
        std::vector<std::uint16_t> iters(p.pixels());
        golden(p, iters);
        EXPECT_EQ(support::fnv1a<std::uint16_t>(iters), pinned[size - 1])
            << "size " << size;
    }
}

TEST(Mandelbrot, MeanIterationsIsResolutionStable) {
    const double m1 = mean_iterations(params::preset(1));
    const double m3 = mean_iterations(params::preset(3));
    EXPECT_NEAR(m1, m3, 1e-9);  // probe uses the window, not the resolution
    EXPECT_GT(m1, 10.0);
    EXPECT_LT(m1, 8192.0);
}

struct Case {
    const char* device;
    Variant variant;
};

class MandelbrotVariants : public ::testing::TestWithParam<Case> {};

TEST_P(MandelbrotVariants, FunctionalRunVerifiesAndTimes) {
    RunConfig cfg;
    cfg.size = 1;
    cfg.device = GetParam().device;
    cfg.variant = GetParam().variant;
    const AppResult r = run(cfg);  // throws on verification failure
    EXPECT_GT(r.kernel_ms, 0.0);
    EXPECT_GT(r.total_ms, r.kernel_ms);
    EXPECT_DOUBLE_EQ(r.error, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    DevicesAndVariants, MandelbrotVariants,
    ::testing::Values(Case{"rtx_2080", Variant::cuda},
                      Case{"rtx_2080", Variant::sycl_base},
                      Case{"rtx_2080", Variant::sycl_opt},
                      Case{"xeon_6128", Variant::sycl_opt},
                      Case{"a100", Variant::sycl_opt},
                      Case{"max_1100", Variant::sycl_opt},
                      Case{"stratix_10", Variant::fpga_base},
                      Case{"stratix_10", Variant::fpga_opt},
                      Case{"agilex", Variant::fpga_opt}),
    [](const ::testing::TestParamInfo<Case>& info) {
        return std::string(info.param.device) + "_" +
               to_string(info.param.variant);
    });

TEST(Mandelbrot, WrongDeviceVariantComboRejected) {
    RunConfig cfg;
    cfg.size = 1;
    cfg.device = "xeon_6128";
    cfg.variant = Variant::cuda;
    EXPECT_THROW(run(cfg), std::invalid_argument);
}

TEST(Mandelbrot, RunMatchesRegionSimulation) {
    // The functional path and the analytic region must agree: same stats,
    // same overhead sequence (DESIGN.md Sec. 4 cross-check).
    RunConfig cfg;
    cfg.size = 1;
    cfg.device = "stratix_10";
    cfg.variant = Variant::fpga_opt;
    const AppResult r = run(cfg);
    const auto& dev = perf::device_by_name(cfg.device);
    const timing_estimate est = simulate_region(
        region(cfg.variant, dev, cfg.size), dev, perf::runtime_kind::sycl);
    EXPECT_NEAR(r.kernel_ms, est.kernel_ms(), r.kernel_ms * 0.01);
    EXPECT_NEAR(r.total_ms, est.total_ms(), r.total_ms * 0.01);
}

TEST(Mandelbrot, FpgaOptimizationDeliversLargeSpeedup) {
    // Fig. 4: ~240x at size 1 on Stratix 10 (we accept a broad band).
    const auto& s10 = perf::device_by_name("stratix_10");
    const auto base = simulate_region(region(Variant::fpga_base, s10, 1), s10,
                                      perf::runtime_kind::sycl);
    const auto opt = simulate_region(region(Variant::fpga_opt, s10, 1), s10,
                                     perf::runtime_kind::sycl);
    const double speedup = base.kernel_ms() / opt.kernel_ms();
    EXPECT_GT(speedup, 50.0);
    EXPECT_LT(speedup, 2000.0);
}

TEST(Mandelbrot, PerSizeBitstreamsDiffer) {
    const auto& s10 = perf::device_by_name("stratix_10");
    const auto d1 = fpga_design(s10, 1);
    const auto d3 = fpga_design(s10, 3);
    ASSERT_EQ(d1.size(), 1u);
    ASSERT_EQ(d3.size(), 1u);
    // Table 3 lists one Mandelbrot row per size: different tuning.
    EXPECT_NE(d1[0].replication * d1[0].loops[0].unroll,
              d3[0].replication * d3[0].loops[0].unroll);
}

TEST(Mandelbrot, SpeculatedIterationsLoweredInOptimizedDesign) {
    const auto& s10 = perf::device_by_name("stratix_10");
    const auto d = fpga_design(s10, 2);
    ASSERT_FALSE(d[0].loops.empty());
    EXPECT_LT(d[0].loops[0].speculated_iterations, 4);  // compiler default
}

}  // namespace
}  // namespace altis::apps::mandelbrot
