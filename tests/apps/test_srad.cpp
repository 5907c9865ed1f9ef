#include "apps/srad/srad.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "perf/model.hpp"
#include "perf/resource_model.hpp"

#include "support/fnv1a.hpp"

namespace altis::apps::srad {
namespace {

TEST(Srad, GoldenSmoothsSpeckle) {
    params p{64, 64, 20, 0.5f};
    std::vector<float> img = make_image(p);
    // Variance before vs after diffusion.
    auto variance = [](const std::vector<float>& v) {
        double mean = 0.0;
        for (float x : v) mean += x;
        mean /= static_cast<double>(v.size());
        double var = 0.0;
        for (float x : v) var += (x - mean) * (x - mean);
        return var / static_cast<double>(v.size());
    };
    const double before = variance(img);
    golden(p, img);
    EXPECT_LT(variance(img), before);
    for (float x : img) {
        EXPECT_TRUE(std::isfinite(x));
        EXPECT_GT(x, 0.0f);
    }
}

// The oracle's stencil loops and its per-chunk statistics partials run on the
// thread pool; each cell's arithmetic is unchanged and the partials fold in
// chunk order, so the output bytes must match the serial reference exactly.
// Digest pinned from the serial implementation. Size 1 only: size 2
// (0x8392c216e17d771c) takes over a second.
TEST(Srad, GoldenOutputIsBitIdenticalToSerialReference) {
    const params p = params::preset(1);
    std::vector<float> img = make_image(p);
    golden(p, img);
    EXPECT_EQ(support::fnv1a<float>(img), 0x05aef5eb6c8d2a59ULL);
}

struct Case {
    const char* device;
    Variant variant;
};

// gtest appends the raw bytes of each Case to the registered test name, so
// the low byte of the device pointer is part of that name. Left to the
// linker, string literals land wherever the rest of the binary pushes them
// and the names drift from build to build. Pinning the device names at fixed
// offsets of one 256-byte-aligned block keeps every name the same.
struct alignas(256) DeviceNames {
    char unused[0x80];
    char rtx_2080[16] = "rtx_2080";
    char a100[16] = "a100";
    char xeon_6128[16] = "xeon_6128";
    char stratix_10[16] = "stratix_10";
    char agilex[16] = "agilex";
};
constexpr DeviceNames kDevices{};

class SradVariants : public ::testing::TestWithParam<Case> {};

TEST_P(SradVariants, FunctionalRunVerifies) {
    RunConfig cfg;
    cfg.size = 1;
    cfg.device = GetParam().device;
    cfg.variant = GetParam().variant;
    const AppResult r = run(cfg);
    EXPECT_GT(r.kernel_ms, 0.0);
    EXPECT_LE(r.error, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    DevicesAndVariants, SradVariants,
    ::testing::Values(Case{kDevices.rtx_2080, Variant::cuda},
                      Case{kDevices.a100, Variant::sycl_opt},
                      Case{kDevices.xeon_6128, Variant::sycl_base},
                      Case{kDevices.stratix_10, Variant::fpga_base},
                      Case{kDevices.stratix_10, Variant::fpga_opt},
                      Case{kDevices.agilex, Variant::fpga_opt}),
    [](const ::testing::TestParamInfo<Case>& info) {
        return std::string(info.param.device) + "_" +
               to_string(info.param.variant);
    });

// Sec. 4's headline synthesis failure: eleven accessor objects exceed the
// Stratix 10; the pointer-passing refactor fits.
TEST(Srad, AccessorObjectDesignFailsPlacementOnStratix10) {
    const auto& s10 = perf::device_by_name("stratix_10");
    const auto bad = perf::estimate_design_resources(
        fpga_design_accessor_objects(s10, 1), s10);
    EXPECT_FALSE(bad.fits);
    const auto good =
        perf::estimate_design_resources(fpga_design(s10, 1), s10);
    EXPECT_TRUE(good.fits);
}

// Sec. 5.2 case 2: a 64x64 work-group at SIMD 2 beats 16x16 at SIMD 8 by ~4x
// -- wide SIMD on eleven shared arrays explodes resources and melts Fmax.
TEST(Srad, WorkGroupSimdTradeoff) {
    const auto& s10 = perf::device_by_name("stratix_10");
    auto k = fpga_design(s10, 2)[1];  // the single-task kernel: use nd proxy
    // Build the comparison on the ND-Range kernel descriptor directly.
    const params p = params::preset(2);
    (void)p;
    (void)k;
    // Large WG + narrow SIMD.
    perf::kernel_stats wide;
    wide.form = perf::kernel_form::nd_range;
    wide.global_items = 1 << 20;
    wide.wg_size = 64 * 64;
    wide.simd = 2;
    wide.fp32_ops = 30;
    wide.static_fp32_ops = 30;
    wide.local_arrays = 11;
    wide.local_mem_bytes = 11.0 * 64 * 64 * 4;
    wide.local_accesses = 8;
    wide.pattern = perf::local_pattern::banked;
    perf::kernel_stats narrow = wide;
    narrow.wg_size = 16 * 16;
    narrow.simd = 8;
    narrow.local_mem_bytes = 11.0 * 16 * 16 * 4;
    const double t_wide = perf::kernel_time_ns(wide, s10);
    const double t_narrow = perf::kernel_time_ns(narrow, s10);
    EXPECT_LT(t_wide, t_narrow);
}

TEST(Srad, AgilexRetunesWindow) {
    // Sec. 5.5: 16 -> 32 (we encode it as doubling the single-task unroll).
    const auto s10 = fpga_design(perf::device_by_name("stratix_10"), 1);
    const auto agx = fpga_design(perf::device_by_name("agilex"), 1);
    EXPECT_LT(s10[1].loops[0].unroll, agx[1].loops[0].unroll);
}

TEST(Srad, RunMatchesRegionSimulation) {
    RunConfig cfg;
    cfg.size = 1;
    cfg.device = "a100";
    cfg.variant = Variant::sycl_opt;
    const AppResult r = run(cfg);
    const auto& dev = perf::device_by_name(cfg.device);
    const auto est = simulate_region(region(cfg.variant, dev, cfg.size), dev,
                                     perf::runtime_kind::sycl);
    EXPECT_NEAR(r.kernel_ms, est.kernel_ms(), r.kernel_ms * 0.02);
}

}  // namespace
}  // namespace altis::apps::srad
