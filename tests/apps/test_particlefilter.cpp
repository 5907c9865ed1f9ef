#include "apps/particlefilter/particlefilter.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "apps/common/verify.hpp"
#include "perf/resource_model.hpp"

namespace altis::apps::particlefilter {
namespace {

TEST(ParticleFilter, GoldenTracksTheMovingObject) {
    const params p = params::preset(1);
    const auto video = make_video(p);
    const estimate e = golden(p, flavor::floatopt, video);
    // Object starts at grid/4 and moves +1/+1 per frame; the filter should
    // stay within a few pixels of it by the final frame.
    const double target =
        static_cast<double>(p.grid) / 4.0 + static_cast<double>(p.frames - 1);
    EXPECT_NEAR(e.xe.back(), target, 6.0);
    EXPECT_NEAR(e.ye.back(), target, 6.0);
}

TEST(ParticleFilter, GoldenDeterministic) {
    const params p = params::preset(1);
    const auto video = make_video(p);
    const estimate a = golden(p, flavor::naive, video);
    const estimate b = golden(p, flavor::naive, video);
    EXPECT_EQ(a.xe, b.xe);
    EXPECT_EQ(a.ye, b.ye);
}

struct Case {
    const char* device;
    Variant variant;
    flavor f;
};

class PfVariants : public ::testing::TestWithParam<Case> {};

TEST_P(PfVariants, FunctionalRunVerifies) {
    RunConfig cfg;
    cfg.size = 1;
    cfg.device = GetParam().device;
    cfg.variant = GetParam().variant;
    const AppResult r = run_flavor(cfg, GetParam().f);
    EXPECT_GT(r.kernel_ms, 0.0);
    EXPECT_LE(r.error, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    DevicesAndVariants, PfVariants,
    ::testing::Values(Case{"rtx_2080", Variant::cuda, flavor::naive},
                      Case{"rtx_2080", Variant::cuda, flavor::floatopt},
                      Case{"a100", Variant::sycl_opt, flavor::naive},
                      Case{"xeon_6128", Variant::sycl_opt, flavor::floatopt},
                      Case{"stratix_10", Variant::fpga_opt, flavor::naive},
                      Case{"agilex", Variant::fpga_opt, flavor::floatopt}),
    [](const ::testing::TestParamInfo<Case>& info) {
        return std::string(info.param.device) + "_" +
               to_string(info.param.variant) + "_" +
               (info.param.f == flavor::naive ? "naive" : "float");
    });

// Sec. 3.3: DPCT's pow(a,2) -> a*a substitution made SYCL PF Float up to 6x
// faster than the original CUDA.
TEST(ParticleFilter, PowSubstitutionSpeedsUpFloatVariant) {
    const auto& rtx = perf::device_by_name("rtx_2080");
    const auto cuda = simulate_region(region(flavor::floatopt, Variant::cuda,
                                             rtx, 2),
                                      rtx, perf::runtime_kind::cuda);
    const auto sycl = simulate_region(region(flavor::floatopt,
                                             Variant::sycl_opt, rtx, 2),
                                      rtx, perf::runtime_kind::sycl);
    const double speedup = cuda.total_ms() / sycl.total_ms();
    EXPECT_GT(speedup, 1.0);
    EXPECT_LT(speedup, 8.0);
}

// The naive flavour's O(N^2) linear search dominates at larger sizes.
TEST(ParticleFilter, NaiveResamplingScalesQuadratically) {
    const auto& rtx = perf::device_by_name("rtx_2080");
    const auto naive = simulate_region(region(flavor::naive, Variant::sycl_opt,
                                              rtx, 3),
                                       rtx, perf::runtime_kind::sycl);
    const auto fl = simulate_region(region(flavor::floatopt, Variant::sycl_opt,
                                           rtx, 3),
                                    rtx, perf::runtime_kind::sycl);
    EXPECT_GT(naive.kernel_ms(), fl.kernel_ms() * 5.0);
}

// Table 3: the branch-heavy Single-Task designs close timing around 105 MHz.
TEST(ParticleFilter, FpgaDesignsClockNear105MHz) {
    const auto& s10 = perf::device_by_name("stratix_10");
    const auto design = fpga_design(flavor::naive, s10, 1);
    const auto usage = perf::estimate_design_resources(design, s10);
    EXPECT_GT(usage.fmax_mhz, 80.0);
    EXPECT_LT(usage.fmax_mhz, 140.0);
}

TEST(ParticleFilter, ReplicationRetunedBetweenBoards) {
    // Sec. 5.5: 10x -> 4x and 50x -> 24x.
    const auto s10 = fpga_design(flavor::floatopt,
                                 perf::device_by_name("stratix_10"), 1);
    const auto agx =
        fpga_design(flavor::floatopt, perf::device_by_name("agilex"), 1);
    ASSERT_EQ(s10[0].loops.size(), 2u);
    EXPECT_EQ(s10[0].loops[0].unroll, 10);
    EXPECT_EQ(agx[0].loops[0].unroll, 4);
    EXPECT_EQ(s10[0].loops[1].unroll, 50);
    EXPECT_EQ(agx[0].loops[1].unroll, 24);
}

TEST(ParticleFilter, RunMatchesRegionSimulation) {
    RunConfig cfg;
    cfg.size = 1;
    cfg.device = "rtx_2080";
    cfg.variant = Variant::sycl_opt;
    const AppResult r = run_naive(cfg);
    const auto& dev = perf::device_by_name(cfg.device);
    const auto est =
        simulate_region(region(flavor::naive, cfg.variant, dev, cfg.size), dev,
                        perf::runtime_kind::sycl);
    EXPECT_NEAR(r.kernel_ms, est.kernel_ms(), r.kernel_ms * 0.02);
}

TEST(ParticleFilter, NanDeviceEstimateFailsVerification) {
    // std::max(err, NaN) keeps `err`: a NaN estimate must not pass.
    const estimate expected{{1.0f, 2.0f, 3.0f}, {4.0f, 5.0f, 6.0f}};
    estimate got = expected;
    got.ye[0] = std::numeric_limits<float>::quiet_NaN();
    got.xe[2] += 1e-4f;  // a later finite error must not mask it
    EXPECT_TRUE(std::isnan(estimate_error(expected, got)));
    EXPECT_THROW(require_close(estimate_error(expected, got), 1e-3,
                               "particlefilter estimates"),
                 verification_error);
}

}  // namespace
}  // namespace altis::apps::particlefilter
