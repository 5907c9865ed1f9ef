#include "apps/lavamd/lavamd.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "apps/common/verify.hpp"
#include "perf/resource_model.hpp"

namespace altis::apps::lavamd {
namespace {

TEST(Lavamd, GoldenForcesAreFiniteAndNonTrivial) {
    params p;
    p.boxes1d = 2;
    const auto particles = make_particles(p);
    const auto forces = golden(p, particles);
    ASSERT_EQ(forces.size(), p.particles());
    double energy = 0.0;
    for (const auto& f : forces) {
        EXPECT_TRUE(std::isfinite(f.fx));
        EXPECT_TRUE(std::isfinite(f.energy));
        energy += f.energy;
    }
    EXPECT_GT(energy, 0.0);  // exp(-u2)*q > 0 for every pair
}

TEST(Lavamd, InteriorParticlesSeeMoreNeighbors) {
    // An interior box (27 neighbours) accumulates more energy than a corner
    // box (8 neighbours), everything else being statistically equal.
    params p;
    p.boxes1d = 4;
    const auto particles = make_particles(p);
    const auto forces = golden(p, particles);
    auto box_energy = [&](std::size_t box) {
        double e = 0.0;
        for (std::size_t i = 0; i < kParPerBox; ++i)
            e += forces[box * kParPerBox + i].energy;
        return e;
    };
    const std::size_t corner = 0;
    const std::size_t interior = (1 * p.boxes1d + 1) * p.boxes1d + 1;
    EXPECT_GT(box_energy(interior), box_energy(corner) * 1.5);
}

struct Case {
    const char* device;
    Variant variant;
};

class LavamdVariants : public ::testing::TestWithParam<Case> {};

TEST_P(LavamdVariants, FunctionalRunVerifies) {
    RunConfig cfg;
    cfg.size = 1;
    cfg.device = GetParam().device;
    cfg.variant = GetParam().variant;
    const AppResult r = run(cfg);
    EXPECT_GT(r.kernel_ms, 0.0);
    EXPECT_LE(r.error, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    DevicesAndVariants, LavamdVariants,
    ::testing::Values(Case{"rtx_2080", Variant::cuda},
                      Case{"max_1100", Variant::sycl_opt},
                      Case{"xeon_6128", Variant::sycl_base},
                      Case{"stratix_10", Variant::fpga_base},
                      Case{"stratix_10", Variant::fpga_opt},
                      Case{"agilex", Variant::fpga_opt}),
    [](const ::testing::TestParamInfo<Case>& info) {
        return std::string(info.param.device) + "_" +
               to_string(info.param.variant);
    });

// Sec. 5.2 case 1: performance improves almost linearly with the unroll
// factor on the banked shared-memory loop.
TEST(Lavamd, UnrollingDeliversNearLinearFpgaSpeedup) {
    const auto& s10 = perf::device_by_name("stratix_10");
    const auto base = simulate_region(region(Variant::fpga_base, s10, 2), s10,
                                      perf::runtime_kind::sycl);
    const auto opt = simulate_region(region(Variant::fpga_opt, s10, 2), s10,
                                     perf::runtime_kind::sycl);
    const double speedup = base.kernel_ms() / opt.kernel_ms();
    EXPECT_GT(speedup, 15.0);  // paper: 23.1x at size 2
    EXPECT_LT(speedup, 45.0);
}

TEST(Lavamd, UnrollRetunedThirtyToSixteen) {
    EXPECT_EQ(fpga_design(perf::device_by_name("stratix_10"), 1)[0].unroll, 30);
    EXPECT_EQ(fpga_design(perf::device_by_name("agilex"), 1)[0].unroll, 16);
}

TEST(Lavamd, UnrollingPastBankingLimitViolatesTiming) {
    const auto& s10 = perf::device_by_name("stratix_10");
    auto k = fpga_design(s10, 1)[0];
    EXPECT_TRUE(perf::estimate_kernel_resources(k, s10).timing_clean);
    k.unroll = 40;  // "further unrolling ... leads to timing violations"
    EXPECT_FALSE(perf::estimate_kernel_resources(k, s10).timing_clean);
}

TEST(Lavamd, RunMatchesRegionSimulation) {
    RunConfig cfg;
    cfg.size = 1;
    cfg.device = "stratix_10";
    cfg.variant = Variant::fpga_opt;
    const AppResult r = run(cfg);
    const auto& dev = perf::device_by_name(cfg.device);
    const auto est = simulate_region(region(cfg.variant, dev, cfg.size), dev,
                                     perf::runtime_kind::sycl);
    EXPECT_NEAR(r.kernel_ms, est.kernel_ms(), r.kernel_ms * 0.02);
}

TEST(Lavamd, NanDeviceForceFailsVerification) {
    // std::max(worst, NaN) keeps `worst`: a NaN force must not pass.
    const std::vector<force> expected(4, force{1.0f, 2.0f, 3.0f, 4.0f});
    std::vector<force> got = expected;
    got[1].fx = std::numeric_limits<float>::quiet_NaN();
    got[3].energy += 1e-6f;  // a later finite error must not mask it
    EXPECT_TRUE(std::isnan(force_error(expected, got)));
    EXPECT_THROW(require_close(force_error(expected, got), 1e-4, "lavamd"),
                 verification_error);
}

}  // namespace
}  // namespace altis::apps::lavamd
