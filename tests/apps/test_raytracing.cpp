#include "apps/raytracing/raytracing.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "apps/common/verify.hpp"

#include "support/fnv1a.hpp"

namespace altis::apps::raytracing {
namespace {

TEST(Raytracing, MaterialLayoutMatchesListing1) {
    const material met = material::make_metal({0.8f, 0.6f, 0.4f}, 0.3f);
    EXPECT_FLOAT_EQ(met.data[0], 0.3f);   // fuzz
    EXPECT_FLOAT_EQ(met.data[2], 0.8f);   // albedo r
    EXPECT_FLOAT_EQ(met.data[4], 0.4f);   // albedo b
    EXPECT_EQ(met.kind(), material::metal);

    const material die = material::make_dielectric(1.5f);
    EXPECT_FLOAT_EQ(die.data[1], 1.5f);  // ref_idx
    EXPECT_EQ(die.kind(), material::dielectric);

    const material lam = material::make_lambertian({0.1f, 0.2f, 0.3f});
    EXPECT_EQ(lam.kind(), material::lambertian);
    EXPECT_EQ(sizeof(material), 8 * sizeof(float));  // one float8, no vtable
}

TEST(Raytracing, SceneHasAllThreeMaterialTypes) {
    const auto scene = make_scene();
    EXPECT_GE(scene.size(), 20u);
    int counts[3] = {0, 0, 0};
    for (const auto& s : scene) counts[s.mat.kind()]++;
    EXPECT_GT(counts[material::metal], 0);
    EXPECT_GT(counts[material::dielectric], 0);
    EXPECT_GT(counts[material::lambertian], 0);
}

TEST(Raytracing, GoldenImageIsPlausible) {
    params p;
    p.width = p.height = 64;
    p.samples = 2;
    const auto img = golden(p, rng_kind::philox);
    double mean = 0.0;
    for (const auto& px : img) {
        ASSERT_TRUE(std::isfinite(px.x));
        ASSERT_GE(px.x, 0.0f);
        ASSERT_LE(px.x, 1.01f);
        mean += (px.x + px.y + px.z) / 3.0;
    }
    mean /= static_cast<double>(img.size());
    EXPECT_GT(mean, 0.05);  // not black
    EXPECT_LT(mean, 0.98);  // not blown out
}

// The oracle's image rows run on the thread pool; each pixel's samples are
// drawn and traced exactly as in a serial sweep, so the output bytes must
// match the serial reference exactly. Digests pinned from the serial
// implementation.
TEST(Raytracing, GoldenOutputIsBitIdenticalToSerialReference) {
    struct pin {
        rng_kind kind;
        int size;
        std::uint64_t digest;
    };
    const pin pinned[] = {
        {rng_kind::xorwow, 1, 0x2a52d9b7a2b02887ULL},
        {rng_kind::philox, 1, 0xcb12be8a304a93b3ULL},
        {rng_kind::xorwow, 2, 0xa7651dcdb570f37bULL},
        {rng_kind::philox, 2, 0xba90ad2531d302dfULL},
    };
    for (const pin& want : pinned) {
        const std::vector<vec3> image =
            golden(params::preset(want.size), want.kind);
        EXPECT_EQ(support::fnv1a<vec3>(image), want.digest)
            << "rng " << static_cast<int>(want.kind) << " size " << want.size;
    }
}

// The two generators produce different images of the same scene whose
// overall statistics agree -- exactly the paper's "not directly comparable
// but both correct" situation (Sec. 3.3).
TEST(Raytracing, XorwowAndPhiloxImagesAgreeStatistically) {
    params p;
    p.width = p.height = 64;
    p.samples = 4;
    const auto a = golden(p, rng_kind::xorwow);
    const auto b = golden(p, rng_kind::philox);
    double mean_a = 0.0, mean_b = 0.0;
    std::size_t identical = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        mean_a += a[i].x + a[i].y + a[i].z;
        mean_b += b[i].x + b[i].y + b[i].z;
        if (a[i].x == b[i].x && a[i].y == b[i].y) ++identical;
    }
    EXPECT_NEAR(mean_a / mean_b, 1.0, 0.02);
    // Sky-only pixels match exactly (no RNG involved); hit pixels differ.
    EXPECT_LT(identical, a.size());
}

TEST(Raytracing, ProbeProfileIsSane) {
    const trace_profile prof = probe_profile(params::preset(1));
    EXPECT_GT(prof.mean_bounces, 1.0);
    EXPECT_LT(prof.mean_bounces, 8.0);
    EXPECT_NEAR(prof.tests_per_ray, 20.0, 5.0);  // ~20-sphere scene
}

struct Case {
    const char* device;
    Variant variant;
};

class RaytracingVariants : public ::testing::TestWithParam<Case> {};

TEST_P(RaytracingVariants, FunctionalRunVerifies) {
    RunConfig cfg;
    cfg.size = 1;
    cfg.device = GetParam().device;
    cfg.variant = GetParam().variant;
    const AppResult r = run(cfg);
    EXPECT_GT(r.kernel_ms, 0.0);
    EXPECT_LE(r.error, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    DevicesAndVariants, RaytracingVariants,
    ::testing::Values(Case{"rtx_2080", Variant::cuda},
                      Case{"rtx_2080", Variant::sycl_opt},
                      Case{"a100", Variant::sycl_base},
                      Case{"stratix_10", Variant::fpga_base},
                      Case{"stratix_10", Variant::fpga_opt},
                      Case{"agilex", Variant::fpga_opt}),
    [](const ::testing::TestParamInfo<Case>& info) {
        return std::string(info.param.device) + "_" +
               to_string(info.param.variant);
    });

// Fig. 2: the refactored SYCL Raytracing reports 11.6x-21.7x over CUDA.
TEST(Raytracing, RefactoredSyclFarOutrunsVirtualFunctionCuda) {
    const auto& rtx = perf::device_by_name("rtx_2080");
    const auto cuda = simulate_region(region(Variant::cuda, rtx, 3), rtx,
                                      perf::runtime_kind::cuda);
    const auto sycl = simulate_region(region(Variant::sycl_opt, rtx, 3), rtx,
                                      perf::runtime_kind::sycl);
    const double speedup = cuda.total_ms() / sycl.total_ms();
    EXPECT_GT(speedup, 6.0);
    EXPECT_LT(speedup, 60.0);
}

TEST(Raytracing, FpgaUnrollRetunedThirtyToSixteen) {
    EXPECT_EQ(fpga_design(perf::device_by_name("stratix_10"), 1)[0].unroll, 30);
    EXPECT_EQ(fpga_design(perf::device_by_name("agilex"), 1)[0].unroll, 16);
}

TEST(Raytracing, RunMatchesRegionSimulation) {
    RunConfig cfg;
    cfg.size = 1;
    cfg.device = "rtx_2080";
    cfg.variant = Variant::sycl_opt;
    const AppResult r = run(cfg);
    const auto& dev = perf::device_by_name(cfg.device);
    const auto est = simulate_region(region(cfg.variant, dev, cfg.size), dev,
                                     perf::runtime_kind::sycl);
    EXPECT_NEAR(r.kernel_ms, est.kernel_ms(), r.kernel_ms * 0.02);
}

TEST(Raytracing, NanDevicePixelFailsVerification) {
    // std::max({err, ...}) keeps `err`: a NaN channel must not pass.
    const std::vector<vec3> expected(4, vec3{0.5f, 0.25f, 0.125f});
    std::vector<vec3> got = expected;
    got[0].y = std::numeric_limits<float>::quiet_NaN();
    got[2].z += 1e-7f;  // a later finite error must not mask it
    EXPECT_TRUE(std::isnan(image_error(expected, got)));
    EXPECT_THROW(require_close(image_error(expected, got), 1e-6,
                               "raytracing image"),
                 verification_error);
}

}  // namespace
}  // namespace altis::apps::raytracing
