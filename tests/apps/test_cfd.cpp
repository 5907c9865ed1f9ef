#include "apps/cfd/cfd.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "perf/model.hpp"
#include "support/fnv1a.hpp"

namespace altis::apps::cfd {
namespace {

TEST(Cfd, MeshTopologyIsConsistent) {
    const params p = params::preset(1);
    const mesh m = make_mesh(p);
    ASSERT_EQ(m.neighbors.size(), p.nel() * kNeighbors);
    for (std::size_t e = 0; e < p.nel(); ++e)
        for (int f = 0; f < kNeighbors; ++f) {
            const int nb = m.neighbors[e * kNeighbors + static_cast<std::size_t>(f)];
            ASSERT_GE(nb, -1);
            ASSERT_LT(nb, static_cast<int>(p.nel()));
        }
    // Interior element neighbor symmetry: east(e) == e+1, west(e+1) == e.
    const std::size_t e = p.nx + 1;  // interior
    EXPECT_EQ(m.neighbors[e * kNeighbors + 1], static_cast<int>(e + 1));
    EXPECT_EQ(m.neighbors[(e + 1) * kNeighbors + 0], static_cast<int>(e));
}

TEST(Cfd, GoldenStaysFiniteAndConservesMassApproximately) {
    params p{32, 32, 20};
    const mesh m = make_mesh(p);
    auto vars = initial_variables<float>(p);
    const std::size_t nel = p.nel();
    double mass_before = 0.0;
    for (std::size_t e = 0; e < nel; ++e) mass_before += vars[e];
    golden(p, m, vars);
    double mass_after = 0.0;
    for (std::size_t e = 0; e < nel; ++e) {
        ASSERT_TRUE(std::isfinite(vars[e]));
        ASSERT_GT(vars[e], 0.0f);  // density stays positive
        mass_after += vars[e];
    }
    // Open far-field boundaries leak a little; it must stay bounded.
    EXPECT_NEAR(mass_after / mass_before, 1.0, 0.05);
}

TEST(Cfd, Fp64GoldenMatchesFp32Loosely) {
    params p{16, 16, 10};
    const mesh m = make_mesh(p);
    auto v32 = initial_variables<float>(p);
    auto v64 = initial_variables<double>(p);
    golden(p, m, v32);
    golden(p, m, v64);
    for (std::size_t i = 0; i < v32.size(); ++i)
        EXPECT_NEAR(static_cast<double>(v32[i]), v64[i], 1e-3);
}

// The oracle's element loops run on the thread pool; each element's
// arithmetic is unchanged and nothing reduces across elements, so the output
// bytes must match the serial reference exactly. Digests pinned from the
// serial implementation.
TEST(Cfd, GoldenOutputIsBitIdenticalToSerialReference) {
    const params p = params::preset(1);
    const mesh m = make_mesh(p);
    auto v32 = initial_variables<float>(p);
    auto v64 = initial_variables<double>(p);
    golden(p, m, v32);
    golden(p, m, v64);
    EXPECT_EQ(support::fnv1a<float>(v32), 0xf169a4b36e87fec6ULL);
    EXPECT_EQ(support::fnv1a<double>(v64), 0x0bb3f1599e742b2aULL);
}

// Meshes that reach the oracle's edge cases: 13 x 7 = 91 elements leaves a
// tail that is not a whole group of 4 floats or 2 doubles, and a one-column
// mesh gives every element two free-stream faces. Digests pinned from the
// per-element serial implementation.
TEST(Cfd, LaneTailsAndBoundariesAreBitIdentical) {
    struct pin {
        params p;
        std::uint64_t fp32, fp64;
    };
    const pin pins[] = {
        {{13, 7, 4}, 0x679e625abacdee2bULL, 0x9138e4c335843614ULL},
        {{1, 9, 4}, 0xa890b281a751bde9ULL, 0xca789247e5b85f4fULL}};
    for (const pin& c : pins) {
        const mesh m = make_mesh(c.p);
        auto v32 = initial_variables<float>(c.p);
        auto v64 = initial_variables<double>(c.p);
        golden(c.p, m, v32);
        golden(c.p, m, v64);
        EXPECT_EQ(support::fnv1a<float>(v32), c.fp32) << c.p.nx << "x" << c.p.ny;
        EXPECT_EQ(support::fnv1a<double>(v64), c.fp64) << c.p.nx << "x" << c.p.ny;
    }
}

struct Case {
    const char* device;
    Variant variant;
    bool fp64;
};

class CfdVariants : public ::testing::TestWithParam<Case> {};

TEST_P(CfdVariants, FunctionalRunVerifies) {
    RunConfig cfg;
    cfg.size = 1;
    cfg.device = GetParam().device;
    cfg.variant = GetParam().variant;
    const AppResult r =
        GetParam().fp64 ? run_fp64(cfg) : run_fp32(cfg);
    EXPECT_GT(r.kernel_ms, 0.0);
    // The kernels and the oracle share one flux formula and run its scalar
    // operations in the same order, so the device output is the oracle's
    // bit for bit, not merely within require_close's tolerance.
    EXPECT_EQ(r.error, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    DevicesAndVariants, CfdVariants,
    ::testing::Values(Case{"rtx_2080", Variant::cuda, false},
                      Case{"rtx_2080", Variant::cuda, true},
                      Case{"a100", Variant::sycl_opt, false},
                      Case{"max_1100", Variant::sycl_opt, true},
                      Case{"stratix_10", Variant::fpga_base, false},
                      Case{"stratix_10", Variant::fpga_opt, false},
                      Case{"agilex", Variant::fpga_opt, true}),
    [](const ::testing::TestParamInfo<Case>& info) {
        return std::string(info.param.device) + "_" +
               to_string(info.param.variant) +
               (info.param.fp64 ? "_fp64" : "_fp32");
    });

// Fig. 5's FP64 story: on CFD FP64 the RTX 2080 (1:32 FP64) loses its edge
// over the CPU, while A100 (1:2) and Max 1100 (1:1) keep theirs.
TEST(Cfd, Fp64PenaltyReordersDevices) {
    const auto& rtx = perf::device_by_name("rtx_2080");
    const auto& a100 = perf::device_by_name("a100");
    const auto& cpu = perf::device_by_name("xeon_6128");
    auto total = [&](bool fp64, const perf::device_spec& d) {
        return simulate_region(region(fp64, Variant::sycl_opt, d, 3), d,
                               perf::runtime_kind::sycl)
            .kernel_ms();
    };
    const double rtx_drop = total(true, rtx) / total(false, rtx);
    const double a100_drop = total(true, a100) / total(false, a100);
    EXPECT_GT(rtx_drop, a100_drop * 1.5);  // Turing hurts much more
    // RTX 2080's advantage over the CPU shrinks under FP64.
    const double rtx_adv_32 = total(false, cpu) / total(false, rtx);
    const double rtx_adv_64 = total(true, cpu) / total(true, rtx);
    EXPECT_LT(rtx_adv_64, rtx_adv_32 * 0.7);
}

// Sec. 5.1: FP64 kernels only replicate twice (resource-bound).
TEST(Cfd, Fp64ReplicationLimitedToTwo) {
    const auto& s10 = perf::device_by_name("stratix_10");
    for (const auto& k : fpga_design(true, s10, 1))
        EXPECT_LE(k.replication, 2);
    // And the FP32 design uses 4x on S10, 8x on Agilex (Sec. 5.5).
    EXPECT_EQ(fpga_design(false, s10, 1)[2].replication, 4);
    EXPECT_EQ(fpga_design(false, perf::device_by_name("agilex"), 1)[2].replication,
              8);
}

// Sec. 5.2: CFD FP32 performance only scales up to SIMD = 2.
TEST(Cfd, SimdScalingCapsAtTwo) {
    const auto& s10 = perf::device_by_name("stratix_10");
    auto flux = fpga_design(false, s10, 3)[2];
    auto time_at_simd = [&](int simd) {
        auto k = flux;
        k.simd = simd;
        k.replication = 1;  // study one compute unit, as in Sec. 5.2
        return perf::fpga_kernel_time_ns(k, s10, 300.0);
    };
    const double v1 = time_at_simd(1);
    const double v2 = time_at_simd(2);
    const double v4 = time_at_simd(4);
    const double v8 = time_at_simd(8);
    EXPECT_GT(v1 / v2, 1.5);           // SIMD 2 scales well
    EXPECT_LT(v2 / v8, v1 / v2);       // diminishing beyond 2
    EXPECT_NEAR(v4 / v8, 1.0, 0.05);   // fully bandwidth-capped past 4
}

TEST(Cfd, RunMatchesRegionSimulation) {
    RunConfig cfg;
    cfg.size = 1;
    cfg.device = "a100";
    cfg.variant = Variant::sycl_opt;
    const AppResult r = run_fp32(cfg);
    const auto& dev = perf::device_by_name(cfg.device);
    const auto est = simulate_region(region(false, cfg.variant, dev, cfg.size),
                                     dev, perf::runtime_kind::sycl);
    EXPECT_NEAR(r.kernel_ms, est.kernel_ms(), r.kernel_ms * 0.02);
}

}  // namespace
}  // namespace altis::apps::cfd
