#include "apps/nw/nw.hpp"

#include <gtest/gtest.h>

#include "apps/common/verify.hpp"
#include "support/fnv1a.hpp"

namespace altis::apps::nw {
namespace {

TEST(Nw, GoldenMatchesHandComputedAlignment) {
    // Two tiny identical sequences: the diagonal accumulates +5 per match.
    params p;
    p.n = 16;  // one tile
    workload w;
    w.seq1.assign(p.n, 3);
    w.seq2.assign(p.n, 3);
    const auto score = golden(p, w);
    // Diagonal cell (i,i) = 5*(i+1).
    for (std::size_t i = 0; i < p.n; ++i)
        EXPECT_EQ(score[i * p.n + i], static_cast<int>(5 * (i + 1)));
}

TEST(Nw, GoldenMismatchPenalties) {
    params p;
    p.n = 16;
    workload w;
    w.seq1.assign(p.n, 1);
    w.seq2.assign(p.n, 2);  // all mismatches
    const auto score = golden(p, w);
    // Best first cell: max(diag -3, gaps -20) = -3.
    EXPECT_EQ(score[0], -3);
}

// Where the oracle keeps its rows must not change its integer recurrence:
// the output bytes must match. Digests pinned from the implementation that
// filled the whole (n+1)^2 table.
TEST(Nw, GoldenOutputIsBitIdenticalToFullTableReference) {
    const std::uint64_t pinned[] = {0xee27b14a7cf1cb52ULL,
                                    0x3b7608c2606f4a2eULL};
    for (int size = 1; size <= 2; ++size) {
        const params p = params::preset(size);
        EXPECT_EQ(support::fnv1a<int>(golden(p, make_workload(p))),
                  pinned[size - 1])
            << "size " << size;
    }
}

// run() compares the interior of the (n+1)^2 device matrix row by row
// against the n x n reference. A reference wrong in its first or its last
// cell must fail the run, so an off-by-one row or column offset cannot pass.
TEST(Nw, RunRejectsAWrongReferenceCell) {
    RunConfig cfg;
    cfg.size = 1;
    const params p = params::preset(cfg.size);
    const std::vector<int> truth = golden(p, make_workload(p));
    for (const std::size_t cell : {std::size_t{0}, p.n * p.n - 1}) {
        reference_scope scope;
        (void)reference_once([&] {  // fills slot 0, which run() then reads
            std::vector<int> wrong = truth;
            wrong[cell] ^= 1;
            return wrong;
        });
        scope.next_pass();
        EXPECT_THROW((void)run(cfg), verification_error) << "cell " << cell;
    }
}

struct Case {
    const char* device;
    Variant variant;
};

class NwVariants : public ::testing::TestWithParam<Case> {};

TEST_P(NwVariants, FunctionalRunVerifiesExactly) {
    RunConfig cfg;
    cfg.size = 1;
    cfg.device = GetParam().device;
    cfg.variant = GetParam().variant;
    const AppResult r = run(cfg);
    EXPECT_GT(r.kernel_ms, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    DevicesAndVariants, NwVariants,
    ::testing::Values(Case{"rtx_2080", Variant::cuda},
                      Case{"rtx_2080", Variant::sycl_base},
                      Case{"a100", Variant::sycl_opt},
                      Case{"stratix_10", Variant::fpga_base},
                      Case{"stratix_10", Variant::fpga_opt},
                      Case{"agilex", Variant::fpga_opt}),
    [](const ::testing::TestParamInfo<Case>& info) {
        return std::string(info.param.device) + "_" +
               to_string(info.param.variant);
    });

// Sec. 3.3: raising the inlining threshold recovers up to 2x for NW.
TEST(Nw, InliningThresholdRecoversBaselineLoss) {
    // Kernel-region comparison at size 3 (small sizes are launch-bound, so
    // the kernel-side effect only shows where kernels carry real work).
    const auto& rtx = perf::device_by_name("rtx_2080");
    const auto base = simulate_region(region(Variant::sycl_base, rtx, 3), rtx,
                                      perf::runtime_kind::sycl);
    const auto opt = simulate_region(region(Variant::sycl_opt, rtx, 3), rtx,
                                     perf::runtime_kind::sycl);
    const double gain = base.kernel_ms() / opt.kernel_ms();
    EXPECT_GT(gain, 1.2);
    EXPECT_LT(gain, 2.6);
}

// Sec. 5.4: at sizes 2-3 NW on the Stratix 10 runs at about half the CPU's
// speed -- the arbiter-stalled local memory cannot be fixed by unrolling.
TEST(Nw, FpgaSlowerThanCpuAtLargeSizes) {
    const auto& s10 = perf::device_by_name("stratix_10");
    const auto& cpu = perf::device_by_name("xeon_6128");
    const auto fpga = simulate_region(region(Variant::fpga_opt, s10, 3), s10,
                                      perf::runtime_kind::sycl);
    const auto host = simulate_region(region(Variant::sycl_opt, cpu, 3), cpu,
                                      perf::runtime_kind::sycl);
    EXPECT_GT(fpga.total_ms(), host.total_ms());
}

TEST(Nw, CongestedPatternInDescriptors) {
    const auto& s10 = perf::device_by_name("stratix_10");
    const auto design = fpga_design(s10, 1);
    ASSERT_EQ(design.size(), 1u);
    EXPECT_EQ(design[0].pattern, perf::local_pattern::congested);
    EXPECT_EQ(design[0].unroll, 1);  // unrolling would violate timing
    EXPECT_EQ(design[0].replication, 16);
    EXPECT_EQ(fpga_design(perf::device_by_name("agilex"), 1)[0].replication, 8);
}

TEST(Nw, RunMatchesRegionSimulation) {
    RunConfig cfg;
    cfg.size = 1;
    cfg.device = "stratix_10";
    cfg.variant = Variant::fpga_opt;
    const AppResult r = run(cfg);
    const auto& dev = perf::device_by_name(cfg.device);
    const auto est = simulate_region(region(cfg.variant, dev, cfg.size), dev,
                                     perf::runtime_kind::sycl);
    // 3% tolerance: the region models the average diagonal length while the
    // run sees each diagonal exactly (per-launch floors differ slightly).
    EXPECT_NEAR(r.kernel_ms, est.kernel_ms(), r.kernel_ms * 0.03);
}

}  // namespace
}  // namespace altis::apps::nw
