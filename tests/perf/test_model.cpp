#include "perf/model.hpp"

#include <gtest/gtest.h>

#include "perf/resource_model.hpp"

namespace altis::perf {
namespace {

kernel_stats compute_bound_kernel(double items) {
    kernel_stats k;
    k.name = "compute";
    k.global_items = items;
    k.wg_size = 256;
    k.fp32_ops = 4000.0;
    k.bytes_read = 8.0;
    k.bytes_written = 4.0;
    k.static_fp32_ops = 40;
    return k;
}

kernel_stats memory_bound_kernel(double items) {
    kernel_stats k;
    k.name = "memory";
    k.global_items = items;
    k.wg_size = 256;
    k.fp32_ops = 2.0;
    k.bytes_read = 64.0;
    k.bytes_written = 32.0;
    k.static_fp32_ops = 2;
    return k;
}

TEST(GpuModel, TimeScalesWithWork) {
    const auto& dev = device_by_name("rtx_2080");
    const double t1 = kernel_time_ns(compute_bound_kernel(1 << 16), dev);
    const double t2 = kernel_time_ns(compute_bound_kernel(1 << 20), dev);
    EXPECT_GT(t2, t1 * 8.0);  // 16x the work, allow floor effects
}

TEST(GpuModel, FasterDeviceWinsOnComputeBound) {
    const double rtx =
        kernel_time_ns(compute_bound_kernel(1 << 20), device_by_name("rtx_2080"));
    const double a100 =
        kernel_time_ns(compute_bound_kernel(1 << 20), device_by_name("a100"));
    EXPECT_LT(a100, rtx);
}

TEST(GpuModel, BandwidthDecidesMemoryBound) {
    const double rtx =
        kernel_time_ns(memory_bound_kernel(1 << 22), device_by_name("rtx_2080"));
    const double a100 =
        kernel_time_ns(memory_bound_kernel(1 << 22), device_by_name("a100"));
    // A100 has ~3.5x the bandwidth of the RTX 2080.
    EXPECT_NEAR(rtx / a100, 1555.0 / 448.0, 0.8);
}

TEST(GpuModel, Fp64PenaltyOnTuring) {
    kernel_stats f32 = compute_bound_kernel(1 << 20);
    kernel_stats f64 = f32;
    f64.fp64_ops = f64.fp32_ops;
    f64.fp32_ops = 0.0;
    const auto& rtx = device_by_name("rtx_2080");
    const auto& pvc = device_by_name("max_1100");
    // 1:32 on Turing, 1:1 on Ponte Vecchio.
    EXPECT_GT(kernel_time_ns(f64, rtx) / kernel_time_ns(f32, rtx), 16.0);
    EXPECT_NEAR(kernel_time_ns(f64, pvc) / kernel_time_ns(f32, pvc), 1.0, 0.2);
}

TEST(GpuModel, DivergenceSlowsComputeBoundKernels) {
    const auto& dev = device_by_name("a100");
    kernel_stats base = compute_bound_kernel(1 << 20);
    kernel_stats divergent = base;
    divergent.divergence = 0.8;
    EXPECT_GT(kernel_time_ns(divergent, dev), kernel_time_ns(base, dev) * 1.2);
}

TEST(GpuModel, SfuOpsAreExpensive) {
    const auto& dev = device_by_name("rtx_2080");
    kernel_stats pow_version = compute_bound_kernel(1 << 18);
    pow_version.fp32_ops = 100.0;
    pow_version.sfu_ops = 200.0;  // pow(a,2) per element
    kernel_stats mul_version = pow_version;
    mul_version.sfu_ops = 0.0;
    mul_version.fp32_ops = 300.0;  // a*a instead
    // The paper saw up to 6x from this transformation (Sec. 3.3).
    EXPECT_GT(kernel_time_ns(pow_version, dev) / kernel_time_ns(mul_version, dev),
              2.0);
}

TEST(CpuModel, LaunchFloorApplies) {
    const auto& cpu = device_by_name("xeon_6128");
    kernel_stats tiny = compute_bound_kernel(64);
    tiny.fp32_ops = 1.0;
    EXPECT_GE(kernel_time_ns(tiny, cpu), 5000.0);
}

TEST(FpgaModel, SingleTaskIiAndUnrollShapeCycleCount) {
    const auto& dev = device_by_name("stratix_10");
    kernel_stats k;
    k.name = "st";
    k.form = kernel_form::single_task;
    loop_info loop;
    loop.trip_count = 1e7;
    loop.initiation_interval = 1;
    loop.unroll = 1;
    k.loops.push_back(loop);

    const double base = fpga_kernel_time_ns(k, dev, 300.0);
    k.loops[0].initiation_interval = 4;
    const double ii4 = fpga_kernel_time_ns(k, dev, 300.0);
    EXPECT_NEAR(ii4 / base, 4.0, 0.1);

    k.loops[0].initiation_interval = 1;
    k.loops[0].unroll = 8;
    const double u8 = fpga_kernel_time_ns(k, dev, 300.0);
    EXPECT_NEAR(base / u8, 8.0, 0.2);
}

TEST(FpgaModel, SpeculatedIterationWasteMatchesMandelbrotStory) {
    // Sec. 5.3: inner loop entered once per outer iteration; each entry
    // discards S speculated iterations.
    const auto& dev = device_by_name("stratix_10");
    kernel_stats k;
    k.form = kernel_form::single_task;
    loop_info inner;
    inner.trip_count = 8192.0 * 20.0;  // mean 20 iterations per entry
    inner.entries = 8192.0;
    inner.speculated_iterations = 4;
    k.loops.push_back(inner);
    const double spec4 = fpga_kernel_time_ns(k, dev, 300.0);
    k.loops[0].speculated_iterations = 0;
    const double spec0 = fpga_kernel_time_ns(k, dev, 300.0);
    EXPECT_GT(spec4, spec0);
    // Waste is entries * 4 cycles.
    EXPECT_NEAR((spec4 - spec0) * 300e6 / 1e9, 8192.0 * 4.0, 1.0);
}

TEST(FpgaModel, ReplicationDividesTime) {
    const auto& dev = device_by_name("agilex");
    kernel_stats k;
    k.form = kernel_form::single_task;
    loop_info loop;
    loop.trip_count = 1e8;
    k.loops.push_back(loop);
    const double one = fpga_kernel_time_ns(k, dev, 400.0);
    k.replication = 4;
    const double four = fpga_kernel_time_ns(k, dev, 400.0);
    EXPECT_NEAR(one / four, 4.0, 0.1);
}

TEST(FpgaModel, MemoryBandwidthCapsVectorization) {
    // Sec. 5.2: CFD FP32 only scales to SIMD = 2 because bandwidth runs out.
    const auto& dev = device_by_name("stratix_10");
    kernel_stats k = memory_bound_kernel(1 << 22);
    k.static_fp32_ops = 2;
    const double v1 = fpga_kernel_time_ns(k, dev, 300.0);
    k.simd = 2;
    const double v2 = fpga_kernel_time_ns(k, dev, 300.0);
    k.simd = 8;
    const double v8 = fpga_kernel_time_ns(k, dev, 300.0);
    EXPECT_LT(v2, v1);            // some gain early
    EXPECT_NEAR(v8 / v2, 1.0, 0.15);  // then the memory wall
}

TEST(FpgaModel, CongestedLocalMemoryStalls) {
    const auto& dev = device_by_name("stratix_10");
    kernel_stats banked;
    banked.form = kernel_form::nd_range;
    banked.global_items = 1 << 20;
    banked.wg_size = 64;
    banked.local_accesses = 16.0;
    banked.local_arrays = 1;
    banked.local_mem_bytes = 4096;
    banked.pattern = local_pattern::banked;
    banked.unroll = 16;
    kernel_stats congested = banked;
    congested.pattern = local_pattern::congested;
    congested.unroll = 1;  // unrolling a congested loop violates timing
    EXPECT_GT(fpga_kernel_time_ns(congested, dev, 300.0),
              fpga_kernel_time_ns(banked, dev, 300.0) * 2.0);
}

TEST(FpgaModel, UnrollSpeedsUpBankedSharedMemoryAlmostLinearly) {
    // Sec. 5.2 case 1: LavaMD improves almost linearly with unrolling.
    const auto& dev = device_by_name("stratix_10");
    kernel_stats k;
    k.form = kernel_form::nd_range;
    k.global_items = 1 << 18;
    k.wg_size = 128;
    k.local_accesses = 120.0;
    k.local_arrays = 2;
    k.local_mem_bytes = 8192;
    k.pattern = local_pattern::banked;
    k.unroll = 1;
    const double u1 = fpga_kernel_time_ns(k, dev, 300.0);
    k.unroll = 30;
    const double u30 = fpga_kernel_time_ns(k, dev, 300.0);
    EXPECT_GT(u1 / u30, 20.0);
    EXPECT_LT(u1 / u30, 31.0);
}

TEST(FpgaModel, RejectsNonFpgaDevice) {
    kernel_stats k;
    EXPECT_THROW((void)fpga_kernel_time_ns(k, device_by_name("a100"), 300.0),
                 std::invalid_argument);
}

TEST(DataflowModel, GroupTimeIsMaxOfMembers) {
    const auto& dev = device_by_name("stratix_10");
    kernel_stats heavy;
    heavy.form = kernel_form::single_task;
    loop_info big;
    big.trip_count = 1e8;
    heavy.loops.push_back(big);
    kernel_stats light = heavy;
    light.loops[0].trip_count = 1e4;

    const std::vector<kernel_stats> group{heavy, light};
    const double t = dataflow_time_ns(group, dev);
    const resource_usage design = estimate_design_resources(group, dev);
    const double heavy_alone = fpga_kernel_time_ns(heavy, dev, design.fmax_mhz);
    EXPECT_DOUBLE_EQ(t, heavy_alone);
}

TEST(DataflowModel, WorksOnGpuToo) {
    const auto& dev = device_by_name("a100");
    const std::vector<kernel_stats> group{compute_bound_kernel(1 << 20),
                                          memory_bound_kernel(1 << 10)};
    EXPECT_DOUBLE_EQ(dataflow_time_ns(group, dev),
                     std::max(kernel_time_ns(group[0], dev),
                              kernel_time_ns(group[1], dev)));
}

}  // namespace
}  // namespace altis::perf
