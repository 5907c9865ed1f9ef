#include "perf/device.hpp"

#include <gtest/gtest.h>

namespace altis::perf {
namespace {

TEST(DeviceCatalog, ContainsAllSixTable2DevicesPlusHbmProjection) {
    const auto devs = device_catalog();
    ASSERT_EQ(devs.size(), 7u);  // Table 2's six + the Sec. 6 HBM projection
    EXPECT_NO_THROW((void)device_by_name("xeon_6128"));
    EXPECT_NO_THROW((void)device_by_name("rtx_2080"));
    EXPECT_NO_THROW((void)device_by_name("a100"));
    EXPECT_NO_THROW((void)device_by_name("max_1100"));
    EXPECT_NO_THROW((void)device_by_name("stratix_10"));
    EXPECT_NO_THROW((void)device_by_name("agilex"));
    EXPECT_NO_THROW((void)device_by_name("agilex_hbm"));
}

// Sec. 6 future work: the HBM-enabled Agilex differs from the DE10 board
// only in memory system and fabric size.
TEST(DeviceCatalog, HbmAgilexProjection) {
    const auto& agx = device_by_name("agilex");
    const auto& hbm = device_by_name("agilex_hbm");
    EXPECT_GT(hbm.mem_bw_gbs, agx.mem_bw_gbs * 8.0);
    EXPECT_EQ(hbm.fmax_mhz, agx.fmax_mhz);
    EXPECT_FALSE(hbm.usm_supported);
    EXPECT_TRUE(hbm.is_fpga());
}

TEST(DeviceCatalog, UnknownNameThrows) {
    EXPECT_THROW((void)device_by_name("voodoo2"), std::out_of_range);
}

TEST(DeviceCatalog, Table2HeadlineNumbers) {
    EXPECT_DOUBLE_EQ(device_by_name("rtx_2080").peak_fp32_tflops, 10.1);
    EXPECT_DOUBLE_EQ(device_by_name("a100").mem_bw_gbs, 1555.0);
    EXPECT_DOUBLE_EQ(device_by_name("max_1100").peak_fp32_tflops, 22.2);
    EXPECT_EQ(device_by_name("xeon_6128").compute_units, 6);
    EXPECT_DOUBLE_EQ(device_by_name("stratix_10").mem_bw_gbs, 76.8);
    EXPECT_DOUBLE_EQ(device_by_name("agilex").mem_bw_gbs, 85.3);
}

// Sec. 3.1: Peak FP32 = N_dsp x 2 x F. Table 2 quotes 2.4-4.2 TFLOP/s for
// Stratix 10 (250-450 MHz) and 2.3-5.0 for Agilex (250-550 MHz).
TEST(DeviceCatalog, FpgaPeakAttainableFormula) {
    const auto& s10 = device_by_name("stratix_10");
    EXPECT_NEAR(s10.fpga_peak_fp32_tflops(250.0), 2.4, 0.05);
    EXPECT_NEAR(s10.fpga_peak_fp32_tflops(450.0), 4.2, 0.05);
    const auto& agx = device_by_name("agilex");
    EXPECT_NEAR(agx.fpga_peak_fp32_tflops(250.0), 2.3, 0.05);
    EXPECT_NEAR(agx.fpga_peak_fp32_tflops(550.0), 5.0, 0.05);
}

// Sec. 5.5: the Stratix 10 GX 2800 has +47.7% ALMs, +39.3% BRAMs and +21.7%
// DSPs relative to the Agilex AGF 014.
TEST(DeviceCatalog, StratixVsAgilexResourceRatios) {
    const auto& s10 = device_by_name("stratix_10");
    const auto& agx = device_by_name("agilex");
    EXPECT_GT(static_cast<double>(s10.total_alms) / agx.total_alms, 1.4);
    EXPECT_NEAR(static_cast<double>(s10.total_brams) / agx.total_brams, 1.65, 0.1);
    EXPECT_NEAR(static_cast<double>(s10.total_dsps) / agx.total_dsps, 1.28, 0.1);
}

TEST(DeviceCatalog, FpgaBoardsLackUsm) {
    EXPECT_FALSE(device_by_name("stratix_10").usm_supported);
    EXPECT_FALSE(device_by_name("agilex").usm_supported);
    EXPECT_TRUE(device_by_name("a100").usm_supported);
}

TEST(DeviceCatalog, Fp64Ratios) {
    // Turing's 1:32 FP64, A100's 1:2, PVC's 1:1 -- the Fig. 5 CFD FP64 story.
    const auto& rtx = device_by_name("rtx_2080");
    EXPECT_NEAR(rtx.peak_fp32_tflops / rtx.peak_fp64_tflops, 32.0, 0.5);
    const auto& a100 = device_by_name("a100");
    EXPECT_NEAR(a100.peak_fp32_tflops / a100.peak_fp64_tflops, 2.0, 0.1);
    const auto& pvc = device_by_name("max_1100");
    EXPECT_NEAR(pvc.peak_fp32_tflops / pvc.peak_fp64_tflops, 1.0, 0.01);
}

TEST(DeviceCatalog, KindStrings) {
    EXPECT_STREQ(to_string(device_kind::cpu), "cpu");
    EXPECT_STREQ(to_string(device_kind::gpu), "gpu");
    EXPECT_STREQ(to_string(device_kind::fpga), "fpga");
}

}  // namespace
}  // namespace altis::perf
