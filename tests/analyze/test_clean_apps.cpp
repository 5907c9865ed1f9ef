// The clean-tree guarantee: running the whole registered suite under the
// sanitizer produces zero findings, functionally (real queues, the default
// variant/device and fpga_opt on stratix_10) and over the bench descriptors
// (sizes 1-3). A finding here
// is either a real bug in an app or a false positive in a rule -- both block.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "analyze/sanitize.hpp"
#include "apps/common/app.hpp"
#include "apps/common/suite.hpp"
#include "core/registry.hpp"
#include "core/result_database.hpp"

namespace altis::analyze {
namespace {

std::string render(const report& r) {
    std::ostringstream os;
    r.render_text(os);
    return os.str();
}

/// Runs every registered app that implements `cfg.variant` under its own
/// recorder and expects zero findings.
void expect_clean_runs(const RunConfig& cfg) {
    apps::register_all_apps();
    for (const auto& app : Registry::instance().apps()) {
        if (std::find(app.variants.begin(), app.variants.end(),
                      cfg.variant) == app.variants.end())
            continue;
        recorder rec;
        {
            recorder::scope scope(rec);
            ResultDatabase db;
            ASSERT_NO_THROW(app.run(cfg, db)) << app.name;
        }
        const report r = run_all(rec);
        EXPECT_TRUE(r.empty()) << app.name << ":\n" << render(r);
        EXPECT_FALSE(rec.graph().empty()) << app.name
                                          << ": recorder captured nothing";
    }
}

TEST(CleanApps, FunctionalRunOfEveryAppHasZeroFindings) {
    RunConfig cfg;
    cfg.size = 1;
    cfg.passes = 1;
    expect_clean_runs(cfg);
}

TEST(CleanApps, FpgaOptRunOfEveryAppHasZeroFindings) {
    // The optimized FPGA designs reach what the default variant skips:
    // single-task kernels, the custom scan, dataflow pipes.
    RunConfig cfg;
    cfg.size = 1;
    cfg.passes = 1;
    cfg.variant = Variant::fpga_opt;
    cfg.device = "stratix_10";
    expect_clean_runs(cfg);
}

TEST(CleanApps, SuiteDescriptorsHaveZeroFindings) {
    // The shipping configurations: migrated/optimized SYCL on CPU and GPUs,
    // the FPGA-refactored variants on their boards. (cuda and fpga_base carry
    // the paper's documented "before" traps by design and are exercised in
    // test_perf_lint.cpp instead.)
    const struct {
        Variant v;
        const char* device;
    } configs[] = {
        {Variant::sycl_opt, "xeon_6128"},
        {Variant::sycl_opt, "rtx_2080"},
        {Variant::sycl_opt, "a100"},
        {Variant::fpga_opt, "stratix_10"},
        {Variant::fpga_opt, "agilex"},
    };
    for (const auto& cfg : configs) {
        const auto& dev = perf::device_by_name(cfg.device);
        recorder rec;
        for (const auto& e : bench::suite()) {
            for (int size = 1; size <= 3; ++size) {
                if (e.crashes && e.crashes(dev, cfg.v, size)) continue;
                try {
                    const auto region = e.region(cfg.v, dev, size);
                    for (const auto& k : region.all_kernels())
                        rec.record_simulated_kernel(k, dev);
                } catch (const std::exception&) {
                    // Configurations an entry does not implement.
                }
            }
        }
        const report r = run_all(rec);
        EXPECT_TRUE(r.empty()) << to_string(cfg.v) << "/" << cfg.device
                               << ":\n" << render(r);
    }
}

}  // namespace
}  // namespace altis::analyze
