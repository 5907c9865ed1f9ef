#include "dpct/dpct.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace altis::dpct {
namespace {

cuda_source_manifest tiny() {
    cuda_source_manifest m;
    m.app = "tiny";
    m.lines_of_code = 1000;
    m.kernels = 2;
    m.cuda_event_timer_pairs = 3;
    m.mem_advise_calls = 4;
    m.barriers = 10;
    m.barriers_detectable_local = 6;
    m.error_code_checks = 7;
    m.default_wg_size_kernels = 2;
    return m;
}

TEST(Dpct, TimerPairsEmitTwoWarningsEach) {
    const auto r = migrate(tiny());
    for (const auto& d : r.diagnostics) {
        if (d.id == diagnostic_id::DPCT1012) {
            EXPECT_EQ(d.count, 6);
        }
    }
}

TEST(Dpct, OnlyUnprovableBarriersAreAnnotated) {
    const auto r = migrate(tiny());
    int barrier_warnings = -1;
    for (const auto& d : r.diagnostics)
        if (d.id == diagnostic_id::DPCT1065) barrier_warnings = d.count;
    EXPECT_EQ(barrier_warnings, 4);  // 10 total - 6 provably local
}

TEST(Dpct, WarningCountSumsAllDiagnostics) {
    const auto r = migrate(tiny());
    // 6 timers + 4 advise + 4 barriers + 7 errors + 2 wg = 23.
    EXPECT_EQ(r.warning_count(), 23);
}

TEST(Dpct, CleanManifestRunsAfterWarningFixes) {
    const auto r = migrate(tiny());
    EXPECT_TRUE(r.runs_after_warning_fixes);
    EXPECT_TRUE(r.silent_issues.empty());
}

TEST(Dpct, DeviceNewDeleteIsASilentIssue) {
    auto m = tiny();
    m.device_new_delete = 2;
    const auto r = migrate(m);
    EXPECT_FALSE(r.runs_after_warning_fixes);
    ASSERT_EQ(r.silent_issues.size(), 1u);
    EXPECT_NE(r.silent_issues[0].find("new/delete"), std::string::npos);
}

TEST(Dpct, VirtualFunctionsAreASilentIssue) {
    auto m = tiny();
    m.virtual_functions = 5;  // the Raytracing situation
    const auto r = migrate(m);
    EXPECT_FALSE(r.runs_after_warning_fixes);
    EXPECT_NE(r.silent_issues[0].find("virtual"), std::string::npos);
}

TEST(Dpct, ConstantMemoryWrapperInitOrderIsASilentIssue) {
    auto m = tiny();
    m.constant_memory_objects = 5;
    const auto r = migrate(m);
    EXPECT_FALSE(r.runs_after_warning_fixes);
}

TEST(Dpct, AutoMigratedFractionInDpctClaimRange) {
    // Sec. 2.1: DPCT migrates ~90-95% automatically.
    const auto report = migrate_suite(altis_manifests());
    EXPECT_GE(report.auto_migrated_fraction, 0.90);
    EXPECT_LE(report.auto_migrated_fraction, 0.96);
}

// Sec. 3.2.1: "Altis has roughly 40k lines of code and DPCT inserted 2,535
// warnings. After addressing them, ~70% of the migrated applications execute
// without errors."
TEST(Dpct, SuiteTotalsMatchPaper) {
    const auto report = migrate_suite(altis_manifests());
    EXPECT_EQ(report.total_warnings, 2535);
    EXPECT_NEAR(static_cast<double>(report.total_loc), 40000.0, 1500.0);
    EXPECT_NEAR(report.runs_without_errors_fraction, 0.70, 0.08);
}

TEST(Dpct, FailingAppsAreTheSec322Cases) {
    const auto report = migrate_suite(altis_manifests());
    std::vector<std::string> failing;
    for (const auto& r : report.apps)
        if (!r.runs_after_warning_fixes) failing.push_back(r.app);
    // Raytracing (virtual functions), LavaMD (device new/delete), SRAD
    // (constant-memory wrapper order).
    EXPECT_EQ(failing.size(), 3u);
    EXPECT_NE(std::find(failing.begin(), failing.end(), "raytracing"),
              failing.end());
    EXPECT_NE(std::find(failing.begin(), failing.end(), "lavamd"),
              failing.end());
    EXPECT_NE(std::find(failing.begin(), failing.end(), "srad"),
              failing.end());
}

TEST(Dpct, MigrationIsDeterministic) {
    const auto a = migrate_suite(altis_manifests());
    const auto b = migrate_suite(altis_manifests());
    EXPECT_EQ(a.total_warnings, b.total_warnings);
    ASSERT_EQ(a.apps.size(), b.apps.size());
    for (std::size_t i = 0; i < a.apps.size(); ++i)
        EXPECT_EQ(a.apps[i].warning_count(), b.apps[i].warning_count());
}

TEST(Dpct, RenderContainsTotalsAndDiagnosticIds) {
    const auto report = migrate_suite(altis_manifests());
    std::ostringstream os;
    render(report, os);
    const std::string s = os.str();
    EXPECT_NE(s.find("2535"), std::string::npos);
    EXPECT_NE(s.find("DPCT1065"), std::string::npos);
    EXPECT_NE(s.find("DPCT1012"), std::string::npos);
}

TEST(Dpct, DiagnosticNamesRoundTrip) {
    EXPECT_STREQ(to_string(diagnostic_id::DPCT1003), "DPCT1003");
    EXPECT_STREQ(to_string(diagnostic_id::DPCT1084), "DPCT1084");
    EXPECT_NE(std::string(description(diagnostic_id::DPCT1063)).find("advice"),
              std::string::npos);
}

TEST(Dpct, EmptyManifestIsTrivially100Percent) {
    cuda_source_manifest m;
    m.app = "empty";
    m.lines_of_code = 100;
    const auto r = migrate(m);
    EXPECT_EQ(r.warning_count(), 0);
    EXPECT_DOUBLE_EQ(r.auto_migrated_fraction(), 1.0);
    EXPECT_TRUE(r.runs_after_warning_fixes);
}

}  // namespace
}  // namespace altis::dpct
