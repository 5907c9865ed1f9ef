#include "apps/common/verify.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "apps/common/app.hpp"
#include "core/registry.hpp"
#include "core/result_database.hpp"

namespace altis::apps {
namespace {

TEST(Verify, MaxRelErrorZeroForIdentical) {
    const std::vector<float> a{1.0f, -2.0f, 3.5f};
    EXPECT_DOUBLE_EQ(max_rel_error<float>(a, a), 0.0);
}

TEST(Verify, MaxRelErrorRelativeForLargeValues) {
    const std::vector<float> e{100.0f};
    const std::vector<float> a{101.0f};
    EXPECT_NEAR(max_rel_error<float>(e, a), 0.01, 1e-6);
}

TEST(Verify, MaxRelErrorAbsoluteNearZero) {
    // Denominator floors at 1: tiny expected values don't explode the error.
    const std::vector<float> e{1e-6f};
    const std::vector<float> a{2e-6f};
    EXPECT_LT(max_rel_error<float>(e, a), 1e-5);
}

TEST(Verify, MaxRelErrorPicksWorstElement) {
    const std::vector<double> e{10.0, 20.0, 30.0};
    const std::vector<double> a{10.0, 22.0, 30.0};
    EXPECT_NEAR(max_rel_error<double>(e, a), 0.1, 1e-12);
}

TEST(Verify, SizeMismatchThrows) {
    const std::vector<int> e{1, 2};
    const std::vector<int> a{1};
    EXPECT_THROW(mismatch_count<int>(e, a), std::invalid_argument);
    const std::vector<float> ef{1.0f};
    const std::vector<float> af{1.0f, 2.0f};
    EXPECT_THROW(max_rel_error<float>(ef, af), std::invalid_argument);
}

TEST(Verify, MismatchCount) {
    const std::vector<int> e{1, 2, 3, 4};
    const std::vector<int> a{1, 9, 3, 8};
    EXPECT_EQ(mismatch_count<int>(e, a), 2u);
}

TEST(Verify, RequireCloseThrowsAboveTolerance) {
    EXPECT_NO_THROW(require_close(0.001, 0.01, "x"));
    EXPECT_NO_THROW(require_close(0.01, 0.01, "x"));
    EXPECT_THROW(require_close(0.02, 0.01, "x"), verification_error);
    // NaN error must fail, not pass, the check.
    EXPECT_THROW(require_close(std::nan(""), 0.01, "x"), verification_error);
}

TEST(Verify, NanInActualFailsVerification) {
    const std::vector<float> e{1.0f, 2.0f};
    const std::vector<float> a{1.0f, std::numeric_limits<float>::quiet_NaN()};
    EXPECT_THROW(require_close(max_rel_error<float>(e, a), 1e-4, "x"),
                 verification_error);
}

TEST(Verify, NanInExpectedFailsVerification) {
    const std::vector<double> e{std::numeric_limits<double>::quiet_NaN(), 2.0};
    const std::vector<double> a{1.0, 2.0};
    EXPECT_THROW(require_close(max_rel_error<double>(e, a), 1e-4, "x"),
                 verification_error);
}

TEST(Verify, NanIsNotMaskedByLaterFiniteErrors) {
    const std::vector<float> e{1.0f, 2.0f, 3.0f};
    const std::vector<float> a{std::numeric_limits<float>::quiet_NaN(), 2.5f,
                               3.0f};
    EXPECT_TRUE(std::isnan(max_rel_error<float>(e, a)));
}

TEST(Verify, WorstErrorIsMaxForFiniteAndKeepsNan) {
    EXPECT_EQ(worst_error(0.5, 0.25), std::max(0.5, 0.25));
    EXPECT_EQ(worst_error(0.25, 0.5), std::max(0.25, 0.5));
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_TRUE(std::isnan(worst_error(0.5, nan)));
    EXPECT_TRUE(std::isnan(worst_error(nan, 0.5)));
}

TEST(ReferenceOnce, ComputesOnceAcrossPassesOfOneScope) {
    int calls = 0;
    const auto compute = [&] {
        ++calls;
        return std::vector<int>{1, 2, 3};
    };
    reference_scope scope;
    const auto first = reference_once(compute);
    for (int pass = 1; pass < 3; ++pass) {
        scope.next_pass();
        const auto again = reference_once(compute);
        EXPECT_EQ(again.get(), first.get());  // the same object, not a copy
    }
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(*first, (std::vector<int>{1, 2, 3}));
}

TEST(ReferenceOnce, SlotsFollowCallOrderWithinAPass) {
    reference_scope scope;
    const auto a = reference_once([] { return 1; });
    const auto b = reference_once([] { return 2; });
    scope.next_pass();
    EXPECT_EQ(reference_once([] { return -1; }), a);
    EXPECT_EQ(reference_once([] { return -2; }), b);
    EXPECT_EQ(*a, 1);
    EXPECT_EQ(*b, 2);
}

TEST(ReferenceOnce, FreshScopeAndNoScopeRecompute) {
    int calls = 0;
    const auto compute = [&] { return ++calls; };
    {
        reference_scope scope;
        EXPECT_EQ(*reference_once(compute), 1);
    }
    {
        reference_scope scope;  // a retried run starts from nothing
        EXPECT_EQ(*reference_once(compute), 2);
        scope.next_pass();
        EXPECT_EQ(*reference_once(compute), 2);
    }
    EXPECT_EQ(reference_scope::active(), nullptr);
    EXPECT_EQ(*reference_once(compute), 3);  // outside a scope: every call
    EXPECT_EQ(*reference_once(compute), 4);
    EXPECT_EQ(calls, 4);
}

TEST(ReferenceOnce, ThrowingComputeLeavesSlotEmpty) {
    int calls = 0;
    reference_scope scope;
    EXPECT_THROW((void)reference_once([&]() -> int {
                     ++calls;
                     throw std::runtime_error("oracle failed");
                 }),
                 std::runtime_error);
    scope.next_pass();
    EXPECT_EQ(*reference_once([&] { return ++calls; }), 2);
    scope.next_pass();
    EXPECT_EQ(*reference_once([&] { return ++calls; }), 2);
    EXPECT_EQ(calls, 2);
}

TEST(ReferenceOnce, SlotTypeMismatchThrows) {
    reference_scope scope;
    (void)reference_once([] { return 1; });
    scope.next_pass();
    EXPECT_THROW((void)reference_once([] { return 1.0; }), std::logic_error);
}

TEST(ReferenceOnce, NestedScopeShadowsAndRestoresOuter) {
    reference_scope outer;
    EXPECT_EQ(reference_scope::active(), &outer);
    {
        reference_scope inner;
        EXPECT_EQ(reference_scope::active(), &inner);
    }
    EXPECT_EQ(reference_scope::active(), &outer);
}

// Toy app for the registry pass loop: its oracle counts its calls, and its
// "device" result can be corrupted on one chosen pass.
int toy_oracle_calls = 0;
int toy_pass = 0;
int toy_bad_pass = -1;

AppResult toy_run(const RunConfig&) {
    const auto expected = reference_once([] {
        ++toy_oracle_calls;
        return std::vector<float>{1.0f, 2.0f, 3.0f};
    });
    std::vector<float> got = *expected;
    if (toy_pass++ == toy_bad_pass) got[1] = 2.5f;
    require_close(max_rel_error<float>(*expected, got), 1e-6, "toy");
    AppResult r;
    r.kernel_ms = r.total_ms = 1.0;
    return r;
}

const AppInfo& toy_app() {
    static const AppInfo* app = [] {
        register_standard_app("toy_reference_once", "pass-loop test app",
                              {Variant::sycl_opt}, &toy_run);
        return Registry::instance().find("toy_reference_once");
    }();
    return *app;
}

TEST(ReferenceOnce, StandardAppComputesReferenceOncePerRun) {
    const AppInfo& app = toy_app();
    RunConfig cfg;
    cfg.passes = 3;
    toy_oracle_calls = toy_pass = 0;
    toy_bad_pass = -1;
    ResultDatabase db;
    app.run(cfg, db);
    EXPECT_EQ(toy_oracle_calls, 1);
    EXPECT_EQ(toy_pass, 3);
    EXPECT_EQ(reference_scope::active(), nullptr);  // nothing outlives run
    app.run(cfg, db);  // a new run recomputes
    EXPECT_EQ(toy_oracle_calls, 2);
}

TEST(ReferenceOnce, StandardAppStillVerifiesEveryPass) {
    const AppInfo& app = toy_app();
    RunConfig cfg;
    cfg.passes = 3;
    toy_oracle_calls = toy_pass = 0;
    toy_bad_pass = 2;  // only the last pass returns a wrong result
    ResultDatabase db;
    EXPECT_THROW(app.run(cfg, db), verification_error);
    EXPECT_EQ(toy_pass, 3);
    EXPECT_EQ(toy_oracle_calls, 1);
    EXPECT_EQ(reference_scope::active(), nullptr);
}

}  // namespace
}  // namespace altis::apps
