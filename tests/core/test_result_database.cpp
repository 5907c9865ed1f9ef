#include "core/result_database.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <sstream>

#include "support/mini_json.hpp"

namespace altis {
namespace {

TEST(ResultDatabase, AggregatesSamplesIntoOneSeries) {
    ResultDatabase db;
    db.add_result("kernel_time", "size=1", "ms", 2.0);
    db.add_result("kernel_time", "size=1", "ms", 4.0);
    db.add_result("kernel_time", "size=2", "ms", 8.0);
    ASSERT_EQ(db.results().size(), 2u);
    const Result* r = db.find("kernel_time", "size=1");
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->values.size(), 2u);
}

TEST(ResultDatabase, Statistics) {
    Result r{"t", "a", "ms", {1.0, 2.0, 3.0, 4.0}};
    EXPECT_DOUBLE_EQ(r.min(), 1.0);
    EXPECT_DOUBLE_EQ(r.max(), 4.0);
    EXPECT_DOUBLE_EQ(r.mean(), 2.5);
    EXPECT_DOUBLE_EQ(r.median(), 2.5);
    EXPECT_NEAR(r.stddev(), 1.2909944487, 1e-9);
}

TEST(ResultDatabase, MedianOddCount) {
    Result r{"t", "a", "ms", {5.0, 1.0, 3.0}};
    EXPECT_DOUBLE_EQ(r.median(), 3.0);
}

TEST(ResultDatabase, FailuresExcludedFromStatsButCounted) {
    ResultDatabase db;
    db.add_result("t", "a", "ms", 10.0);
    db.add_failure("t", "a", "ms");
    const Result* r = db.find("t", "a");
    ASSERT_NE(r, nullptr);
    EXPECT_DOUBLE_EQ(r->mean(), 10.0);
    EXPECT_DOUBLE_EQ(r->error_fraction(), 0.5);
}

TEST(ResultDatabase, AllFailedSeriesReportsSentinel) {
    Result r{"t", "a", "ms", {Result::failure_sentinel()}};
    EXPECT_GE(r.mean(), FLT_MAX);
    EXPECT_DOUBLE_EQ(r.error_fraction(), 1.0);
}

TEST(ResultDatabase, GeomeanOverSeriesMeans) {
    ResultDatabase db;
    db.add_result("speedup", "app=a", "x", 2.0);
    db.add_result("speedup", "app=b", "x", 8.0);
    db.add_result("other", "app=a", "x", 100.0);
    EXPECT_NEAR(db.geomean("speedup"), 4.0, 1e-12);
}

TEST(ResultDatabase, GeomeanSkipsNonPositiveAndFailedSeries) {
    ResultDatabase db;
    db.add_result("speedup", "app=a", "x", 4.0);
    db.add_result("speedup", "app=bad", "x", 0.0);
    db.add_failure("speedup", "app=fail", "x");
    EXPECT_NEAR(db.geomean("speedup"), 4.0, 1e-12);
}

TEST(ResultDatabase, GeomeanEmptyIsZero) {
    ResultDatabase db;
    EXPECT_DOUBLE_EQ(db.geomean("absent"), 0.0);
}

TEST(ResultDatabase, CsvDumpContainsAllTrials) {
    ResultDatabase db;
    db.add_result("t", "a", "ms", 1.5);
    db.add_result("t", "a", "ms", 2.5);
    std::ostringstream os;
    db.dump_csv(os);
    EXPECT_NE(os.str().find("t,a,ms,1.5,2.5"), std::string::npos);
}

TEST(ResultDatabase, JsonDumpIsWellFormedAndEscaped) {
    ResultDatabase db;
    db.add_result("kernel \"time\"", "size=1", "ms", 1.5);
    db.add_result("kernel \"time\"", "size=1", "ms", 2.5);
    db.add_failure("kernel \"time\"", "size=1", "ms");
    std::ostringstream os;
    db.dump_json(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("\"values\": [1.5, 2.5, null]"), std::string::npos) << s;
    EXPECT_NE(s.find("\\\"time\\\""), std::string::npos);  // escaped quote
    EXPECT_NE(s.find("\"mean\": 2"), std::string::npos);
    EXPECT_EQ(s.front(), '[');
    EXPECT_EQ(s[s.size() - 2], ']');
}

TEST(ResultDatabase, JsonRoundTripsEscapesInAtts) {
    // Attribute strings carry free-form text (device names, size presets,
    // file paths); quotes, backslashes and control bytes in them must come
    // back unchanged through a strict JSON parser, and failure sentinels
    // must encode as JSON null, not FLT_MAX.
    ResultDatabase db;
    const std::string atts =
        "path=C:\\altis\\\"run 1\"\tsize=2\nline\rcr\x01" "ctl";
    db.add_result("back\\slash", atts, "ms", 1.5);
    db.add_failure("back\\slash", atts, "ms");
    std::ostringstream os;
    db.dump_json(os);

    const mini_json::value doc = mini_json::parse(os.str());
    ASSERT_EQ(doc.as_array().size(), 1u);
    const mini_json::value& r = doc.as_array()[0];
    EXPECT_EQ(r.at("test").as_string(), "back\\slash");
    EXPECT_EQ(r.at("atts").as_string(), atts);
    EXPECT_EQ(r.at("unit").as_string(), "ms");
    const auto& values = r.at("values").as_array();
    ASSERT_EQ(values.size(), 2u);
    EXPECT_DOUBLE_EQ(values[0].as_number(), 1.5);
    EXPECT_TRUE(values[1].is_null());
    // The raw text must not leak an unescaped backslash sequence: every
    // backslash in the source strings appears doubled.
    EXPECT_NE(os.str().find("back\\\\slash"), std::string::npos);
    EXPECT_EQ(os.str().find("C:\\altis\\\""), std::string::npos);
}

TEST(ResultDatabase, JsonEmptyDatabase) {
    ResultDatabase db;
    std::ostringstream os;
    db.dump_json(os);
    EXPECT_EQ(os.str(), "[\n]\n");
}

TEST(ResultDatabase, SummaryTableHasHeaderAndRows) {
    ResultDatabase db;
    db.add_result("kernel_time", "size=1", "ms", 1.0);
    std::ostringstream os;
    db.dump_summary(os);
    EXPECT_NE(os.str().find("median"), std::string::npos);
    EXPECT_NE(os.str().find("kernel_time"), std::string::npos);
}

}  // namespace
}  // namespace altis
