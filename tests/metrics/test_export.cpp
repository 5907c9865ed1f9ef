// Exporter correctness: Prometheus text exposition (unlabelled samples,
// cumulative histogram buckets), structured JSON (round-tripped through the
// strict mini_json parser) and Chrome trace-event counter tracks.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "metrics/export.hpp"
#include "metrics/metrics.hpp"
#include "metrics/session.hpp"
#include "support/mini_json.hpp"

namespace altis::metrics {
namespace {

metric_value make_value(const char* name, instrument_kind kind,
                        std::int64_t value) {
    metric_value m;
    m.info.name = name;
    m.info.help = "help text";
    m.info.kind = kind;
    m.value = value;
    return m;
}

TEST(PromExposition, CounterIsOneUnlabelledSample) {
    snapshot snap;
    snap.session_name = "t";
    snap.metrics.push_back(
        make_value("demo_total", instrument_kind::counter, 7));
    std::ostringstream out;
    write_prometheus(snap, out);
    EXPECT_EQ(out.str(),
              "# HELP demo_total help text\n"
              "# TYPE demo_total counter\n"
              "demo_total 7\n");
}

TEST(PromExposition, WatermarkExportsAsGauge) {
    snapshot snap;
    snap.metrics.push_back(
        make_value("peak_bytes", instrument_kind::watermark, 4096));
    std::ostringstream out;
    write_prometheus(snap, out);
    EXPECT_NE(out.str().find("# TYPE peak_bytes gauge"), std::string::npos);
    EXPECT_NE(out.str().find("peak_bytes 4096\n"), std::string::npos);
}

TEST(PromExposition, HistogramBucketsAreCumulative) {
    histogram h;
    h.record(0);    // bucket 0 (le="0")
    h.record(1);    // bucket 1 (le="1")
    h.record(2);    // bucket 2 (le="3")
    h.record(3);    // bucket 2
    h.record(100);  // bucket 7 (le="127")

    metric_value m = make_value("lat_ns", instrument_kind::histogram, 0);
    m.hist = h.aggregate();
    snapshot snap;
    snap.metrics.push_back(m);

    std::ostringstream out;
    write_prometheus(snap, out);
    const std::string s = out.str();
    EXPECT_NE(s.find("# TYPE lat_ns histogram"), std::string::npos);
    EXPECT_NE(s.find("lat_ns_bucket{le=\"0\"} 1\n"), std::string::npos);
    EXPECT_NE(s.find("lat_ns_bucket{le=\"1\"} 2\n"), std::string::npos);
    EXPECT_NE(s.find("lat_ns_bucket{le=\"3\"} 4\n"), std::string::npos);
    EXPECT_NE(s.find("lat_ns_bucket{le=\"127\"} 5\n"), std::string::npos);
    EXPECT_NE(s.find("lat_ns_bucket{le=\"+Inf\"} 5\n"), std::string::npos);
    EXPECT_NE(s.find("lat_ns_sum 106\n"), std::string::npos);
    EXPECT_NE(s.find("lat_ns_count 5\n"), std::string::npos);
    // Empty buckets past the last populated one are not emitted.
    EXPECT_EQ(s.find("le=\"255\""), std::string::npos);
}

TEST(JsonExport, RoundTripsThroughStrictParser) {
    histogram h;
    h.record(5);
    h.record(9);

    snapshot snap;
    snap.session_name = "json \"quoted\"\nname";
    // Beyond six significant digits: operator<< would print 1.23457e+09.
    snap.duration_ns = 1234567891.5;
    snap.metrics.push_back(make_value("a_total", instrument_kind::counter, 3));
    snap.metrics.push_back(make_value("level", instrument_kind::gauge, -2));
    metric_value hist = make_value("sizes", instrument_kind::histogram, 0);
    hist.hist = h.aggregate();
    snap.metrics.push_back(hist);

    sampled_series series;
    series.info.name = "level";
    series.info.kind = instrument_kind::gauge;
    series.samples = {{0.0, 1.0}, {5e6, 2.0}, {1234567891.5, 987654321.25}};

    std::ostringstream out;
    write_json(snap, {series}, out);

    const mini_json::value root = mini_json::parse(out.str());
    EXPECT_EQ(root.at("session").as_string(), "json \"quoted\"\nname");
    EXPECT_DOUBLE_EQ(root.at("duration_ns").as_number(), 1234567891.5);

    const auto& metrics = root.at("metrics").as_array();
    ASSERT_EQ(metrics.size(), 3u);
    EXPECT_EQ(metrics[0].at("name").as_string(), "a_total");
    EXPECT_EQ(metrics[0].at("type").as_string(), "counter");
    EXPECT_DOUBLE_EQ(metrics[0].at("value").as_number(), 3.0);
    EXPECT_DOUBLE_EQ(metrics[1].at("value").as_number(), -2.0);
    EXPECT_EQ(metrics[2].at("type").as_string(), "histogram");
    EXPECT_DOUBLE_EQ(metrics[2].at("count").as_number(), 2.0);
    EXPECT_DOUBLE_EQ(metrics[2].at("sum").as_number(), 14.0);
    const auto& buckets = metrics[2].at("buckets").as_array();
    ASSERT_EQ(buckets.size(), 2u);  // 5 -> le 7, 9 -> le 15
    EXPECT_DOUBLE_EQ(buckets[0].at("le").as_number(), 7.0);
    EXPECT_DOUBLE_EQ(buckets[0].at("count").as_number(), 1.0);
    EXPECT_DOUBLE_EQ(buckets[1].at("le").as_number(), 15.0);

    const auto& ser = root.at("series").as_array();
    ASSERT_EQ(ser.size(), 1u);
    EXPECT_EQ(ser[0].at("name").as_string(), "level");
    const auto& samples = ser[0].at("samples").as_array();
    ASSERT_EQ(samples.size(), 3u);
    EXPECT_DOUBLE_EQ(samples[1].as_array()[0].as_number(), 5e6);
    EXPECT_DOUBLE_EQ(samples[1].as_array()[1].as_number(), 2.0);
    EXPECT_DOUBLE_EQ(samples[2].as_array()[0].as_number(), 1234567891.5);
    EXPECT_DOUBLE_EQ(samples[2].as_array()[1].as_number(), 987654321.25);
}

TEST(ChromeCounters, EmitsCounterEventsUnderMetricsPid) {
    sampled_series series;
    series.info.name = "syclite_queue_inflight_kernels";
    series.info.kind = instrument_kind::gauge;
    series.samples = {{1000.0, 1.0}, {2000.0, 3.0}};

    std::ostringstream out;
    bool first = true;
    write_chrome_counter_events({series}, out, first);
    EXPECT_FALSE(first);  // events were written; comma protocol advanced

    // The emitted fragment is a valid slice of a traceEvents array.
    const mini_json::value events = mini_json::parse("[" + out.str() + "]");
    const auto& arr = events.as_array();
    ASSERT_EQ(arr.size(), 3u);  // process_name metadata + 2 samples
    EXPECT_EQ(arr[0].at("ph").as_string(), "M");
    EXPECT_EQ(arr[0].at("name").as_string(), "process_name");
    EXPECT_DOUBLE_EQ(arr[0].at("pid").as_number(), 2.0);
    EXPECT_EQ(arr[1].at("ph").as_string(), "C");
    EXPECT_EQ(arr[1].at("name").as_string(),
              "syclite_queue_inflight_kernels");
    EXPECT_DOUBLE_EQ(arr[1].at("ts").as_number(), 1.0);  // ns -> us
    EXPECT_DOUBLE_EQ(arr[1].at("args").at("value").as_number(), 1.0);
    EXPECT_DOUBLE_EQ(arr[2].at("args").at("value").as_number(), 3.0);
}

TEST(ChromeCounters, EmptySeriesWritesNothing) {
    std::ostringstream out;
    bool first = true;
    write_chrome_counter_events({}, out, first);
    EXPECT_TRUE(first);
    EXPECT_TRUE(out.str().empty());
}

}  // namespace
}  // namespace altis::metrics
