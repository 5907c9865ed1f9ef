// Exporters and CLI wiring: the Chrome trace-event JSON must survive a
// round trip through a strict parser, the profile's aggregate math must
// reproduce the session's counters, and the --trace/--profile/$ALTIS_TRACE
// plumbing must behave like every harness binary expects.
#include "trace/chrome_export.hpp"
#include "trace/options.hpp"
#include "trace/profile.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "sycl/syclite.hpp"
#include "support/mini_json.hpp"

namespace altis::trace {
namespace {

perf::kernel_stats named_stats(const char* name) {
    perf::kernel_stats k;
    k.name = name;
    k.fp32_ops = 4.0;
    k.bytes_read = 8.0;
    k.bytes_written = 4.0;
    return k;
}

void submit_kernel(syclite::queue& q, syclite::buffer<int>& b,
                   const perf::kernel_stats& k) {
    q.submit([&](syclite::handler& h) {
        auto acc = h.get_access(b, syclite::access_mode::discard_write);
        h.parallel_for(
            syclite::nd_range<1>(syclite::range<1>(b.size()),
                                 syclite::range<1>(64)),
            k, [=](syclite::nd_item<1> it) { acc[it.get_global_id(0)] = 1; });
    });
}

/// A sequential + dataflow session exercising every span kind.
session make_session(double* queue_kernel_ns = nullptr) {
    session s("roundtrip");
    session::scope scope(s);
    syclite::queue q("stratix_10");
    q.charge_setup();
    syclite::buffer<int> b(256);
    std::vector<int> host(256, 0);
    q.copy_to_device(b, host.data());
    submit_kernel(q, b, named_stats("seq_kernel"));
    submit_kernel(q, b, named_stats("seq_kernel"));
    syclite::pipe<int> p(8);
    q.begin_dataflow();
    q.submit([&](syclite::handler& h) {
        perf::kernel_stats k = named_stats("producer");
        k.writes_pipe = true;
        h.single_task(k, [&p]() {
            for (int i = 0; i < 32; ++i) p.write(i);
        });
    });
    q.submit([&](syclite::handler& h) {
        auto acc = h.get_access(b, syclite::access_mode::discard_write);
        perf::kernel_stats k = named_stats("consumer");
        k.reads_pipe = true;
        h.single_task(k, [&p, acc]() {
            for (int i = 0; i < 32; ++i) acc[i] = p.read();
        });
    });
    q.end_dataflow();
    q.wait();
    if (queue_kernel_ns != nullptr) *queue_kernel_ns = q.kernel_ns();
    return s;
}

TEST(ChromeExport, RoundTripsThroughParser) {
    double queue_kernel_ns = 0.0;
    session s = make_session(&queue_kernel_ns);
    // Late in a long session a timestamp needs ten significant digits.
    s.begin_region("late", 2621437512.0);
    s.end_region(2621437512.0 + 12000.0);
    std::ostringstream out;
    write_chrome_json(s, out);

    const mini_json::value doc = mini_json::parse(out.str());
    EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ns");
    EXPECT_EQ(doc.at("otherData").at("session").as_string(), "roundtrip");
    EXPECT_EQ(doc.at("otherData").at("device").as_string(), "stratix_10");

    double kernel_us = 0.0;       // track-0 kernels + dataflow envelopes
    double dataflow_start = -1.0;
    int dataflow_lanes = 0;
    bool saw_seq_kernel = false, saw_late = false;
    for (const auto& ev : doc.at("traceEvents").as_array()) {
        if (ev.at("ph").as_string() == "M") continue;  // thread_name labels
        EXPECT_EQ(ev.at("ph").as_string(), "X");
        EXPECT_GE(ev.at("dur").as_number(), 0.0);
        const std::string cat = ev.at("cat").as_string();
        if (ev.at("name").as_string() == "late") {
            saw_late = true;
            EXPECT_EQ(ev.at("ts").as_number(), 2621437.512);
            EXPECT_EQ(ev.at("dur").as_number(), 12.0);
        }
        const double tid = ev.at("tid").as_number();
        if (cat == "kernel" && tid == 1.0) {
            kernel_us += ev.at("dur").as_number();
            if (ev.at("name").as_string() == "seq_kernel") {
                saw_seq_kernel = true;
                EXPECT_GT(ev.at("args").at("modeled_bytes").as_number(), 0.0);
                EXPECT_GT(ev.at("args").at("modeled_gbs").as_number(), 0.0);
            }
        }
        if (cat == "dataflow_group") kernel_us += ev.at("dur").as_number();
        if (cat == "kernel" && tid > 1.0) {
            ++dataflow_lanes;
            if (dataflow_start < 0.0) dataflow_start = ev.at("ts").as_number();
            EXPECT_DOUBLE_EQ(ev.at("ts").as_number(), dataflow_start);
        }
    }
    EXPECT_TRUE(saw_seq_kernel);
    EXPECT_TRUE(saw_late);
    // Fig. 3 shape: the two pipe kernels render on distinct parallel lanes.
    EXPECT_EQ(dataflow_lanes, 2);
    // Named kernel spans (+ group envelopes) sum to the queue's counter; each
    // value round-trips exactly, so only the ns->us->ns rescaling rounds.
    EXPECT_NEAR(kernel_us * 1e3, queue_kernel_ns,
                queue_kernel_ns * 1e-12 + 1e-9);
}

TEST(ChromeExport, EscapesHostileNames) {
    session s("quote\" back\\slash\nnewline\ttab\x01ctl");
    s.begin_region("region \"r\" \\ one", 0.0);
    perf::kernel_stats k = named_stats("kernel\\with\"specials\"");
    s.record_kernel(k, 0.0, 10.0);
    s.end_region(10.0);
    std::ostringstream out;
    write_chrome_json(s, out);
    const mini_json::value doc = mini_json::parse(out.str());
    EXPECT_EQ(doc.at("otherData").at("session").as_string(),
              "quote\" back\\slash\nnewline\ttab\x01ctl");
    bool saw_kernel = false, saw_region = false;
    for (const auto& ev : doc.at("traceEvents").as_array()) {
        if (ev.at("ph").as_string() != "X") continue;
        const std::string name = ev.at("name").as_string();
        if (name == "kernel\\with\"specials\"") saw_kernel = true;
        if (name == "region \"r\" \\ one") saw_region = true;
    }
    EXPECT_TRUE(saw_kernel);
    EXPECT_TRUE(saw_region);
}

TEST(Profile, AggregateMathMatchesSession) {
    session s("agg");
    session::scope scope(s);
    syclite::queue q("rtx_2080");
    syclite::buffer<int> b(256);
    submit_kernel(q, b, named_stats("alpha"));
    submit_kernel(q, b, named_stats("alpha"));
    submit_kernel(q, b, named_stats("beta"));
    q.wait();

    const profile_report p = build_profile(s);
    EXPECT_EQ(p.device, "rtx_2080");
    ASSERT_EQ(p.kernels.size(), 2u);
    double sum_ns = 0.0, sum_pct = 0.0;
    for (const auto& k : p.kernels) {
        sum_ns += k.total_ns;
        sum_pct += k.pct_of_kernel;
        EXPECT_NEAR(k.mean_ns, k.total_ns / k.invocations, 1e-9);
        EXPECT_FALSE(k.in_dataflow);
    }
    // Sum of per-kernel time reproduces the session's kernel counter
    // exactly when nothing overlaps.
    EXPECT_NEAR(sum_ns, s.kernel_ns(), 1e-9);
    EXPECT_NEAR(sum_ns, q.kernel_ns(), 1e-9);
    EXPECT_NEAR(p.kernel_span_ns, p.kernel_ns, 1e-9);
    EXPECT_NEAR(sum_pct, 1.0, 1e-9);
    // Sorted by total time: "alpha" ran twice with identical stats.
    EXPECT_EQ(p.kernels[0].name, "alpha");
    EXPECT_DOUBLE_EQ(p.kernels[0].invocations, 2.0);
    EXPECT_NEAR(p.kernels[0].total_ns, 2.0 * p.kernels[1].total_ns, 1e-9);
}

TEST(Profile, DataflowOverlapIsReportedNotDoubleCounted) {
    double queue_kernel_ns = 0.0;
    const session s = make_session(&queue_kernel_ns);
    const profile_report p = build_profile(s);
    EXPECT_NEAR(p.kernel_ns, queue_kernel_ns, 1e-9);
    // Lane spans overlap, so their sum exceeds the wall-clock counter.
    EXPECT_GT(p.kernel_span_ns, p.kernel_ns);
    for (const auto& k : p.kernels) {
        if (k.name == "producer" || k.name == "consumer") {
            EXPECT_TRUE(k.in_dataflow);
        }
        if (k.name == "seq_kernel") {
            EXPECT_FALSE(k.in_dataflow);
        }
    }
}

TEST(Profile, RooflineClassification) {
    session s("walls");
    s.bind_device(perf::device_by_name("rtx_2080"));
    const profile_report walls = build_profile(s);
    ASSERT_GT(walls.peak_gflops, 0.0);
    ASSERT_GT(walls.peak_gbs, 0.0);

    auto synth = [&](const char* name, double flops, double bytes) {
        span sp;
        sp.kind = span_kind::kernel;
        sp.name = name;
        sp.start_ns = s.last_end_ns();
        sp.end_ns = sp.start_ns + 100.0;
        sp.counters.flops = flops;
        sp.counters.bytes = bytes;
        s.record(sp);
    };
    // Over 100 ns: flops -> GFLOP/s = flops/100, bytes -> GB/s = bytes/100.
    synth("hot_alu", walls.peak_gflops * 90.0, walls.peak_gbs * 1.0);
    synth("streamer", walls.peak_gflops * 1.0, walls.peak_gbs * 90.0);
    synth("tiny", walls.peak_gflops * 0.1, walls.peak_gbs * 0.1);

    const profile_report p = build_profile(s);
    ASSERT_EQ(p.kernels.size(), 3u);
    for (const auto& k : p.kernels) {
        if (k.name == "hot_alu") {
            EXPECT_EQ(k.bound, bound_by::compute);
            EXPECT_NEAR(k.compute_utilization, 0.9, 1e-9);
        } else if (k.name == "streamer") {
            EXPECT_EQ(k.bound, bound_by::bandwidth);
            EXPECT_NEAR(k.memory_utilization, 0.9, 1e-9);
        } else {
            EXPECT_EQ(k.bound, bound_by::latency);
        }
    }
    // Without a device there are no walls to classify against.
    session bare("no-device");
    perf::kernel_stats k = named_stats("k");
    bare.record_kernel(k, 0.0, 10.0);
    const profile_report q = build_profile(bare);
    ASSERT_EQ(q.kernels.size(), 1u);
    EXPECT_EQ(q.kernels[0].bound, bound_by::unknown);
}

TEST(Profile, JsonExportRoundTrips) {
    session s = make_session();
    s.record_kernel(named_stats("odd\rname\x01"), s.last_end_ns(),
                    s.last_end_ns() + 10.0);
    const profile_report p = build_profile(s);
    std::ostringstream out;
    write_profile_json(p, out);
    const mini_json::value doc = mini_json::parse(out.str());
    EXPECT_EQ(doc.at("session").as_string(), "roundtrip");
    EXPECT_EQ(doc.at("device").as_string(), "stratix_10");
    double sum_ns = 0.0;
    bool saw_odd = false;
    for (const auto& k : doc.at("kernels").as_array()) {
        sum_ns += k.at("total_ns").as_number();
        saw_odd |= k.at("name").as_string() == "odd\rname\x01";
        EXPECT_TRUE(k.has("bound_by"));
        EXPECT_TRUE(k.has("gbs"));
        EXPECT_TRUE(k.has("gflops"));
    }
    EXPECT_TRUE(saw_odd);
    EXPECT_NEAR(sum_ns, doc.at("kernel_span_ns").as_number(),
                doc.at("kernel_span_ns").as_number() * 1e-4);
}

TEST(Profile, TableRendersKernelsAndOverlapNote) {
    const session s = make_session();
    const profile_report p = build_profile(s);
    std::ostringstream out;
    render_profile(p, out);
    const std::string text = out.str();
    EXPECT_NE(text.find("seq_kernel"), std::string::npos);
    EXPECT_NE(text.find("GB/s"), std::string::npos);
    EXPECT_NE(text.find("Bound by"), std::string::npos);
    EXPECT_NE(text.find("(dataflow)"), std::string::npos);
    EXPECT_NE(text.find("dataflow overlap"), std::string::npos);
}

TEST(TraceOptions, FlagsParseAndEnvProvidesDefault) {
    {
        OptionParser opts;
        add_trace_options(opts);
        const char* argv[] = {"bin", "--trace", "/tmp/t.json", "--profile"};
        std::ostringstream out;
        ASSERT_TRUE(opts.parse(4, argv, out));
        const options o = options::from(opts);
        EXPECT_EQ(o.trace_path, "/tmp/t.json");
        EXPECT_TRUE(o.profile);
        EXPECT_TRUE(o.enabled());
    }
    {
        ::setenv("ALTIS_TRACE", "/tmp/env.json", 1);
        OptionParser opts;
        add_trace_options(opts);
        const char* argv[] = {"bin"};
        std::ostringstream out;
        ASSERT_TRUE(opts.parse(1, argv, out));
        ::unsetenv("ALTIS_TRACE");
        const options o = options::from(opts);
        EXPECT_EQ(o.trace_path, "/tmp/env.json");
        EXPECT_FALSE(o.profile);
        EXPECT_TRUE(o.enabled());  // env alone turns tracing on
    }
    {
        OptionParser opts;
        add_trace_options(opts);
        const char* argv[] = {"bin"};
        std::ostringstream out;
        ASSERT_TRUE(opts.parse(1, argv, out));
        EXPECT_FALSE(options::from(opts).enabled());
    }
}

TEST(TraceOptions, FinishSessionWritesParseableArtifacts) {
    session s = make_session();
    s.begin_region("left open", 0.0);  // finish_session must close it

    options o;
    o.trace_path = "finish_session_test.json";
    o.profile = true;
    std::ostringstream out, err;
    ASSERT_TRUE(finish_session(s, o, s.last_end_ns(), out, err));
    EXPECT_EQ(s.open_regions(), 0);
    EXPECT_EQ(err.str(), "");
    EXPECT_NE(out.str().find("Per-kernel profile"), std::string::npos);

    auto slurp = [](const std::string& path) {
        std::ifstream f(path);
        EXPECT_TRUE(f.good()) << path;
        std::ostringstream ss;
        ss << f.rdbuf();
        return ss.str();
    };
    EXPECT_NO_THROW((void)mini_json::parse(slurp(o.trace_path)));
    EXPECT_NO_THROW(
        (void)mini_json::parse(slurp(o.trace_path + ".profile.json")));
    std::remove(o.trace_path.c_str());
    std::remove((o.trace_path + ".profile.json").c_str());
}

TEST(TraceOptions, FinishSessionReportsUnwritablePath) {
    session s("t");
    options o;
    o.trace_path = "/nonexistent-dir/trace.json";
    std::ostringstream out, err;
    EXPECT_FALSE(finish_session(s, o, 0.0, out, err));
    EXPECT_NE(err.str().find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace altis::trace
