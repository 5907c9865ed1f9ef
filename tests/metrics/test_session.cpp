// Session lifecycle: the collection switch, single-active-session rule,
// catalog reset at start, sampler series, env-tunable sample rate, and the
// end-to-end path from an instrumented syclite workload into a snapshot.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "metrics/export.hpp"
#include "metrics/instruments.hpp"
#include "metrics/session.hpp"
#include "sycl/syclite.hpp"

namespace altis::metrics {
namespace {

session::config no_sampler() {
    session::config cfg;
    cfg.sample_hz = 0.0;
    return cfg;
}

const metric_value* find_metric(const snapshot& snap, const char* name) {
    for (const metric_value& m : snap.metrics)
        if (m.info.name == name) return &m;
    return nullptr;
}

std::int64_t metric_or_zero(const snapshot& snap, const char* name) {
    const metric_value* m = find_metric(snap, name);
    return m != nullptr ? m->value : 0;
}

TEST(Session, TogglesCollectingAndFreezesDuration) {
    EXPECT_FALSE(collecting());
    session s("lifecycle", no_sampler());
    EXPECT_TRUE(collecting());
    EXPECT_EQ(session::current(), &s);
    EXPECT_EQ(s.name(), "lifecycle");

    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    s.stop();
    EXPECT_FALSE(collecting());

    const double frozen = s.take_snapshot().duration_ns;
    EXPECT_GT(frozen, 0.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_EQ(s.take_snapshot().duration_ns, frozen);
    s.stop();  // idempotent
    EXPECT_EQ(s.take_snapshot().duration_ns, frozen);
}

TEST(Session, SecondConcurrentSessionThrows) {
    session s("outer", no_sampler());
    EXPECT_THROW(session("inner", no_sampler()), std::logic_error);
    // The failed construction must not have clobbered the active session.
    EXPECT_EQ(session::current(), &s);
    EXPECT_TRUE(collecting());
}

TEST(Session, StartResetsRegisteredInstruments) {
    counter& waits = instruments::queue_waits();
    waits.add(5);
    const std::uint64_t epoch_before = collection_epoch();

    session s("reset", no_sampler());
    EXPECT_EQ(waits.value(), 0u);
    EXPECT_EQ(metric_or_zero(s.take_snapshot(), "syclite_queue_waits_total"),
              0);
    EXPECT_GT(collection_epoch(), epoch_before);
}

// The catalog is exported whole: a session in which nothing ran still lists
// every instrument, at 0, so a scrape can tell "none" from "not
// instrumented". The two altis::mem level gauges are re-seeded at session
// start from pool caches that outlive it, so they only need to be present.
TEST(Session, FreshSessionExportsTheWholeCatalogAtZero) {
    session s("fresh", no_sampler());
    s.stop();
    const snapshot snap = s.take_snapshot();
    std::ostringstream prom;
    write_prometheus(snap, prom);
    const std::string text = prom.str();

    ASSERT_EQ(snap.metrics.size(), catalog().size());
    for (const instrument_info& info : catalog()) {
        const std::string& name = info.name;
        const bool reseeded = name == "altis_mem_magazine_blocks" ||
                              name == "altis_mem_reuse_cache_bytes";
        const metric_value* m = find_metric(snap, name.c_str());
        ASSERT_NE(m, nullptr) << name;
        EXPECT_TRUE(reseeded || m->value == 0) << name;
        EXPECT_NE(text.find("# TYPE " + name + ' '), std::string::npos)
            << name;
        const std::string sample = info.kind == instrument_kind::histogram
                                       ? name + "_count "
                                       : name + ' ';
        const std::size_t at = text.find('\n' + sample);
        ASSERT_NE(at, std::string::npos) << name;
        EXPECT_TRUE(reseeded ||
                    text.compare(at + 1 + sample.size(), 2, "0\n") == 0)
            << name;
    }
}

TEST(Session, InstrumentedWorkloadLandsInSnapshot) {
    session s("workload", no_sampler());

    {
        syclite::queue q("xeon_6128");
        syclite::buffer<float> b(1024);
        perf::kernel_stats k;
        k.name = "metrics_workload";
        for (int pass = 0; pass < 3; ++pass) {
            q.submit([&](syclite::handler& h) {
                auto acc = h.get_access(b, syclite::access_mode::read_write);
                h.parallel_for(
                    syclite::nd_range<1>(syclite::range<1>(1024),
                                         syclite::range<1>(64)),
                    k, [=](syclite::nd_item<1> it) {
                        acc[it.get_global_id(0)] += 1.0f;
                    });
            });
        }
        q.wait();
    }

    s.stop();
    const snapshot snap = s.take_snapshot();

    EXPECT_EQ(metric_or_zero(snap, "syclite_queue_submissions_total"), 3);
    EXPECT_GE(metric_or_zero(snap, "syclite_queue_waits_total"), 1);
    EXPECT_GE(metric_or_zero(snap, "syclite_pool_jobs_total"), 3);
    EXPECT_GE(metric_or_zero(snap, "syclite_pool_chunks_total"), 3);
    EXPECT_GT(metric_or_zero(snap, "syclite_pool_worker_busy_ns"), 0);
    EXPECT_GE(metric_or_zero(snap, "syclite_buffer_allocs_total"), 1);
    EXPECT_GE(metric_or_zero(snap, "syclite_buffer_peak_bytes"),
              static_cast<std::int64_t>(1024 * sizeof(float)));
    // Every buffer allocated inside the session was also destroyed inside
    // it, so the live-bytes level must balance back to zero.
    EXPECT_EQ(metric_or_zero(snap, "syclite_buffer_live_bytes"), 0);

    // One latency observation per submission.
    const metric_value* lat =
        find_metric(snap, "syclite_queue_submit_latency_ns");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->hist.count, 3u);

    // In-flight kernels must have returned to zero after wait().
    EXPECT_EQ(metric_or_zero(snap, "syclite_queue_inflight_kernels"), 0);
}

TEST(Session, PipeOccupancyWatermarkNeverExceedsCapacity) {
    session s("pipes", no_sampler());

    constexpr std::size_t kCapacity = 8;
    constexpr std::size_t kItems = 4096;
    {
        syclite::pipe<int> p(kCapacity, "hwm_pipe");
        std::thread producer([&] {
            int batch[32];
            std::size_t sent = 0;
            while (sent < kItems) {
                const std::size_t take = std::min<std::size_t>(32, kItems - sent);
                for (std::size_t i = 0; i < take; ++i)
                    batch[i] = static_cast<int>(sent + i);
                p.write_burst(batch, take);
                sent += take;
            }
        });
        int batch[32];
        long sum = 0;
        std::size_t got = 0;
        while (got < kItems) {
            const std::size_t take = std::min<std::size_t>(32, kItems - got);
            p.read_burst(batch, take);
            for (std::size_t i = 0; i < take; ++i) sum += batch[i];
            got += take;
        }
        producer.join();
        EXPECT_EQ(sum, static_cast<long>(kItems * (kItems - 1) / 2));
    }

    s.stop();
    const snapshot snap = s.take_snapshot();
    const std::int64_t hwm =
        metric_or_zero(snap, "syclite_pipe_occupancy_hwm");
    EXPECT_GT(hwm, 0);
    EXPECT_LE(hwm, static_cast<std::int64_t>(kCapacity));
    EXPECT_EQ(metric_or_zero(snap, "syclite_pipe_items_total"),
              static_cast<std::int64_t>(kItems));
}

TEST(Session, SamplerProducesMonotoneSeries) {
    session::config cfg;
    cfg.sample_hz = 2000.0;
    session s("sampler", cfg);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    s.stop();

    ASSERT_FALSE(s.series().empty());
    const double duration = s.take_snapshot().duration_ns;
    for (const sampled_series& series : s.series()) {
        ASSERT_FALSE(series.samples.empty());
        double prev = -1.0;
        for (const auto& [t, v] : series.samples) {
            EXPECT_GE(t, prev);
            EXPECT_LE(t, duration);
            prev = t;
        }
    }
}

TEST(Session, SamplerDisabledStillTakesFinalSample) {
    session s("nosampler", no_sampler());
    s.stop();
    // stop() takes one closing sample even with the thread disabled, so the
    // series always reflects the end state.
    EXPECT_FALSE(s.series().empty());
}

TEST(SessionConfig, SampleHzFromEnvironment) {
    ASSERT_EQ(setenv("ALTIS_METRICS_HZ", "7.5", 1), 0);
    EXPECT_DOUBLE_EQ(session::config::from_env().sample_hz, 7.5);

    ASSERT_EQ(setenv("ALTIS_METRICS_HZ", "0", 1), 0);
    EXPECT_DOUBLE_EQ(session::config::from_env().sample_hz, 0.0);

    // Unparseable values fall back to the default.
    ASSERT_EQ(setenv("ALTIS_METRICS_HZ", "fast", 1), 0);
    EXPECT_DOUBLE_EQ(session::config::from_env().sample_hz, 100.0);

    ASSERT_EQ(unsetenv("ALTIS_METRICS_HZ"), 0);
    EXPECT_DOUBLE_EQ(session::config::from_env().sample_hz, 100.0);
}

}  // namespace
}  // namespace altis::metrics
