// Metrics session: the RAII scope that turns collection on, mirroring
// trace::session / analyze::recorder / fault::scope. While a session is
// alive, metrics::collecting() is true and every instrumentation site in the
// runtime feeds the fixed instrument catalog (instruments.hpp); the session
// also owns the background sampler thread that snapshots every gauge and
// watermark into time series (Perfetto counter tracks, JSON "series"
// section).
//
// A session is also the command-stream subscriber (core/command_stream.hpp)
// that keeps the queue-level counters: waits, dataflow groups, async errors,
// graph overlap and USM allocations are metered from the runtime's command
// events rather than by hooks of their own.
//
// Exactly one session may be active at a time (construction throws
// otherwise). stop() freezes the measurement interval -- collection off,
// sampler joined, final sample taken -- after which take_snapshot()/series()
// describe the finished run; the destructor stops implicitly.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/command_stream.hpp"
#include "metrics/instruments.hpp"

namespace altis::metrics {

/// One instrument's aggregated value at snapshot time. `value` carries
/// counters (cast from unsigned), gauges (signed) and watermarks; `hist` is
/// populated for histograms only.
struct metric_value {
    instrument_info info;
    std::int64_t value = 0;
    histogram::snapshot hist;
};

struct snapshot {
    std::string session_name;
    double duration_ns = 0.0;  ///< wall-clock span of the session so far
    std::vector<metric_value> metrics;
};

/// Time series of one sampled instrument: (t_ns since session start, value).
struct sampled_series {
    instrument_info info;
    std::vector<std::pair<double, double>> samples;
};

class session : public stream::subscriber {
public:
    struct config {
        /// Sampler frequency; <= 0 disables the sampler thread (snapshots
        /// still work). $ALTIS_METRICS_HZ overrides via from_env().
        double sample_hz = 100.0;

        [[nodiscard]] static config from_env();
    };

    explicit session(std::string name = "altis",
                     config cfg = config::from_env());
    ~session() override;

    session(const session&) = delete;
    session& operator=(const session&) = delete;

    /// Ends the measurement interval: turns collection off, joins the
    /// sampler (taking one final sample) and freezes duration_ns.
    /// Idempotent.
    void stop();

    /// Aggregates every catalog instrument. Callable while running (the
    /// totals are monotone) or after stop().
    [[nodiscard]] snapshot take_snapshot() const;

    /// One series per catalog gauge and watermark; stable only after stop().
    [[nodiscard]] const std::vector<sampled_series>& series() const {
        return series_;
    }

    [[nodiscard]] const std::string& name() const { return name_; }
    [[nodiscard]] double sample_hz() const { return cfg_.sample_hz; }

    [[nodiscard]] static session* current();

    /// Meters the queue-level counters from one command event (only while
    /// collecting; the analytic region simulator is not metered).
    void on_event(const stream::event& e) override;

private:
    void sampler_loop();
    void take_sample();
    [[nodiscard]] double now_ns() const;

    std::string name_;
    config cfg_;
    std::chrono::steady_clock::time_point start_;
    double stopped_duration_ns_ = 0.0;
    bool stopped_ = false;

    std::thread sampler_;
    std::mutex sampler_mutex_;
    std::condition_variable sampler_cv_;
    bool sampler_stop_ = false;

    std::vector<sampled_series> series_;
};

}  // namespace altis::metrics
