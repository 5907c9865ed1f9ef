#include "metrics/session.hpp"

#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "metrics/alloc_ledger.hpp"
#include "metrics/instruments.hpp"

namespace altis::metrics {

session::config session::config::from_env() {
    config c;
    if (const char* env = std::getenv("ALTIS_METRICS_HZ")) {
        char* end = nullptr;
        const double hz = std::strtod(env, &end);
        if (end != env && *end == '\0') c.sample_hz = hz;
    }
    return c;
}

session* session::current() {
    return static_cast<session*>(stream::installed(stream::slot::metrics));
}

session::session(std::string name, config cfg)
    : stream::subscriber(stream::bit(stream::kind::wait) |
                         stream::bit(stream::kind::group_end) |
                         stream::bit(stream::kind::error) |
                         stream::bit(stream::kind::epoch) |
                         stream::bit(stream::kind::usm_alloc) |
                         stream::bit(stream::kind::usm_free)),
      name_(std::move(name)),
      cfg_(cfg) {
    if (current() != nullptr)
        throw std::logic_error(
            "metrics::session: a session is already active");
    (void)stream::install(stream::slot::metrics, this);
    // Each session reports its own interval; instruments registered by
    // earlier runs keep their identity but restart from zero.
    registry::instance().reset_all();
    start_ = std::chrono::steady_clock::now();
    detail::g_enabled.store(true, std::memory_order_relaxed);
    if (cfg_.sample_hz > 0.0)
        sampler_ = std::thread([this] { sampler_loop(); });
}

session::~session() {
    stop();
    (void)stream::install(stream::slot::metrics, nullptr);
}

void session::on_event(const stream::event& e) {
    if (e.simulated || !collecting()) return;
    namespace mi = instruments;
    switch (e.what) {
        case stream::kind::wait: mi::queue_waits().add(); break;
        case stream::kind::group_end: mi::queue_dataflow_groups().add(); break;
        case stream::kind::error: mi::queue_async_errors().add(); break;
        case stream::kind::epoch: {
            // > 100%: the epoch packed more modeled device time than wall
            // span, i.e. kernels/transfers actually overlapped.
            const double elapsed = e.t1 - e.t0;
            if (e.busy_ns > 0.0 && elapsed > 0.0)
                mi::sched_overlap_pct().record(100.0 * e.busy_ns / elapsed);
            break;
        }
        case stream::kind::usm_alloc: {
            const auto bytes = static_cast<std::uint64_t>(e.bytes);
            alloc_ledger::instance().on_alloc(e.base, bytes);
            mi::usm_allocs().add();
            mi::usm_live_bytes().add(static_cast<std::int64_t>(bytes));
            const std::int64_t live = mi::usm_live_bytes().value();
            if (live > 0)
                mi::usm_peak_bytes().record(static_cast<std::uint64_t>(live));
            break;
        }
        case stream::kind::usm_free: {
            mi::usm_frees().add();
            // The ledger only knows allocations metered by the *current*
            // session, so a block allocated before the session started
            // frees as 0 bytes instead of driving the gauge negative.
            const std::uint64_t bytes = alloc_ledger::instance().on_free(e.base);
            if (bytes > 0)
                mi::usm_live_bytes().sub(static_cast<std::int64_t>(bytes));
            break;
        }
        default: break;
    }
}

double session::now_ns() const {
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
}

void session::stop() {
    if (stopped_) return;
    stopped_ = true;
    detail::g_enabled.store(false, std::memory_order_relaxed);
    if (sampler_.joinable()) {
        {
            std::lock_guard lock(sampler_mutex_);
            sampler_stop_ = true;
        }
        sampler_cv_.notify_all();
        sampler_.join();
    }
    // One final sample so even a run shorter than the period yields a
    // non-empty series with the end-state levels.
    take_sample();
    stopped_duration_ns_ = now_ns();
}

void session::sampler_loop() {
    const auto period = std::chrono::duration_cast<
        std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(1.0 / cfg_.sample_hz));
    std::unique_lock lock(sampler_mutex_);
    while (!sampler_stop_) {
        sampler_cv_.wait_for(lock, period);
        if (sampler_stop_) break;
        lock.unlock();
        take_sample();
        lock.lock();
    }
}

void session::take_sample() {
    const double t = now_ns();
    for (const instrument_info& info : registry::instance().instruments()) {
        double v = 0.0;
        if (info.kind == instrument_kind::gauge)
            v = static_cast<double>(info.gge->value());
        else if (info.kind == instrument_kind::watermark)
            v = static_cast<double>(info.wmk->value());
        else
            continue;  // counters/histograms are exported as totals
        sampled_series* dst = nullptr;
        for (sampled_series& s : series_)
            if (s.info.ctr == info.ctr && s.info.gge == info.gge &&
                s.info.wmk == info.wmk && s.info.hst == info.hst) {
                dst = &s;
                break;
            }
        if (dst == nullptr) {
            series_.push_back({info, {}});
            dst = &series_.back();
        }
        dst->samples.emplace_back(t, v);
    }
}

snapshot session::take_snapshot() const {
    snapshot out;
    out.session_name = name_;
    out.duration_ns = stopped_ ? stopped_duration_ns_ : now_ns();
    for (const instrument_info& info : registry::instance().instruments()) {
        metric_value mv;
        mv.info = info;
        switch (info.kind) {
            case instrument_kind::counter:
                mv.value = static_cast<std::int64_t>(info.ctr->value());
                break;
            case instrument_kind::gauge:
                mv.value = info.gge->value();
                break;
            case instrument_kind::watermark:
                mv.value = static_cast<std::int64_t>(info.wmk->value());
                break;
            case instrument_kind::histogram:
                mv.hist = info.hst->aggregate();
                mv.value = static_cast<std::int64_t>(mv.hist.count);
                break;
        }
        out.metrics.push_back(std::move(mv));
    }
    return out;
}

}  // namespace altis::metrics
