// End-to-end suite driver for the perfbench harness (see README.md here).
//
// One process runs one workload's configuration list in-process through the
// same public calls altis_run makes: apps::register_all_apps(), then
// AppInfo::run under a trace::session scope and fault::run_guarded, one
// configuration at a time (closed loop, one driver thread). The fig2/4/5
// grid cells go through bench::run_config like the figure regenerators.
//
// It prints one JSON object: per-config outcome + digest of the simulated
// rows, per-list wall/CPU time, peak RSS and, with --traced, the per-layer
// numbers. run.py turns that into the benchmark's metrics and checks the
// digests against the reference recorded in reference/.
//
//   altis_perfbench --workload suite_s2 --seed 3 --seconds 20
//   altis_perfbench --workload paths_s1 --traced --lists 1 --pin-cpu
//   altis_perfbench --workload suite_s2 --golden-only
//   altis_perfbench --setup-only
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analyze/recorder.hpp"
#include "analyze/sanitize.hpp"
#include "apps/cfd/cfd.hpp"
#include "apps/common/app.hpp"
#include "apps/common/suite.hpp"
#include "apps/common/verify.hpp"
#include "apps/dwt2d/dwt2d.hpp"
#include "apps/fdtd2d/fdtd2d.hpp"
#include "apps/kmeans/kmeans.hpp"
#include "apps/lavamd/lavamd.hpp"
#include "apps/mandelbrot/mandelbrot.hpp"
#include "apps/nw/nw.hpp"
#include "apps/particlefilter/particlefilter.hpp"
#include "apps/raytracing/raytracing.hpp"
#include "apps/srad/srad.hpp"
#include "apps/where/where.hpp"
#include "core/registry.hpp"
#include "core/result_database.hpp"
#include "fault/retry.hpp"
#include "mem/pool.hpp"
#include "metrics/options.hpp"
#include "metrics/session.hpp"
#include "sycl/thread_pool.hpp"
#include "trace/options.hpp"

namespace {

using namespace altis;
using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point t0) {
    return std::chrono::duration<double>(clock_type::now() - t0).count();
}

double cpu_seconds() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto tv = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

/// FNV-1a over bytes; the digest of a config's simulated rows.
struct fnv1a {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    void bytes(const void* p, std::size_t n) {
        const auto* b = static_cast<const unsigned char*>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ULL;
        }
    }
    void str(const std::string& s) { bytes(s.data(), s.size() + 1); }
    void num(double v) {
        const auto u = std::bit_cast<std::uint64_t>(v);
        bytes(&u, sizeof u);
    }
    [[nodiscard]] std::string hex() const {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
        return buf;
    }
};

// ---- configuration lists -------------------------------------------------

/// One unit of the closed loop: either an app run through the registry (as
/// altis_run does) or one fig-grid cell through bench::run_config.
struct config {
    std::string app;  ///< registry name; empty for grid cells
    Variant variant = Variant::sycl_opt;
    std::string device = "xeon_6128";
    int size = 1;
    int passes = 1;
    bool ooo = false;
    const bench::SuiteEntry* entry = nullptr;  ///< grid cell when set

    [[nodiscard]] std::string key() const {
        if (entry != nullptr)
            return "grid/" + bench::config_label(*entry, variant, device, size);
        return app + "/" + to_string(variant) + "/" + device + "/size" +
               std::to_string(size) + "/p" + std::to_string(passes) +
               (ooo ? "/ooo" : "");
    }
};

const std::vector<std::string> kApps = {
    "cfd",     "cfd_fp64", "dwt2d",    "fdtd2d",     "kmeans", "lavamd", "mandelbrot",
    "nw",      "pf_naive", "pf_float", "raytracing", "srad",   "where"};

bool implements(const std::string& app, Variant v) {
    const AppInfo* info = Registry::instance().find(app);
    if (info == nullptr) throw std::runtime_error("unknown app " + app);
    return std::find(info->variants.begin(), info->variants.end(), v) !=
           info->variants.end();
}

/// The fig2 (GPU), fig4 (Stratix 10 base/opt) and fig5 (relative speedup)
/// configuration grids, deduplicated, in figure order.
std::vector<config> fig_grid() {
    std::vector<config> out;
    std::set<std::string> seen;
    auto add = [&](const bench::SuiteEntry& e, Variant v, const std::string& dev,
                   int size) {
        config c;
        c.entry = &e;
        c.variant = v;
        c.device = dev;
        c.size = size;
        if (seen.insert(c.key()).second) out.push_back(c);
    };
    for (const auto& e : bench::suite())
        for (int size : {1, 2, 3}) {
            if (e.in_fig2)
                for (Variant v : {Variant::cuda, Variant::sycl_base, Variant::sycl_opt})
                    add(e, v, "rtx_2080", size);
            if (e.in_fig45) {
                add(e, Variant::fpga_base, "stratix_10", size);
                add(e, Variant::fpga_opt, "stratix_10", size);
                add(e, Variant::sycl_opt, "xeon_6128", size);
                for (const auto& dev : bench::fig5_devices())
                    add(e,
                        perf::device_by_name(dev).is_fpga() ? Variant::fpga_opt
                                                            : Variant::sycl_opt,
                        dev, size);
            }
        }
    return out;
}

config app_config(const std::string& app, Variant v, const std::string& dev,
                  int size, int passes, bool ooo = false) {
    config c;
    c.app = app;
    c.variant = v;
    c.device = dev;
    c.size = size;
    c.passes = passes;
    c.ooo = ooo;
    return c;
}

struct workload {
    std::vector<config> configs;
    bool sanitize = false;  ///< one analyze::recorder + trace/metrics exports
    /// Lists a run always measures (the median is reported). Two for the
    /// sanitizer: on a shared 4-core VM its consecutive lists differ by up
    /// to 50 %, and the median of two halves the seed-to-seed spread.
    int min_lists = 1;
};

workload make_workload(const std::string& name) {
    workload w;
    if (name == "suite_s2") {
        // cfd_fp64 is left out: same code path as cfd, and its 14 s would
        // push the traced run past the 180 s a run may take (README.md).
        for (const auto& a : kApps)
            if (a != "cfd_fp64")
                w.configs.push_back(app_config(a, Variant::sycl_opt, "xeon_6128", 2, 1));
    } else if (name == "paths_s1") {
        for (const auto& a : kApps)
            w.configs.push_back(app_config(a, Variant::sycl_opt, "xeon_6128", 1, 3));
        for (const auto& a : kApps)
            if (implements(a, Variant::fpga_opt))
                w.configs.push_back(
                    app_config(a, Variant::fpga_opt, "stratix_10", 1, 3));
        for (const char* a : {"fdtd2d", "cfd"})
            w.configs.push_back(
                app_config(a, Variant::sycl_opt, "xeon_6128", 1, 3, true));
        for (const auto& c : fig_grid()) w.configs.push_back(c);
    } else if (name == "sanitize_s1") {
        w.sanitize = true;
        w.min_lists = 2;
        // cfd alone takes 108 s sanitized. nw's many kernels times the
        // other apps' shadow intervals add ~10 s of ALS-D1 scanning per
        // list and made the list's wall spread 0.24 across seeds; without
        // it two lists fit the sizing budget (README.md).
        for (const auto& a : kApps)
            if (a != "cfd" && a != "cfd_fp64" && a != "nw")
                w.configs.push_back(app_config(a, Variant::sycl_opt, "xeon_6128", 1, 1));
    } else if (name == "selftest") {
        // Small list covering every config kind, for test_perfbench.py.
        for (const char* a : {"dwt2d", "where"})
            w.configs.push_back(app_config(a, Variant::sycl_opt, "xeon_6128", 1, 1));
        w.configs.push_back(app_config("fdtd2d", Variant::sycl_opt, "xeon_6128", 1, 1, true));
        w.configs.push_back(app_config("kmeans", Variant::fpga_opt, "stratix_10", 1, 1));
        const auto grid = fig_grid();
        for (std::size_t i = 0; i < grid.size() && i < 6; ++i) w.configs.push_back(grid[i]);
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return w;
}

// ---- golden-oracle timing ------------------------------------------------

/// Seconds one call of the app's public host reference takes at `size`, with
/// the inputs its run() builds (built outside the timed span).
double golden_seconds(const std::string& app, int size) {
    namespace a = altis::apps;
    auto timed = [](auto&& fn) {
        const auto t0 = clock_type::now();
        fn();
        return seconds_since(t0);
    };
    if (app == "cfd" || app == "cfd_fp64") {
        const auto p = a::cfd::params::preset(size);
        const auto m = a::cfd::make_mesh(p);
        if (app == "cfd") {
            auto v = a::cfd::initial_variables<float>(p);
            return timed([&] { a::cfd::golden(p, m, v); });
        }
        auto v = a::cfd::initial_variables<double>(p);
        return timed([&] { a::cfd::golden(p, m, v); });
    }
    if (app == "dwt2d") {
        const auto p = a::dwt2d::params::preset(size);
        auto img = a::dwt2d::make_image(p);
        return timed([&] { a::dwt2d::golden(p, img); });
    }
    if (app == "fdtd2d") {
        const auto p = a::fdtd2d::params::preset(size);
        auto f = a::fdtd2d::initial_fields(p);
        return timed([&] { a::fdtd2d::golden(p, f); });
    }
    if (app == "kmeans") {
        const auto p = a::kmeans::params::preset(size);
        const auto data = a::kmeans::make_dataset(p);
        return timed([&] { (void)a::kmeans::golden(p, data); });
    }
    if (app == "lavamd") {
        const auto p = a::lavamd::params::preset(size);
        const auto parts = a::lavamd::make_particles(p);
        return timed([&] { (void)a::lavamd::golden(p, parts); });
    }
    if (app == "mandelbrot") {
        const auto p = a::mandelbrot::params::preset(size);
        std::vector<std::uint16_t> iters(p.pixels());
        return timed([&] { a::mandelbrot::golden(p, iters); });
    }
    if (app == "nw") {
        const auto p = a::nw::params::preset(size);
        const auto w = a::nw::make_workload(p);
        return timed([&] { (void)a::nw::golden(p, w); });
    }
    if (app == "pf_naive" || app == "pf_float") {
        namespace pf = a::particlefilter;
        const auto f = app == "pf_naive" ? pf::flavor::naive : pf::flavor::floatopt;
        const auto p = pf::params::preset(size, f);
        const auto video = pf::make_video(p);
        return timed([&] { (void)pf::golden(p, f, video); });
    }
    if (app == "raytracing") {
        // Every non-CUDA variant references the philox stream.
        const auto p = a::raytracing::params::preset(size);
        return timed([&] { (void)a::raytracing::golden(p, a::raytracing::rng_kind::philox); });
    }
    if (app == "srad") {
        const auto p = a::srad::params::preset(size);
        auto img = a::srad::make_image(p);
        return timed([&] { a::srad::golden(p, img); });
    }
    if (app == "where") {
        const auto p = a::where::params::preset(size);
        const auto table = a::where::make_table(p);
        return timed([&] { (void)a::where::golden(p, table); });
    }
    throw std::invalid_argument("no golden oracle for " + app);
}

// ---- per-layer numbers from the metrics snapshot --------------------------

/// Value at quantile q of a log-bucketed histogram (linear inside a bucket).
double hist_quantile(const metrics::histogram::snapshot& h, double q) {
    if (h.count == 0) return 0.0;
    const double target = q * static_cast<double>(h.count);
    double seen = 0.0;
    for (int b = 0; b < metrics::histogram::kBuckets; ++b) {
        const auto n = static_cast<double>(h.buckets[static_cast<std::size_t>(b)]);
        if (n == 0.0) continue;
        if (seen + n >= target) {
            const double lo = b == 0 ? 0.0 : std::ldexp(1.0, b - 1);
            const double hi = b == 0 ? 0.0 : std::ldexp(1.0, b);
            return lo + (hi - lo) * (target - seen) / n;
        }
        seen += n;
    }
    return 0.0;
}

using layer_map = std::map<std::string, double>;

void add_snapshot(const metrics::snapshot& snap, layer_map& L) {
    std::map<std::string, double> v;
    std::map<std::string, metrics::histogram::snapshot> h;
    for (const auto& m : snap.metrics) {
        if (m.info.kind == metrics::instrument_kind::histogram) {
            auto& agg = h[m.info.name];
            for (std::size_t b = 0; b < agg.buckets.size(); ++b)
                agg.buckets[b] += m.hist.buckets[b];
            agg.count += m.hist.count;
            agg.sum += m.hist.sum;
        } else if (m.info.kind == metrics::instrument_kind::watermark) {
            v[m.info.name] = std::max(v[m.info.name], static_cast<double>(m.value));
        } else {
            v[m.info.name] += static_cast<double>(m.value);
        }
    }
    const double busy = v["syclite_pool_worker_busy_ns"] * 1e-9;
    const double idle = v["syclite_pool_worker_idle_ns"] * 1e-9;
    const double hits = v["altis_mem_pool_hits_total"];
    const double misses = v["altis_mem_pool_misses_total"];
    L["sycl.pool_jobs"] += v["syclite_pool_jobs_total"];
    L["sycl.pool_chunks"] += v["syclite_pool_chunks_total"];
    L["sycl.pool_busy_s"] += busy;
    L["sycl.pool_idle_s"] += idle;
    L["sycl.submissions"] += v["syclite_queue_submissions_total"];
    L["sycl.submit_p50_us"] = hist_quantile(h["syclite_queue_submit_latency_ns"], 0.5) * 1e-3;
    L["sycl.submit_p99_us"] = hist_quantile(h["syclite_queue_submit_latency_ns"], 0.99) * 1e-3;
    L["sycl.sched_nodes"] += v["altis_sched_nodes_total"];
    L["sycl.sched_edges"] += v["altis_sched_edges_total"];
    L["sycl.sched_dispatch_p50_us"] =
        hist_quantile(h["altis_sched_dispatch_latency_ns"], 0.5) * 1e-3;
    L["sycl.pipe_items"] += v["syclite_pipe_items_total"];
    L["sycl.pipe_blocked_s"] +=
        (v["syclite_pipe_blocked_write_ns"] + v["syclite_pipe_blocked_read_ns"]) * 1e-9;
    L["sycl.pipe_parks"] += v["syclite_pipe_parks_total"];
    L["sycl.pipe_wakes"] += v["syclite_pipe_wakes_total"];
    L["sycl.dataflow_groups"] += v["syclite_queue_dataflow_groups_total"];
    L["mem.pool_hits"] += hits;
    L["mem.pool_misses"] += misses;
    L["mem.parallel_copy_bytes"] += v["altis_mem_parallel_copy_bytes_total"];
    L["mem.buffer_peak_mb"] = std::max(L["mem.buffer_peak_mb"],
                                       v["syclite_buffer_peak_bytes"] / (1024.0 * 1024.0));
    L["analyze.shadow_intervals"] += v["altis_sanitize_shadow_intervals_total"];
    L["analyze.race_checks"] += v["altis_sanitize_race_checks_total"];
    L["fault.retries"] += v["altis_fault_retries_total"];
    L["fault.failures"] += v["altis_fault_failures_total"];
    const double b = L["sycl.pool_busy_s"], i = L["sycl.pool_idle_s"];
    L["sycl.pool_busy_share"] = b + i > 0.0 ? b / (b + i) : 0.0;
    const double hh = L["mem.pool_hits"], mm = L["mem.pool_misses"];
    L["mem.hit_ratio"] = hh + mm > 0.0 ? hh / (hh + mm) : 0.0;
}

// ---- the closed loop -----------------------------------------------------

struct options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 0.0;  ///< repeat the list until this much wall has passed
    int max_lists = 0;     ///< 0: unbounded (time decides)
    bool traced = false;
    bool plain = false;    ///< sanitize workload without observers
    bool pin_cpu = false;
    bool golden_only = false;  ///< only time the list's golden oracles
    std::string out_dir = ".";
    std::string fail_throw;    ///< self-test hook: this app's run throws
    std::string fail_perturb;  ///< self-test hook: perturb this app's rows
};

struct record {
    std::string key;
    bool ok = false;
    std::string error;
    std::string digest;
    double seconds = 0.0;
};

struct list_result {
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double loop_s = 0.0;  ///< configs only, without sanitize passes/exports
    std::string findings_json;
    std::size_t findings_warn = 0;
};

class runner {
public:
    /// The seed only permutes the order of the configurations; app inputs
    /// stay at their size presets.
    runner(const options& opt, workload w) : opt_(opt), w_(std::move(w)) {
        std::mt19937_64 rng(opt.seed);
        std::shuffle(w_.configs.begin(), w_.configs.end(), rng);
    }

    list_result run_list(std::vector<record>& out, layer_map& L) {
        list_result lr;
        const auto t0 = clock_type::now();
        const double c0 = cpu_seconds();

        // Observers, in altis_run's order: trace session always; metrics
        // and the sanitizer for the sanitize workload (metrics also when
        // traced, for the counter snapshot).
        trace::session tsession("perfbench");
        trace::session::scope tscope(tsession);
        const bool observe = w_.sanitize && !opt_.plain;
        std::optional<metrics::session> msession;
        if (observe)
            msession.emplace("perfbench");
        else if (opt_.traced)
            msession.emplace("perfbench", metrics::session::config{0.0});
        std::optional<analyze::recorder> rec;
        std::optional<analyze::recorder::scope> rscope;
        if (observe) {
            rec.emplace(analyze::level::warn);
            rscope.emplace(*rec);
        }

        for (const config& c : w_.configs) {
            // Each config starts with the pool's large-object reuse cache and
            // the malloc heap trimmed, as in a fresh altis_run: otherwise
            // peak RSS depends on which config the seed happened to put
            // before the largest one.
            mem::trim();
            malloc_trim(0);
            out.push_back(run_one(c, tsession, L));
        }
        lr.loop_s = seconds_since(t0);

        std::ostringstream sink;
        if (observe) {
            rscope.reset();
            const auto p0 = clock_type::now();
            const analyze::report r = analyze::run_all(*rec);
            L["analyze.passes_s"] += seconds_since(p0);
            std::ostringstream js;
            r.render_json(js);
            lr.findings_json = js.str();
            lr.findings_warn = r.count_at_least(analyze::severity::warning);
        }
        if (msession) {
            msession->stop();
            if (opt_.traced) add_snapshot(msession->take_snapshot(), L);
        }
        L["trace.spans"] += static_cast<double>(tsession.spans().size());
        if (observe) {
            trace::options topts;
            topts.trace_path = opt_.out_dir + "/trace.json";
            const auto e0 = clock_type::now();
            if (!trace::finish_session(tsession, topts, tsession.last_end_ns(),
                                       sink, std::cerr, &*msession))
                throw std::runtime_error("trace export failed");
            L["trace.export_s"] += seconds_since(e0);
            metrics::options mopts;
            mopts.json_path = opt_.out_dir + "/metrics.json";
            const auto e1 = clock_type::now();
            if (!metrics::finish_metrics(*msession, mopts, sink, std::cerr))
                throw std::runtime_error("metrics export failed");
            L["metrics.export_s"] += seconds_since(e1);
        }
        lr.wall_s = seconds_since(t0);
        lr.cpu_s = cpu_seconds() - c0;
        return lr;
    }

    [[nodiscard]] int min_lists() const { return w_.min_lists; }

    /// Golden-oracle seconds of the list: one timed call per (app, size),
    /// charged once per pass, as every run() recomputes it per pass.
    [[nodiscard]] double golden_s() const {
        std::map<std::pair<std::string, int>, double> once;
        double total = 0.0;
        for (const config& c : w_.configs) {
            if (c.entry != nullptr) continue;
            auto [it, fresh] = once.try_emplace({c.app, c.size}, 0.0);
            if (fresh) it->second = golden_seconds(c.app, c.size);
            total += it->second * c.passes;
        }
        return total;
    }

private:
    record run_one(const config& c, trace::session& tsession, layer_map& L) {
        record r;
        r.key = c.key();
        fnv1a d;
        const auto t0 = clock_type::now();
        const fault::retry_policy policy;
        if (c.entry != nullptr) {
            const bench::ConfigOutcome co =
                bench::run_config(*c.entry, c.variant, c.device, c.size, policy);
            r.seconds = seconds_since(t0);
            r.ok = co.oc.succeeded() || co.skipped;
            r.error = co.oc.error;
            d.str(co.oc.label());
            if (co.ms) d.num(*co.ms);
            L["perf.simulate_s"] += r.seconds;
            if (co.ms) L["perf.regions"] += 1.0;
        } else {
            const AppInfo* app = Registry::instance().find(c.app);
            RunConfig cfg;
            cfg.size = c.size;
            cfg.device = c.device;
            cfg.variant = c.variant;
            cfg.passes = c.passes;
            ResultDatabase db;
            if (c.ooo) setenv("ALTIS_OOO", "1", 1);
            tsession.begin_region(r.key, tsession.last_end_ns());
            const fault::outcome oc = fault::run_guarded(
                [&] {
                    db.clear();
                    if (c.app == opt_.fail_throw)
                        throw apps::verification_error(c.app + ": injected wrong result");
                    app->run(cfg, db);
                },
                policy);
            tsession.end_region(tsession.last_end_ns());
            if (c.ooo) unsetenv("ALTIS_OOO");
            r.seconds = seconds_since(t0);
            r.ok = oc.succeeded();
            r.error = oc.error;
            bool perturb = c.app == opt_.fail_perturb;
            for (const Result& res : db.results()) {
                d.str(res.test);
                for (double v : res.values) {
                    if (perturb) {
                        v = std::nextafter(v, 1e300);
                        perturb = false;
                    }
                    d.num(v);
                }
            }
            L["apps.run_s." + c.app] += r.seconds;
        }
        r.digest = d.hex();
        return r;
    }

    const options& opt_;
    workload w_;
};

options parse(int argc, char** argv, bool& setup_only) {
    options o;
    setup_only = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
            return argv[++i];
        };
        if (a == "--workload") o.workload = value();
        else if (a == "--seed") o.seed = std::stoull(value());
        else if (a == "--seconds") o.seconds = std::stod(value());
        else if (a == "--lists") o.max_lists = std::stoi(value());
        else if (a == "--out-dir") o.out_dir = value();
        else if (a == "--fail-throw") o.fail_throw = value();
        else if (a == "--fail-perturb") o.fail_perturb = value();
        else if (a == "--traced") o.traced = true;
        else if (a == "--plain") o.plain = true;
        else if (a == "--pin-cpu") o.pin_cpu = true;
        else if (a == "--golden-only") o.golden_only = true;
        else if (a == "--setup-only") setup_only = true;
        else throw std::invalid_argument("unknown option " + a);
    }
    if (!setup_only && o.workload.empty())
        throw std::invalid_argument("--workload is required");
    return o;
}

/// Restricts the whole process to the lowest CPU it may run on. Called
/// before any thread exists, so the pool workers inherit the mask; the
/// pool still sizes itself from hardware_concurrency() (same thread count).
int pin_to_one_cpu() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return -1;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
        if (CPU_ISSET(cpu, &set)) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpu, &one);
            return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
        }
    return -1;
}

int usable_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    return sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
}

}  // namespace

int main(int argc, char** argv) {
    const auto t_main = clock_type::now();
    options opt;
    bool setup_only = false;
    try {
        opt = parse(argc, argv, setup_only);
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }
    if (opt.pin_cpu && pin_to_one_cpu() < 0) {
        std::cerr << "error: cannot pin to one CPU\n";
        return 2;
    }

    // Set-up: registry, global pool spin-up, the configuration list.
    apps::register_all_apps();
    const unsigned workers = syclite::thread_pool::global().worker_count();
    std::optional<runner> run;
    try {
        if (!setup_only) run.emplace(opt, make_workload(opt.workload));
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }
    const double setup_s = seconds_since(t_main);
    if (setup_only) {
        std::cout << "{\"setup_s\": " << setup_s << "}\n";
        return 0;
    }
    if (opt.golden_only) {
        std::cout.precision(17);
        std::cout << "{\"golden_s\": " << run->golden_s() << "}\n";
        return 0;
    }

    std::vector<record> records;
    std::vector<list_result> lists;
    layer_map L;
    const auto t_loop = clock_type::now();
    try {
        auto more = [&] {
            const int n = static_cast<int>(lists.size());
            if (opt.max_lists != 0 && n >= opt.max_lists) return false;
            return n < run->min_lists() || seconds_since(t_loop) < opt.seconds;
        };
        do {
            lists.push_back(run->run_list(records, L));
        } while (more());
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }

    std::ostringstream os;
    os.precision(17);
    os << "{\"setup_s\": " << setup_s << ", \"workers\": " << workers
       << ", \"usable_cpus\": " << usable_cpus() << ", \"peak_rss_mb\": " << peak_rss_mb()
       << ", \"compiler\": \"" << json_escape(__VERSION__) << "\", \"lists\": [";
    for (std::size_t i = 0; i < lists.size(); ++i) {
        const auto& l = lists[i];
        os << (i ? ", " : "") << "{\"wall_s\": " << l.wall_s << ", \"cpu_s\": " << l.cpu_s
           << ", \"loop_s\": " << l.loop_s << ", \"findings_warn\": " << l.findings_warn
           << ", \"findings_json\": \"" << json_escape(l.findings_json) << "\"}";
    }
    os << "], \"configs\": [";
    for (std::size_t i = 0; i < records.size(); ++i) {
        const auto& r = records[i];
        os << (i ? ", " : "") << "{\"key\": \"" << json_escape(r.key)
           << "\", \"ok\": " << (r.ok ? "true" : "false") << ", \"digest\": \"" << r.digest
           << "\", \"s\": " << r.seconds << ", \"error\": \"" << json_escape(r.error) << "\"}";
    }
    os << "], \"layers\": {";
    bool first = true;
    for (const auto& [k, v] : L) {
        os << (first ? "" : ", ") << "\"" << k << "\": " << v;
        first = false;
    }
    os << "}}\n";
    std::cout << os.str();
    return 0;
}
