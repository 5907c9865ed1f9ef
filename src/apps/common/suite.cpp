#include "apps/common/suite.hpp"

#include "apps/cfd/cfd.hpp"
#include "apps/common/app.hpp"
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
#include "trace/session.hpp"

namespace altis::bench {

namespace {

namespace apps = altis::apps;

std::vector<SuiteEntry> make_suite() {
    std::vector<SuiteEntry> s;

    {  // CFD FP32
        SuiteEntry e;
        e.label = "CFD FP32";
        e.fpga_impl = apps::cfd::kFpgaImplLabelFp32;
        e.region = [](Variant v, const perf::device_spec& d, int size) {
            return apps::cfd::region(false, v, d, size);
        };
        e.fpga_design = [](const perf::device_spec& d, int size) {
            return apps::cfd::fpga_design(false, d, size);
        };
        e.paper_fig2_baseline = {0.30, 0.31, 0.26};
        e.paper_fig2_optimized = {1.00, 0.90, 0.90};
        e.paper_fig4 = {4.1, 4.2, 4.7};
        e.paper_fig5 = {{{11.24, 10.20, 16.51},
                         {16.40, 20.47, 48.26},
                         {35.75, 45.97, 34.11},
                         {0.63, 0.55, 0.81},
                         {1.09, 1.00, 1.59}}};
        s.push_back(std::move(e));
    }
    {  // CFD FP64
        SuiteEntry e;
        e.label = "CFD FP64";
        e.fpga_impl = apps::cfd::kFpgaImplLabelFp64;
        e.region = [](Variant v, const perf::device_spec& d, int size) {
            return apps::cfd::region(true, v, d, size);
        };
        e.fpga_design = [](const perf::device_spec& d, int size) {
            return apps::cfd::fpga_design(true, d, size);
        };
        e.paper_fig2_baseline = {1.50, 1.50, 1.49};
        e.paper_fig2_optimized = {1.50, 1.50, 1.50};
        e.paper_fig4 = {2.1, 2.2, 2.2};
        e.paper_fig5 = {{{1.64, 2.33, 3.02},
                         {18.11, 24.71, 34.51},
                         {9.67, 15.96, 17.72},
                         {0.34, 0.47, 0.62},
                         {0.37, 0.53, 0.68}}};
        s.push_back(std::move(e));
    }
    {  // DWT2D (Fig. 2 only)
        SuiteEntry e;
        e.label = "DWT2D";
        e.in_fig45 = false;
        e.fpga_impl = apps::dwt2d::kFpgaImplLabel;
        e.region = [](Variant v, const perf::device_spec& d, int size) {
            return apps::dwt2d::region(v, d, size);
        };
        e.fpga_design = [](const perf::device_spec& d, int size) {
            return apps::dwt2d::fpga_design(d, size);
        };
        e.paper_fig2_baseline = {0.70, 0.59, 0.89};
        e.paper_fig2_optimized = {0.90, 1.00, 1.10};
        s.push_back(std::move(e));
    }
    {  // FDTD2D
        SuiteEntry e;
        e.label = "FDTD2D";
        e.fpga_impl = apps::fdtd2d::kFpgaImplLabel;
        e.region = [](Variant v, const perf::device_spec& d, int size) {
            return apps::fdtd2d::region(v, d, size);
        };
        e.cuda_mistimed = [](const perf::device_spec& d, int size) {
            return apps::fdtd2d::region_cuda_mistimed(d, size);
        };
        e.fpga_design = [](const perf::device_spec& d, int size) {
            return apps::fdtd2d::fpga_design(d, size);
        };
        e.paper_fig2_baseline = {0.10, 0.03, 0.01};
        e.paper_fig2_optimized = {0.30, 0.90, 1.00};
        e.paper_fig4 = {5.9, 5.5, 5.4};
        e.paper_fig5 = {{{26.84, 11.26, 14.31},
                         {14.58, 26.92, 40.61},
                         {16.29, 23.35, 42.92},
                         {6.69, 1.31, 1.61},
                         {9.32, 1.42, 1.55}}};
        s.push_back(std::move(e));
    }
    {  // KMeans
        SuiteEntry e;
        e.label = "KMeans";
        e.fpga_impl = apps::kmeans::kFpgaImplLabel;
        e.region = [](Variant v, const perf::device_spec& d, int size) {
            return apps::kmeans::region(v, d, size);
        };
        e.fpga_design = [](const perf::device_spec& d, int size) {
            return apps::kmeans::fpga_design(d, size);
        };
        e.paper_fig2_baseline = {0.30, 0.38, 0.69};
        e.paper_fig2_optimized = {0.40, 0.70, 1.00};
        e.paper_fig4 = {489.4, 500.5, 510.3};
        e.paper_fig5 = {{{11.22, 45.14, 99.71},
                         {7.21, 23.66, 69.81},
                         {10.64, 21.77, 29.89},
                         {28.34, 26.04, 25.63},
                         {28.71, 26.49, 26.16}}};
        s.push_back(std::move(e));
    }
    {  // LavaMD
        SuiteEntry e;
        e.label = "LavaMD";
        e.fpga_impl = apps::lavamd::kFpgaImplLabel;
        e.region = [](Variant v, const perf::device_spec& d, int size) {
            return apps::lavamd::region(v, d, size);
        };
        e.fpga_design = [](const perf::device_spec& d, int size) {
            return apps::lavamd::fpga_design(d, size);
        };
        e.paper_fig2_baseline = {0.80, 1.03, 1.05};
        e.paper_fig2_optimized = {0.80, 1.00, 1.10};
        e.paper_fig4 = {3.6, 23.1, 25.2};
        e.paper_fig5 = {{{0.55, 1.28, 1.23},
                         {1.70, 3.13, 5.66},
                         {3.23, 23.99, 41.72},
                         {3.82, 2.72, 2.25},
                         {5.33, 2.89, 2.34}}};
        s.push_back(std::move(e));
    }
    {  // Mandelbrot
        SuiteEntry e;
        e.label = "Mandelbrot";
        e.fpga_impl = apps::mandelbrot::kFpgaImplLabel;
        e.region = [](Variant v, const perf::device_spec& d, int size) {
            return apps::mandelbrot::region(v, d, size);
        };
        e.fpga_design = [](const perf::device_spec& d, int size) {
            return apps::mandelbrot::fpga_design(d, size);
        };
        e.paper_fig2_baseline = {1.10, 0.99, 1.10};
        e.paper_fig2_optimized = {1.20, 1.10, 1.00};
        e.paper_fig4 = {240.0, 469.9, 476.2};
        e.paper_fig5 = {{{17.78, 11.96, 11.30},
                         {21.46, 14.54, 24.56},
                         {24.18, 19.92, 18.78},
                         {2.97, 3.25, 2.72},
                         {3.57, 2.87, 1.97}}};
        s.push_back(std::move(e));
    }
    {  // NW
        SuiteEntry e;
        e.label = "NW";
        e.fpga_impl = apps::nw::kFpgaImplLabel;
        e.region = [](Variant v, const perf::device_spec& d, int size) {
            return apps::nw::region(v, d, size);
        };
        e.fpga_design = [](const perf::device_spec& d, int size) {
            return apps::nw::fpga_design(d, size);
        };
        e.paper_fig2_baseline = {0.70, 0.57, 0.57};
        e.paper_fig2_optimized = {1.00, 1.00, 1.20};
        e.paper_fig4 = {5.6, 18.1, 17.6};
        e.paper_fig5 = {{{3.80, 4.37, 5.26},
                         {1.66, 1.99, 2.89},
                         {2.77, 3.71, 5.41},
                         {1.37, 0.70, 0.50},
                         {2.79, 1.16, 0.78}}};
        s.push_back(std::move(e));
    }
    {  // PF Naive
        SuiteEntry e;
        e.label = "PF Naive";
        e.fpga_impl = apps::particlefilter::kFpgaImplLabel;
        e.region = [](Variant v, const perf::device_spec& d, int size) {
            return apps::particlefilter::region(apps::particlefilter::flavor::naive,
                                                v, d, size);
        };
        e.fpga_design = [](const perf::device_spec& d, int size) {
            return apps::particlefilter::fpga_design(
                apps::particlefilter::flavor::naive, d, size);
        };
        e.paper_fig2_baseline = {1.10, 0.91, 1.05};
        e.paper_fig2_optimized = {1.10, 0.90, 1.00};
        e.paper_fig4 = {0.9, 14.6, 272.6};
        e.paper_fig5 = {{{0.47, 2.57, 2.37},
                         {0.18, 1.56, 13.90},
                         {0.42, 2.16, 5.70},
                         {0.15, 3.23, 0.69},
                         {0.08, 1.54, 0.41}}};
        s.push_back(std::move(e));
    }
    {  // PF Float
        SuiteEntry e;
        e.label = "PF Float";
        e.fpga_impl = apps::particlefilter::kFpgaImplLabel;
        e.region = [](Variant v, const perf::device_spec& d, int size) {
            return apps::particlefilter::region(
                apps::particlefilter::flavor::floatopt, v, d, size);
        };
        e.fpga_design = [](const perf::device_spec& d, int size) {
            return apps::particlefilter::fpga_design(
                apps::particlefilter::flavor::floatopt, d, size);
        };
        e.cuda_fixed = [](const perf::device_spec& d, int size) {
            return apps::particlefilter::region_cuda_pow_fixed(
                apps::particlefilter::flavor::floatopt, d, size);
        };
        e.paper_fig2_baseline = {4.70, 6.81, 1.00};
        e.paper_fig2_optimized = {0.90, 1.10, 1.00};
        e.paper_fig4 = {4.1, 11.5, 368.0};
        e.paper_fig5 = {{{3.60, 1.72, 4.64},
                         {2.17, 1.86, 32.30},
                         {1.27, 2.08, 18.00},
                         {3.39, 3.14, 1.48},
                         {1.89, 1.39, 0.80}}};
        s.push_back(std::move(e));
    }
    {  // Raytracing
        SuiteEntry e;
        e.label = "Raytracing";
        e.fpga_impl = apps::raytracing::kFpgaImplLabel;
        e.region = [](Variant v, const perf::device_spec& d, int size) {
            return apps::raytracing::region(v, d, size);
        };
        e.fpga_design = [](const perf::device_spec& d, int size) {
            return apps::raytracing::fpga_design(d, size);
        };
        e.paper_fig2_baseline = {11.60, 18.59, 21.71};
        e.paper_fig2_optimized = {11.60, 18.60, 21.70};
        e.paper_fig4 = {27.1, 34.7, 39.5};
        e.paper_fig5 = {{{8.30, 16.24, 18.18},
                         {7.29, 21.81, 30.25},
                         {5.12, 21.11, 32.56},
                         {1.57, 2.02, 2.27},
                         {1.77, 2.15, 2.34}}};
        s.push_back(std::move(e));
    }
    {  // SRAD
        SuiteEntry e;
        e.label = "SRAD";
        e.fpga_impl = apps::srad::kFpgaImplLabel;
        e.region = [](Variant v, const perf::device_spec& d, int size) {
            return apps::srad::region(v, d, size);
        };
        e.fpga_design = [](const perf::device_spec& d, int size) {
            return apps::srad::fpga_design(d, size);
        };
        e.paper_fig2_baseline = {1.10, 1.04, 1.01};
        e.paper_fig2_optimized = {1.10, 1.00, 1.00};
        e.paper_fig4 = {2.1, 2.6, 5.4};
        e.paper_fig5 = {{{18.65, 42.76, 17.26},
                         {9.48, 66.27, 36.84},
                         {24.95, 94.25, 34.61},
                         {2.37, 2.69, 0.76},
                         {3.64, 2.10, 0.62}}};
        s.push_back(std::move(e));
    }
    {  // Where
        SuiteEntry e;
        e.label = "Where";
        e.fpga_impl = apps::where::kFpgaImplLabel;
        e.region = [](Variant v, const perf::device_spec& d, int size) {
            return apps::where::region(v, d, size);
        };
        e.fpga_design = [](const perf::device_spec& d, int size) {
            return apps::where::fpga_design(d, size);
        };
        e.crashes = [](const perf::device_spec& d, Variant v, int size) {
            return apps::where::crashes_on(d, v, size);
        };
        e.paper_fig2_baseline = {0.20, 0.25, 0.46};
        e.paper_fig2_optimized = {0.30, 0.30, 0.50};
        e.paper_fig4 = {90.8, 84.3, 33.5};
        e.paper_fig5 = {{{5.27, 5.51, 9.24},
                         {3.76, 3.91, 24.82},
                         {2.22, 2.32, 20.55},
                         {8.67, 7.00, 0.73},
                         {13.12, 9.38, 0.0}}};  // Agilex size-3 crash
        s.push_back(std::move(e));
    }
    return s;
}

const std::vector<std::string> kFig5Devices{"rtx_2080", "a100", "max_1100",
                                            "stratix_10", "agilex"};

}  // namespace

const std::vector<SuiteEntry>& suite() {
    static const std::vector<SuiteEntry> s = make_suite();
    return s;
}

std::span<const std::string> fig5_devices() { return kFig5Devices; }

std::optional<double> total_ms(const SuiteEntry& e, Variant v,
                               const std::string& device, int size) {
    const perf::device_spec& dev = perf::device_by_name(device);
    if (!apps::variant_allowed(v, dev)) return std::nullopt;
    if (e.crashes && e.crashes(dev, v, size)) return std::nullopt;
    apps::timed_region region;
    try {
        region = e.region(v, dev, size);
    } catch (const std::invalid_argument&) {
        return std::nullopt;  // e.g. DWT2D fpga_opt
    }
    const auto t = apps::simulate_region(region, dev, apps::runtime_for(v));
    return t.total_ms();
}

std::string config_label(const SuiteEntry& e, Variant v,
                         const std::string& device, int size) {
    return e.label + "/" + to_string(v) + "/" + device + "/size" +
           std::to_string(size);
}

ConfigOutcome run_config(const SuiteEntry& e, Variant v,
                         const std::string& device, int size,
                         const fault::retry_policy& policy, bool fail_fast) {
    ConfigOutcome co;
    auto skip = [&co](std::string reason) {
        co.skipped = true;
        co.skip_reason = reason;
        co.oc.st = fault::outcome::status::skipped;
        co.oc.error = std::move(reason);
        return co;
    };

    const perf::device_spec& dev = perf::device_by_name(device);
    if (!apps::variant_allowed(v, dev))
        return skip(std::string(to_string(v)) + " cannot target " + device);
    if (e.crashes && e.crashes(dev, v, size))
        return skip("known crash on this configuration (paper Sec. 5.4)");
    // Build the region outside the guard: an invalid_argument here means the
    // configuration does not exist (DWT2D fpga_opt), not that it failed.
    apps::timed_region region;
    try {
        region = e.region(v, dev, size);
    } catch (const std::invalid_argument& ex) {
        return skip(ex.what());
    }

    const std::string label = config_label(e, v, device, size);
    auto on_retry = [&label](int attempt, const std::string& error,
                             double backoff_ms) {
        trace::session* s = trace::session::current();
        if (s == nullptr) return;
        const double cursor = s->last_end_ns();
        trace::span sp;
        sp.name = "retry " + std::to_string(attempt) + ": " + label +
                  " (backoff " + std::to_string(backoff_ms) + " ms): " + error;
        sp.start_ns = sp.end_ns = cursor;
        sp.status = trace::span_status::retried;
        s->record(std::move(sp));
    };

    co.oc = fault::run_guarded(
        [&] {
            const auto t =
                apps::simulate_region(region, dev, apps::runtime_for(v));
            co.ms = t.total_ms();
        },
        policy, fail_fast, on_retry);
    if (!co.oc.succeeded()) co.ms.reset();
    return co;
}

std::string breaker_key(const SuiteEntry& e, Variant v,
                        const std::string& device) {
    return e.label + "/" + to_string(v) + "/" + device;
}

resilience::journal_entry outcome_to_entry(const std::string& label,
                                           const ConfigOutcome& co) {
    resilience::journal_entry entry;
    entry.config = label;
    entry.status = co.oc.label();
    entry.attempts = co.oc.attempts;
    entry.backoff_ms = co.oc.backoff_ms;
    entry.error = co.oc.error;
    entry.value = co.ms;
    return entry;
}

ConfigOutcome entry_to_outcome(const resilience::journal_entry& entry) {
    ConfigOutcome co;
    co.ms = entry.value;
    co.oc.st = fault::status_from_label(entry.status);
    co.oc.attempts = entry.attempts;
    co.oc.backoff_ms = entry.backoff_ms;
    co.oc.error = entry.error;
    if (entry.status == "skipped") {
        co.skipped = true;
        co.skip_reason = entry.error;
    }
    return co;
}

void emit_degraded_span(const std::string& label, const fault::outcome& oc) {
    trace::session* s = trace::session::current();
    if (s == nullptr) return;
    trace::span_status st;
    switch (oc.st) {
        case fault::outcome::status::deadline:
        case fault::outcome::status::cancelled:
            st = trace::span_status::cancelled;
            break;
        case fault::outcome::status::quarantined:
            st = trace::span_status::quarantined;
            break;
        default:
            return;
    }
    const double cursor = s->last_end_ns();
    trace::span sp;
    sp.name = std::string(oc.label()) + ": " + label +
              (oc.error.empty() ? "" : ": " + oc.error);
    sp.start_ns = sp.end_ns = cursor;
    sp.status = st;
    s->record(std::move(sp));
}

ConfigOutcome run_config(const SuiteEntry& e, Variant v,
                         const std::string& device, int size,
                         const fault::retry_policy& policy, bool fail_fast,
                         resilience::supervisor* sup) {
    if (sup == nullptr) return run_config(e, v, device, size, policy, fail_fast);
    const std::string label = config_label(e, v, device, size);
    // Probe the deterministic skip checks first (cheap: region construction
    // only happens in the plain overload's body below); a nonexistent
    // configuration must not consume breaker or journal state.
    {
        const perf::device_spec& dev = perf::device_by_name(device);
        const bool exists = apps::variant_allowed(v, dev) &&
                            !(e.crashes && e.crashes(dev, v, size)) && [&] {
                                try {
                                    (void)e.region(v, dev, size);
                                    return true;
                                } catch (const std::invalid_argument&) {
                                    return false;
                                }
                            }();
        if (!exists) return run_config(e, v, device, size, policy, fail_fast);
    }
    ConfigOutcome co;
    const auto res = sup->run(label, breaker_key(e, v, device), [&] {
        co = run_config(e, v, device, size, policy, fail_fast);
        return outcome_to_entry(label, co);
    });
    if (res.replayed || res.entry.status == "quarantined")
        co = entry_to_outcome(res.entry);
    if (!res.replayed) emit_degraded_span(label, co.oc);
    return co;
}

void record_config_outcome(ResultDatabase& db, const std::string& label,
                           const ConfigOutcome& co, bool injection_enabled) {
    if (!injection_enabled && (co.oc.succeeded() || co.skipped) &&
        !co.oc.retried())
        return;
    fault::record_outcome(db, label, co.oc);
}

}  // namespace altis::bench
