#include "trace/profile.hpp"

#include <algorithm>
#include <map>
#include <ostream>

#include "core/json.hpp"
#include "core/report.hpp"

namespace altis::trace {

const char* to_string(bound_by b) {
    switch (b) {
        case bound_by::compute: return "compute";
        case bound_by::bandwidth: return "bandwidth";
        case bound_by::latency: return "latency";
        case bound_by::unknown: return "unknown";
    }
    return "?";
}

namespace {

/// Sustained walls the classification compares against; mirrors the rooflines
/// the kernel-time models are built on (Table 2 peaks x efficiency knobs).
void device_walls(const perf::device_spec& dev, double& peak_gflops,
                  double& peak_gbs) {
    double tflops = dev.peak_fp32_tflops;
    if (dev.is_fpga() && tflops <= 0.0)
        tflops = dev.fpga_peak_fp32_tflops(dev.fmax_mhz);
    peak_gflops = tflops * 1e3 * dev.compute_efficiency;
    peak_gbs = dev.mem_bw_gbs * dev.mem_efficiency;
}

}  // namespace

profile_report build_profile(const session& s) {
    profile_report p;
    p.session_name = s.name();
    p.kernel_ns = s.kernel_ns();
    p.non_kernel_ns = s.non_kernel_ns();
    if (s.device() != nullptr) {
        p.device = s.device()->name;
        device_walls(*s.device(), p.peak_gflops, p.peak_gbs);
    }

    struct accum {
        double invocations = 0.0, total_ns = 0.0;
        double flops = 0.0, bytes = 0.0;
        bool in_dataflow = false;
    };
    std::map<std::string, accum> by_name;
    for (const auto& sp : s.spans()) {
        if (sp.kind != span_kind::kernel) continue;
        accum& a = by_name[sp.name];
        a.invocations += sp.counters.invocations;
        a.total_ns += sp.duration_ns();
        a.flops += sp.counters.flops;
        a.bytes += sp.counters.bytes;
        if (sp.track != 0) a.in_dataflow = true;
        p.kernel_span_ns += sp.duration_ns();
    }

    for (const auto& [name, a] : by_name) {
        kernel_profile k;
        k.name = name;
        k.invocations = a.invocations;
        k.total_ns = a.total_ns;
        k.mean_ns = a.invocations > 0.0 ? a.total_ns / a.invocations : 0.0;
        k.pct_of_kernel =
            p.kernel_span_ns > 0.0 ? a.total_ns / p.kernel_span_ns : 0.0;
        k.gbs = a.total_ns > 0.0 ? a.bytes / a.total_ns : 0.0;
        k.gflops = a.total_ns > 0.0 ? a.flops / a.total_ns : 0.0;
        k.in_dataflow = a.in_dataflow;
        if (!p.device.empty() && p.peak_gflops > 0.0 && p.peak_gbs > 0.0) {
            k.compute_utilization = k.gflops / p.peak_gflops;
            k.memory_utilization = k.gbs / p.peak_gbs;
            // Far from both walls the roofline says nothing: launch latency
            // or pipeline depth is what the kernel is actually paying for.
            if (k.compute_utilization < 0.05 && k.memory_utilization < 0.05)
                k.bound = bound_by::latency;
            else
                k.bound = k.compute_utilization >= k.memory_utilization
                              ? bound_by::compute
                              : bound_by::bandwidth;
        }
        p.kernels.push_back(std::move(k));
    }
    std::sort(p.kernels.begin(), p.kernels.end(),
              [](const kernel_profile& a, const kernel_profile& b) {
                  return a.total_ns > b.total_ns;
              });
    return p;
}

void render_profile(const profile_report& p, std::ostream& out) {
    out << "Per-kernel profile";
    if (!p.device.empty()) out << " on " << p.device;
    out << " (simulated timeline)\n";
    Table t({"Kernel", "Calls", "Total [ms]", "Mean [us]", "% kernel",
             "GB/s", "GFLOP/s", "Bound by"});
    for (const auto& k : p.kernels) {
        std::string bound = to_string(k.bound);
        if (k.in_dataflow) bound += " (dataflow)";
        t.add_row({k.name, Table::num(k.invocations, 0),
                   Table::num(k.total_ns / 1e6, 3),
                   Table::num(k.mean_ns / 1e3, 3),
                   Table::percent(k.pct_of_kernel), Table::num(k.gbs, 1),
                   Table::num(k.gflops, 1), bound});
    }
    t.print(out);
    out << "kernel: " << Table::num(p.kernel_ns / 1e6, 3)
        << " ms, non-kernel: " << Table::num(p.non_kernel_ns / 1e6, 3)
        << " ms";
    if (p.kernel_span_ns > p.kernel_ns * (1.0 + 1e-9))
        out << " (dataflow overlap: " << Table::num(p.kernel_span_ns / 1e6, 3)
            << " ms of kernel spans compressed into "
            << Table::num(p.kernel_ns / 1e6, 3) << " ms of wall time)";
    out << "\n";
}

void write_profile_json(const profile_report& p, std::ostream& out) {
    out << "{\n  \"session\": " << json::quoted{p.session_name}
        << ",\n  \"device\": " << json::quoted{p.device}
        << ",\n  \"peak_gflops\": " << p.peak_gflops
        << ",\n  \"peak_gbs\": " << p.peak_gbs
        << ",\n  \"kernel_ns\": " << p.kernel_ns
        << ",\n  \"non_kernel_ns\": " << p.non_kernel_ns
        << ",\n  \"kernel_span_ns\": " << p.kernel_span_ns
        << ",\n  \"kernels\": [\n";
    for (std::size_t i = 0; i < p.kernels.size(); ++i) {
        const kernel_profile& k = p.kernels[i];
        out << "    {\"name\": " << json::quoted{k.name}
            << ", \"invocations\": " << k.invocations
            << ", \"total_ns\": " << k.total_ns << ", \"mean_ns\": " << k.mean_ns
            << ", \"pct_of_kernel\": " << k.pct_of_kernel
            << ", \"gbs\": " << k.gbs << ", \"gflops\": " << k.gflops
            << ", \"compute_utilization\": " << k.compute_utilization
            << ", \"memory_utilization\": " << k.memory_utilization
            << ", \"bound_by\": " << json::quoted{to_string(k.bound)}
            << ", \"in_dataflow\": " << (k.in_dataflow ? "true" : "false")
            << "}" << (i + 1 < p.kernels.size() ? ",\n" : "\n");
    }
    out << "  ]\n}\n";
}

}  // namespace altis::trace
