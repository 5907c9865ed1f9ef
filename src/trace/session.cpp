#include "trace/session.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace altis::trace {

const char* to_string(span_kind k) {
    switch (k) {
        case span_kind::kernel: return "kernel";
        case span_kind::transfer: return "transfer";
        case span_kind::overhead: return "overhead";
        case span_kind::setup: return "setup";
        case span_kind::sync: return "sync";
        case span_kind::dataflow_group: return "dataflow_group";
        case span_kind::region: return "region";
    }
    return "?";
}

const char* to_string(span_status s) {
    switch (s) {
        case span_status::ok: return "ok";
        case span_status::failed: return "failed";
        case span_status::retried: return "retried";
        case span_status::cancelled: return "cancelled";
        case span_status::quarantined: return "quarantined";
    }
    return "?";
}

session::session(std::string name)
    : stream::subscriber(
          ~(stream::bit(stream::kind::submit) |
            stream::bit(stream::kind::group_begin) |
            stream::bit(stream::kind::usm_alloc) |
            stream::bit(stream::kind::usm_free) |
            stream::bit(stream::kind::simulated_kernel))),
      name_(std::move(name)) {}

void session::record(span s) { spans_.push_back(std::move(s)); }

void session::record_kernel(const perf::kernel_stats& k, double start_ns,
                            double end_ns, int track, double invocations,
                            std::uint64_t cmd,
                            const std::vector<std::uint64_t>* deps) {
    span s;
    s.kind = span_kind::kernel;
    s.name = k.name.empty() ? "<unnamed kernel>" : k.name;
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    s.track = track;
    s.cmd = cmd;
    if (deps != nullptr) s.deps = *deps;
    s.counters.flops = (k.total_fp32() + k.total_fp64() + k.total_sfu()) *
                       invocations;
    s.counters.bytes = k.total_bytes() * invocations;
    s.counters.occupancy = k.occupancy;
    s.counters.divergence = k.divergence;
    for (const auto& loop : k.loops)
        s.counters.initiation_interval =
            std::max(s.counters.initiation_interval, loop.initiation_interval);
    s.counters.invocations = invocations;
    spans_.push_back(std::move(s));
}

void session::begin_region(std::string name, double start_ns) {
    region_stack_.push_back({std::move(name), start_ns});
}

void session::end_region(double end_ns) {
    if (region_stack_.empty())
        throw std::logic_error("trace::session: end_region without a "
                               "matching begin_region");
    open_region r = std::move(region_stack_.back());
    region_stack_.pop_back();
    span s;
    s.kind = span_kind::region;
    s.name = std::move(r.name);
    s.start_ns = r.start_ns;
    s.end_ns = end_ns;
    spans_.push_back(std::move(s));
}

double session::kernel_ns() const {
    double total = 0.0;
    for (const auto& s : spans_) {
        if (s.kind == span_kind::kernel && s.track == 0)
            total += s.duration_ns();
        else if (s.kind == span_kind::dataflow_group)
            total += s.duration_ns();
    }
    return total;
}

double session::non_kernel_ns() const {
    double total = 0.0;
    for (const auto& s : spans_)
        if (s.kind == span_kind::transfer || s.kind == span_kind::overhead ||
            s.kind == span_kind::setup || s.kind == span_kind::sync)
            total += s.duration_ns();
    return total;
}

double session::last_end_ns() const {
    double last = 0.0;
    for (const auto& s : spans_) last = std::max(last, s.end_ns);
    return last;
}

void session::on_event(const stream::event& e) {
    using stream::kind;
    if (e.what == kind::open) {
        if (dev_ == nullptr) dev_ = e.device;
        const double b = base_[e.timeline] = last_end_ns();
        if (e.simulated) begin_region(std::string(e.label), b);
        return;
    }
    // Findings land at the end of the session; everything else is placed
    // by its timeline's offset.
    const auto it = base_.find(e.timeline);
    const double b = e.what == kind::finding ? last_end_ns()
                     : it != base_.end()     ? it->second
                                             : 0.0;
    auto add = [&](span_kind k, std::string_view name, double t0,
                   double t1) -> span& {
        span& s = spans_.emplace_back();
        s.kind = k;
        s.name = name;
        s.start_ns = b + t0;
        s.end_ns = b + t1;
        return s;
    };
    switch (e.what) {
        case kind::reset: base_[e.timeline] = last_end_ns(); break;
        case kind::close:
            if (e.simulated) end_region(b + e.t0);
            base_.erase(e.timeline);
            break;
        case kind::setup: add(span_kind::setup, "setup", e.t0, e.t1); break;
        case kind::overhead:
            add(span_kind::overhead, e.label, e.t0, e.t1);
            break;
        case kind::wait: add(span_kind::sync, e.label, e.t0, e.t1); break;
        case kind::error:
        case kind::finding:
            add(span_kind::overhead, e.label, e.t0, e.t0).status =
                span_status::failed;
            break;
        case kind::transfer: {
            span& s = add(span_kind::transfer, e.label, e.t0, e.t1);
            s.counters.bytes = e.bytes;
            s.counters.invocations = e.invocations;
            s.track = e.lane;
            s.cmd = e.cmd;
            if (e.deps != nullptr) s.deps = *e.deps;
            break;
        }
        case kind::kernel:
            // The launch window, then the kernel itself.
            add(span_kind::overhead, "launch", e.t0, e.t1);
            record_kernel(*e.stats, b + e.start_ns, b + e.end_ns, e.lane,
                          e.invocations, e.cmd, e.deps);
            break;
        case kind::group_end:
            if (e.members == nullptr || e.members->empty()) break;
            // The group's wall-clock envelope sits on the main lane; each
            // member kernel gets its own lane so exporters show the overlap
            // (Fig. 3).
            add(span_kind::overhead, "launch", e.t0, e.t1);
            add(span_kind::dataflow_group, "dataflow", e.start_ns, e.end_ns);
            for (const auto& k : *e.members) spans_.back().name += ":" + k.name;
            for (std::size_t i = 0; i < e.members->size(); ++i)
                record_kernel((*e.members)[i], b + e.start_ns,
                              b + e.start_ns + (*e.durations)[i],
                              static_cast<int>(i) + 1, e.invocations);
            break;
        case kind::epoch:
            // Lane spans (tracks >= 2) are excluded from the wall-time sums;
            // the epoch's kernel wall share is its union intervals, the same
            // convention dataflow groups use.
            if (e.spans != nullptr)
                for (const auto& [lo, hi] : *e.spans)
                    add(span_kind::dataflow_group, "graph epoch", lo, hi);
            break;
        default: break;
    }
}

session* session::current() {
    return static_cast<session*>(stream::installed(stream::slot::trace));
}

void session::set_current(session* s) {
    (void)stream::install(stream::slot::trace, s);
}

}  // namespace altis::trace
