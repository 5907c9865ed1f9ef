#include "sycl/queue.hpp"

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "analyze/sanitize.hpp"
#include "fault/inject.hpp"
#include "metrics/instruments.hpp"
#include "perf/model.hpp"
#include "perf/resource_model.hpp"
#include "resilience/cancel.hpp"

namespace syclite {

namespace fault = altis::fault;
using stream::kind;

namespace {

/// Submission latency: wall-clock host time spent inside submit() --
/// bookkeeping plus, on in-order queues, the kernel execution itself,
/// mirroring what a profiler sees on q.submit() in the paper's in-order
/// queues. Scoped, so throwing submissions are metered too.
struct latency_guard {
    bool metered = altis::metrics::collecting();
    std::uint64_t t0 = metered ? detail::wall_ns() : 0;
    ~latency_guard() {
        if (!metered) return;
        namespace mi = altis::metrics::instruments;
        mi::queue_submissions().add();
        mi::queue_submit_latency_ns().record(detail::wall_ns() - t0);
    }
};

/// Failed-span label of one failed command: "error[<kernel>]: <what>".
[[nodiscard]] std::string error_label(const detail::command_failure& f) {
    return "error[" + f.name + "]" + (f.detail.empty() ? "" : ": " + f.detail);
}

/// Releases an enqueued (held) graph node on every exit path of the
/// submit-side bookkeeping, so an exception there cannot leave the node held
/// (which would deadlock every subsequent graph join). release() ignores
/// non-held nodes, so the guard is idempotent.
struct release_guard {
    graph::scheduler* sched;
    std::uint64_t id;
    ~release_guard() { sched->release(id); }
};

}  // namespace

queue::queue(const perf::device_spec& dev, perf::runtime_kind rt,
             async_handler handler, queue_property prop)
    : dev_(dev), rt_(rt), handler_(std::move(handler)),
      obs_(stream::current()), recorder_(analyze::recorder::current()) {
    if (prop == queue_property::out_of_order)
        sched_ = std::make_unique<graph::scheduler>(&thread_pool::global());
    if (obs_) {
        timeline_ = stream::next_timeline();
        emit({.what = kind::open, .device = &dev_});
    }
    // Device acquisition is an injection point: a fault plan can make this
    // device intermittently unavailable (oneAPI enumeration failures).
    try {
        fault::maybe_inject(fault::op_kind::device, dev_.name,
                            "device acquisition failed");
    } catch (const std::exception& e) {
        record_error(std::string("error: ") + e.what());
        throw;
    }
}

queue::queue(const std::string& device_name, perf::runtime_kind rt,
             async_handler handler, queue_property prop)
    : queue(perf::device_by_name(device_name), rt, std::move(handler), prop) {}

queue::~queue() {
    // An open dataflow group never launched (its workers live and die inside
    // end_dataflow()); retire its deferred command groups.
    abort_dataflow();
    if (sched_ != nullptr) {
        // Implicit join; destructors cannot deliver, so errors are dropped
        // (same contract as an in-order queue destroyed with async errors
        // pending).
        sched_->wait_all();
        (void)sched_->drain_errors();
        emit({.what = kind::epoch});
    }
    emit({.what = kind::close});
}

void queue::record_error(const std::string& label) {
    emit({.what = kind::error, .t0 = sim_now_ns_, .label = label});
}

event queue::record(const perf::kernel_stats& stats, double duration_ns,
                    std::string* name) {
    const double launch = perf::launch_overhead_ns(rt_, dev_);
    const double submit = sim_now_ns_;
    const double start = submit + launch;
    const double end = start + duration_ns;
    sim_now_ns_ = end;
    non_kernel_ns_ += launch;
    kernel_ns_ += duration_ns;
    if (obs_.wants(kind::kernel))
        emit({.what = kind::kernel, .t0 = submit, .t1 = start,
              .start_ns = start, .end_ns = end, .stats = &stats});
    // The event above is the last reader of stats.name; a donated name is
    // moved from here on.
    return {submit, start, end,
            name != nullptr ? std::move(*name) : std::string(stats.name)};
}

double queue::kernel_duration(const perf::kernel_stats& stats,
                              double fmax_mhz) const {
    if (fmax_mhz <= 0.0) fmax_mhz = design_fmax_mhz_;
    return dev_.is_fpga() && fmax_mhz > 0.0
               ? perf::fpga_kernel_time_ns(stats, dev_, fmax_mhz)
               : perf::kernel_time_ns(stats, dev_);
}

stream::event queue::submit_event(handler& h) {
    return {.what = kind::submit, .stats = &h.stats(), .cg = h.cg_.id,
            .dataflow = in_dataflow_, .accesses = &h.accesses_,
            .pipes = &h.pipes_};
}

event queue::finish_submit(handler&& h) {
    const latency_guard submit_latency;
    // Dataflow groups defer/overlap their own way, even on OOO queues.
    const bool graph_node = sched_ != nullptr && !in_dataflow_;
    // In-order queues run synchronously, so a depends_on edge on a
    // same-queue event is vacuous -- but an event from an out-of-order
    // queue's graph (the only kind that carries a command id) still needs a
    // real join before this command may run.
    if (!graph_node)
        for (const handler::graph_dep& d : h.deps_)
            graph::wait_node(d.state, d.id);

    if (!h.has_kernel()) {
        // An empty command group still handed out accessors; their lifetime
        // ends here.
        if (recorder_ != nullptr && h.cg_.id != 0) recorder_->retire(h.cg_.id);
        return event(sim_now_ns_, sim_now_ns_, sim_now_ns_);
    }
    if (graph_node) return finish_submit_graph(h);

    if (obs_.wants(kind::submit)) emit(submit_event(h));
    if (in_dataflow_) {
        // Deferred: the worker thread starts at end_dataflow(), once the
        // whole group is known (see pending_work in the header).
        pending_stats_.push_back(h.stats());
        pending_work_.push_back({pending_work_.size(), h.cg_.id,
                                 h.stats().name, std::move(h.exec_),
                                 h.cg_.actor,
                                 detail::probe_fault(h.stats().name, false)});
        return event();  // timestamps assigned at end_dataflow()
    }

    if (std::optional<detail::command_failure> f = detail::run_command(
            h.stats().name, /*transfer=*/false, h.exec_, thread_pool::global(),
            h.cg_.actor, recorder_, h.cg_.id,
            detail::probe_fault(h.stats().name, false))) {
        record_error(error_label(*f));
        // SYCL semantics: execution errors are asynchronous -- they surface
        // at the next wait()/throw_asynchronous(), not here.
        if (!handler_) std::rethrow_exception(f->error);
        async_errors_.push_back(std::move(f->error));
        return event(sim_now_ns_, sim_now_ns_, sim_now_ns_, h.stats().name);
    }
    return record(h.stats(), kernel_duration(h.stats()), &h.stats_.name);
}

event queue::finish_submit_graph(handler& h) {
    const double duration = kernel_duration(h.stats());
    // The host side of an async launch: submission overhead lands on the
    // host clock now; the kernel's own time lives on a graph lane and folds
    // in at the join.
    const double launch = perf::launch_overhead_ns(rt_, dev_);
    const double submit = sim_now_ns_;
    sim_now_ns_ += launch;
    non_kernel_ns_ += launch;
    epoch_launch_ns_ += launch;

    graph::submission s;
    s.name = h.stats().name;
    s.exec = std::move(h.exec_);
    s.ranges.reserve(h.accesses_.size());
    for (const auto& a : h.accesses_)
        s.ranges.push_back({a.base, a.bytes, analyze::writes(a.mode)});
    // Explicit deps: ids are per-scheduler counters, so only events produced
    // by *this* queue's graph become edges. An event from another queue's
    // graph is joined here instead -- a blocking cross-queue sync rather
    // than a graph edge (documented limitation, DESIGN.md Sec. 4a); the
    // foreign id must never reach enqueue(), where it would alias an
    // unrelated node of this graph.
    s.after.reserve(h.deps_.size());
    for (const handler::graph_dep& d : h.deps_) {
        if (d.state == sched_->state())
            s.after.push_back(d.id);
        else
            graph::wait_node(d.state, d.id);
    }
    s.submit_ns = sim_now_ns_;
    s.duration_ns = duration;
    s.cg = h.cg_.id;
    s.actor = h.cg_.actor;
    s.recorder = recorder_;
    const graph::ticket t = sched_->enqueue(std::move(s));

    // Phase two: the observers (shadow edges, command-graph node, trace
    // spans) and the event log all complete on this thread before release()
    // lets the node run. The release is a scope guard: if any of that
    // bookkeeping throws, the node must still be released, or it stays
    // `held` forever and every later join -- including ~queue during unwind
    // -- deadlocks.
    release_guard release{sched_.get(), t.id};
    if (obs_.wants(kind::submit)) {
        stream::event e = submit_event(h);
        e.graph = true;
        e.dep_actors = &t.dep_actors;
        emit(e);
    }
    if (obs_.wants(kind::kernel))
        emit({.what = kind::kernel, .graph = true, .t0 = submit,
              .t1 = submit + launch, .start_ns = t.start_ns, .end_ns = t.end_ns,
              .stats = &h.stats(), .lane = t.lane, .cmd = t.id,
              .deps = &t.deps});
    return {submit, t.start_ns, t.end_ns, h.stats().name, t.id,
            sched_->state()};
}

event queue::submit_transfer_graph(bool to_device, void* dst_ptr,
                                   const void* src_ptr, std::size_t bytes) {
    const double dur = perf::transfer_ns(rt_, dev_, static_cast<double>(bytes));
    const double submit = sim_now_ns_;

    graph::submission s;
    s.name = "transfer";
    s.transfer = true;
    s.exec = [dst_ptr, src_ptr, bytes](thread_pool& pool) {
        pool.copy(dst_ptr, src_ptr, bytes);
    };
    // Both sides conflict: the source orders this copy after kernels writing
    // it (USM on the host side, the buffer on write-back), the destination
    // after readers/writers of the buffer being overwritten.
    s.ranges.push_back({src_ptr, bytes, false});
    s.ranges.push_back({dst_ptr, bytes, true});
    s.submit_ns = submit;
    s.duration_ns = dur;
    // Like a kernel, the copy takes its shadow actor from a command group
    // opened before it is enqueued.
    const analyze::recorder::cg_handle cg =
        recorder_ != nullptr ? recorder_->begin_command_group()
                             : analyze::recorder::cg_handle{};
    s.cg = cg.id;
    s.actor = cg.actor;
    s.recorder = recorder_;
    const graph::ticket t = sched_->enqueue(std::move(s));

    // Lane 1 is the modeled PCIe lane.
    release_guard release{sched_.get(), t.id};
    emit({.what = kind::transfer, .graph = true, .t0 = t.start_ns,
          .t1 = t.end_ns, .label = "transfer", .lane = t.lane, .cmd = t.id,
          .deps = &t.deps, .base = to_device ? dst_ptr : src_ptr,
          .bytes = static_cast<double>(bytes), .to_device = to_device,
          .cg = cg.id, .dep_actors = &t.dep_actors});
    return {submit, t.start_ns, t.end_ns, std::string(), t.id,
            sched_->state()};
}

void queue::merge_failures(std::vector<detail::command_failure>& failed,
                           const char* cancel_label) {
    // Delivery order is submission order, independent of which thread lost
    // the race to report first.
    std::sort(failed.begin(), failed.end(),
              [](const auto& a, const auto& b) { return a.index < b.index; });
    for (const detail::command_failure& f : failed)
        if (f.cancelled) {
            // Never routed through an async handler: a cancelled sweep must
            // unwind.
            record_error(cancel_label);
            std::rethrow_exception(f.error);
        }
    const auto blocked_end =
        std::stable_partition(failed.begin(), failed.end(),
                              [](const auto& f) { return f.pipe_blocked; });
    if (blocked_end == failed.begin()) return;
    std::vector<std::string> blocked;
    std::string msg = "dataflow deadlock: kernel(s) blocked on pipes:";
    std::string why;
    for (auto it = failed.begin(); it != blocked_end; ++it) {
        blocked.push_back(it->name);
        msg += " " + it->name;
        why += (why.empty() ? "" : "; ") + it->name + ": " + it->detail;
    }
    msg += " [" + why + "]";
    failed.erase(failed.begin() + 1, blocked_end);
    detail::command_failure& merged = failed.front();  // still pipe_blocked
    merged.name = "dataflow";
    merged.error =
        std::make_exception_ptr(dataflow_error(msg, std::move(blocked)));
    merged.detail = std::move(msg);
}

void queue::collect_graph_errors() {
    if (sched_ == nullptr) return;
    std::vector<detail::command_failure> failed = sched_->drain_errors();
    merge_failures(failed, "graph cancelled");
    for (detail::command_failure& f : failed) {
        record_error(error_label(f));
        async_errors_.push_back(std::move(f.error));
    }
}

void queue::join_graph() {
    if (sched_ == nullptr) return;
    sched_->wait_all();
    // Fold the epoch's modeled timeline into the queue clocks. Kernel time
    // is the *union* of the lanes' kernel intervals (overlapped kernels
    // count once -- the dataflow-group convention); whatever of the epoch's
    // span is neither kernel union nor already-charged launch overhead
    // (serialized transfers, dependency stalls) lands on the non-kernel
    // side, keeping kernel + non-kernel == simulated wall.
    const double horizon = sched_->horizon_ns();
    const double busy = sched_->busy_ns();
    std::vector<std::pair<double, double>> spans = sched_->kernel_spans();
    std::sort(spans.begin(), spans.end());
    std::vector<std::pair<double, double>> merged;
    double covered = 0.0, lo = 0.0, hi = -1.0;
    for (const auto& [s, e] : spans) {
        if (hi < 0.0 || s > hi) {
            if (hi >= 0.0) {
                covered += hi - lo;
                merged.emplace_back(lo, hi);
            }
            lo = s;
            hi = e;
        } else {
            hi = std::max(hi, e);
        }
    }
    if (hi >= 0.0) {
        covered += hi - lo;
        merged.emplace_back(lo, hi);
    }
    kernel_ns_ += covered;
    sim_now_ns_ = std::max(sim_now_ns_, horizon);
    const double elapsed = sim_now_ns_ - epoch_start_ns_;
    // The epoch's non-kernel share is exactly `elapsed - covered`. Launch
    // overhead was already charged at submit (epoch_launch_ns_), so the
    // correction here may be negative: a launch window that a kernel lane
    // covered gets credited back, keeping kernel + non-kernel == simulated
    // wall. The per-epoch sum of both charges is elapsed - covered >= 0.
    non_kernel_ns_ += elapsed - covered - epoch_launch_ns_;
    // Observers see the epoch's union intervals (trace), its overlap ratio
    // (metrics) and the host join of its members (sanitizer).
    emit({.what = kind::epoch, .t0 = epoch_start_ns_, .t1 = sim_now_ns_,
          .spans = &merged, .busy_ns = busy});
    sched_->reset_epoch();
    epoch_start_ns_ = sim_now_ns_;
    epoch_launch_ns_ = 0.0;
    collect_graph_errors();
}

void queue::set_design(const std::vector<perf::kernel_stats>& design_kernels) {
    if (!dev_.is_fpga())
        throw std::logic_error("queue::set_design: only meaningful on FPGAs");
    design_fmax_mhz_ =
        perf::estimate_design_resources(design_kernels, dev_).fmax_mhz;
}

void queue::begin_dataflow() {
    if (in_dataflow_)
        throw std::logic_error("queue: dataflow groups cannot nest");
    // Dataflow groups are their own concurrency construct; on an OOO queue
    // the graph drains first so the group starts from a settled timeline.
    join_graph();
    in_dataflow_ = true;
    emit({.what = kind::group_begin});
}

void queue::abort_dataflow() noexcept {
    // Deferred kernels that never started: drop them, ending the lifetime of
    // any accessor their command groups handed out.
    for (const pending_work& w : pending_work_)
        if (recorder_ != nullptr && w.cg != 0) recorder_->retire(w.cg);
    pending_work_.clear();
    pending_stats_.clear();
    in_dataflow_ = false;
}

void queue::deliver(exception_list errors) {
    if (errors.empty()) return;
    if (handler_) {
        handler_(std::move(errors));
        return;
    }
    std::rethrow_exception(errors[0]);
}

std::vector<event> queue::end_dataflow() {
    if (!in_dataflow_)
        throw std::logic_error("queue: end_dataflow without begin_dataflow");
    in_dataflow_ = false;

    // Pre-launch pipe lint: with the group's submissions complete but no
    // worker started yet, the static topology can be checked before anything
    // can block on a pipe. Under --sanitize=error a group with pipe errors
    // is refused here -- the static complement of the runtime watchdog.
    if (recorder_ != nullptr) {
        const std::string refusal = recorder_->gate_dataflow(timeline_);
        if (!refusal.empty()) {
            abort_dataflow();  // nothing launched yet: drop the group
            emit({.what = kind::group_end});
            record_error("sanitize: pipe topology");
            throw analyze::sanitize_error(refusal);
        }
    }

    // The workers live only in this scope: the jthreads join on every exit
    // path (a failed thread start included) before `failed` and its mutex
    // go away. The work list leaves the queue first, so abort_dataflow()
    // can never retire a command group that already launched.
    std::vector<detail::command_failure> failed;
    {
        std::mutex failed_mutex;
        std::vector<pending_work> work = std::move(pending_work_);
        pending_work_.clear();
        std::vector<std::jthread> workers;
        workers.reserve(work.size());
        for (pending_work& w : work)
            workers.emplace_back([&, w = std::move(w)]() mutable {
                std::optional<detail::command_failure> f = detail::run_command(
                    w.kernel, /*transfer=*/false, w.exec,
                    thread_pool::global(), w.actor, recorder_, w.cg, w.fault);
                if (!f) return;
                f->index = w.index;
                std::lock_guard lock(failed_mutex);
                failed.push_back(std::move(*f));
            });
    }
    if (!failed.empty()) {
        // The join above is a real synchronization point: the group_end
        // closes its happens-before edges (members -> queue -> host).
        emit({.what = kind::group_end});
        pending_stats_.clear();
        merge_failures(failed, "dataflow cancelled");
        exception_list list;
        for (detail::command_failure& f : failed)
            list.push_back(std::move(f.error));
        record_error("dataflow error");
        deliver(std::move(list));
        return {};  // handler consumed the errors; the group produced no work
    }

    // Simulated overlap: every kernel of the group launches together; the
    // group completes with its slowest member. On FPGA all kernels share one
    // bitstream, so without a pinned design each is clocked at the group's.
    const double group_fmax =
        dev_.is_fpga() && design_fmax_mhz_ <= 0.0
            ? perf::estimate_design_resources(pending_stats_, dev_).fmax_mhz
            : 0.0;
    std::vector<double> durations;
    durations.reserve(pending_stats_.size());
    for (const auto& s : pending_stats_)
        durations.push_back(kernel_duration(s, group_fmax));

    const double launch = perf::launch_overhead_ns(rt_, dev_);
    const double submit = sim_now_ns_;
    const double start = submit + launch;
    std::vector<event> evs;
    double group_end = start;
    for (std::size_t i = 0; i < durations.size(); ++i) {
        evs.emplace_back(submit, start, start + durations[i],
                         pending_stats_[i].name);
        group_end = std::max(group_end, start + durations[i]);
    }
    non_kernel_ns_ += launch * static_cast<double>(durations.size());
    kernel_ns_ += group_end - start;  // wall-clock kernel region of the group
    sim_now_ns_ = group_end +
                  launch * std::max<double>(0.0,
                                            static_cast<double>(durations.size()) - 1.0);
    emit({.what = kind::group_end, .t0 = submit, .t1 = start, .start_ns = start,
          .end_ns = group_end, .members = &pending_stats_,
          .durations = &durations});
    if (durations.size() > 1)
        emit({.what = kind::overhead, .t0 = group_end, .t1 = sim_now_ns_,
              .label = "launch drain"});
    pending_stats_.clear();
    return evs;
}

void queue::throw_asynchronous() {
    collect_graph_errors();  // settled-but-undelivered graph node failures
    if (async_errors_.empty()) return;
    exception_list list(std::move(async_errors_));
    async_errors_.clear();
    deliver(std::move(list));
}

void queue::wait() {
    if (in_dataflow_)
        throw std::logic_error("queue: wait() inside a dataflow group -- call "
                               "end_dataflow() first");
    altis::resilience::checkpoint();
    std::size_t graph_pending = 0;
    if (sched_ != nullptr) {
        // The L5 hint keys off how much work this join actually had in
        // front of it, so sample before joining.
        graph_pending = sched_->pending_count();
        join_graph();
    }
    const double sync = perf::sync_overhead_ns(rt_, dev_);
    emit({.what = kind::wait, .graph = sched_ != nullptr, .t0 = sim_now_ns_,
          .t1 = sim_now_ns_ + sync, .label = "wait", .pending = graph_pending});
    sim_now_ns_ += sync;
    non_kernel_ns_ += sync;
    epoch_start_ns_ = sim_now_ns_;
    throw_asynchronous();
}

void queue::annotate_overhead_ns(double ns) {
    emit({.what = kind::overhead, .t0 = sim_now_ns_, .t1 = sim_now_ns_ + ns,
          .label = "overhead"});
    sim_now_ns_ += ns;
    non_kernel_ns_ += ns;
}

event queue::charge_transfer(double bytes, const void* base, bool to_device) {
    try {
        fault::maybe_inject(fault::op_kind::transfer, "transfer",
                            std::to_string(static_cast<long long>(bytes)) +
                                " bytes");
    } catch (const std::exception& e) {
        record_error(std::string("error: ") + e.what());
        throw;
    }
    const double t = perf::transfer_ns(rt_, dev_, bytes);
    emit({.what = kind::transfer, .t0 = sim_now_ns_, .t1 = sim_now_ns_ + t,
          .label = "transfer", .base = base, .bytes = bytes,
          .to_device = to_device});
    const event e(sim_now_ns_, sim_now_ns_, sim_now_ns_ + t);
    sim_now_ns_ += t;
    non_kernel_ns_ += t;
    return e;
}

void queue::reset_timers() {
    // An OOO queue joins first: in-flight nodes still charge the epoch being
    // discarded, never the fresh timers (their errors stay queued).
    join_graph();
    emit({.what = kind::reset});
    sim_now_ns_ = 0.0;
    kernel_ns_ = 0.0;
    non_kernel_ns_ = 0.0;
    epoch_start_ns_ = 0.0;
    epoch_launch_ns_ = 0.0;
}

void queue::charge_setup() {
    const double t = perf::setup_overhead_ns(rt_, dev_);
    emit({.what = kind::setup, .t0 = sim_now_ns_, .t1 = sim_now_ns_ + t});
    sim_now_ns_ += t;
    non_kernel_ns_ += t;
}

}  // namespace syclite
