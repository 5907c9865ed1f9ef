// Queue, event and the simulated timeline. Kernels execute functionally on
// the host; each submission advances a simulated clock using the perf models
// of the queue's device and runtime (DESIGN.md Sec. 4):
//
//   submit --(launch overhead: non-kernel)--> start --(kernel model)--> end
//
// Events expose the simulated start/end like sycl::event profiling info.
// Dataflow groups (begin_dataflow/end_dataflow) run their kernels on real
// concurrent threads -- required for pipe communication -- and overlap them
// on the simulated timeline (paper Fig. 3).
//
// One command core (sycl/command.hpp): every submission passes one prologue
// (submit-latency metering, the empty-command-group early-out) and then gets
// one of three dispositions -- run now (in-order), defer to the gang launch
// at end_dataflow() (dataflow group), or enqueue as a graph node
// (out-of-order). Whichever thread finally executes the command calls
// detail::run_command, so all three engines share one checkpoint / fault
// point / in-flight gauge / shadow actor / retire sequence, and the two
// deferred joins share one failure merge (merge_failures).
//
// Observers (DESIGN.md Sec. 4): the queue snapshots the command-stream
// subscriber set at construction (core/command_stream.hpp) and reports each
// command to it exactly once -- trace spans, sanitizer nodes and queue
// metrics are all built by the subscribers from the same events. The only
// direct sanitizer calls left are the ones that hand out identity or change
// what runs: opening a command group (and retiring it), the shadow-actor
// binding around execution, and the pre-launch pipe gate.
//
// Error model (SYCL-conformant, see sycl/error.hpp): a queue may carry an
// async_handler. Errors raised by kernel execution -- including injected
// faults from an active altis::fault plan -- are then collected and
// delivered as an exception_list at wait()/end_dataflow() boundaries, in
// submission order, and the queue remains usable. Without a handler the
// first error is (re)thrown at the point it is observed.
//
// Queue properties (sycl::property::queue analogue): the default in_order
// queue executes every submission eagerly and synchronously, exactly as
// before the command graph existed. queue_property::out_of_order routes
// kernels and copies through a graph::scheduler instead -- edges from
// handler::depends_on events and accessor/USM-implied conflicts, ready nodes
// dispatched asynchronously on the thread pool, errors delivered as an
// exception_list at the next graph join (wait()/throw_asynchronous). See
// sycl/graph.hpp and DESIGN.md "Command graph & scheduling".
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "perf/device.hpp"
#include "perf/overhead.hpp"
#include "sycl/error.hpp"
#include "sycl/event.hpp"
#include "sycl/graph.hpp"
#include "core/command_stream.hpp"
#include "sycl/handler.hpp"

namespace syclite {

namespace stream = altis::stream;

/// Execution-ordering property fixed at queue construction.
enum class queue_property {
    in_order,      ///< eager synchronous execution in submission order
    out_of_order,  ///< DAG scheduler; only declared dependencies order work
};

class queue {
public:
    explicit queue(const perf::device_spec& dev,
                   perf::runtime_kind rt = perf::runtime_kind::sycl,
                   async_handler handler = {},
                   queue_property prop = queue_property::in_order);
    queue(const std::string& device_name,
          perf::runtime_kind rt = perf::runtime_kind::sycl,
          async_handler handler = {},
          queue_property prop = queue_property::in_order);
    queue(const perf::device_spec& dev, queue_property prop)
        : queue(dev, perf::runtime_kind::sycl, {}, prop) {}
    queue(const std::string& device_name, queue_property prop)
        : queue(device_name, perf::runtime_kind::sycl, {}, prop) {}
    ~queue();

    queue(const queue&) = delete;
    queue& operator=(const queue&) = delete;

    [[nodiscard]] const perf::device_spec& device() const { return dev_; }
    [[nodiscard]] perf::runtime_kind runtime() const { return rt_; }
    [[nodiscard]] bool is_in_order() const { return sched_ == nullptr; }

    /// Installs (or clears) the asynchronous error handler; see the header
    /// comment for the delivery contract.
    void set_async_handler(async_handler handler) {
        handler_ = std::move(handler);
    }

    template <typename CGF>
    event submit(CGF&& cgf) {
        handler h;
        h.begin_capture(recorder_, /*track_ranges=*/sched_ != nullptr);
        cgf(h);
        return finish_submit(std::move(h));
    }

    /// Host synchronization (cudaDeviceSynchronize / queue::wait analogue);
    /// charges sync overhead to the non-kernel region, then delivers any
    /// pending asynchronous errors (sycl::queue::wait_and_throw semantics).
    void wait();

    /// Delivers pending asynchronous errors without synchronizing: calls the
    /// async_handler with the accumulated exception_list, or rethrows the
    /// first pending error when no handler is installed. No-op when clean.
    void throw_asynchronous();

    /// All kernels submitted until end_dataflow() run concurrently (real
    /// threads; pipes may connect them) and overlap on the simulated
    /// timeline. Nesting is not allowed. Prefer dataflow_guard (below) so an
    /// exception cannot leave the group latched open.
    void begin_dataflow();
    /// Joins the dataflow kernels and returns their events. Worker errors
    /// are delivered here: pipe deadlocks are merged into one structured
    /// dataflow_error naming every blocked kernel; with an async_handler the
    /// full list arrives in submission order and the queue stays usable.
    std::vector<event> end_dataflow();
    /// Abandons an open dataflow group: retires the kernels that never
    /// launched and discards their pending stats. Safe to call when no group
    /// is open. Used by dataflow_guard on exception escape.
    void abort_dataflow() noexcept;

    /// Modeled host->device / device->host copies; mirror the cudaMemcpy
    /// calls of the original Altis code. Functionally a memcpy (buffers are
    /// host-backed); on the timeline a PCIe transfer. T must be trivially
    /// copyable (SYCL 2020 device-copyable). Large spans take
    /// thread_pool::copy -- chunked parallel memcpy jobs on the pool.
    /// Wall-clock only: the simulated PCIe charge from annotate_transfer is
    /// identical either way.
    template <typename T>
    event copy_to_device(buffer<T>& dst, const T* src) {
        return transfer(/*to_device=*/true, dst.host_data(), src, dst.size());
    }
    template <typename T>
    event copy_from_device(const buffer<T>& src, T* dst) {
        return transfer(/*to_device=*/false, dst, src.host_data(), src.size());
    }
    /// Timing-only transfer annotation (no functional copy); also the
    /// injection point for `transfer` faults.
    void annotate_transfer(double bytes) { charge_transfer(bytes); }

    /// Charge arbitrary non-kernel time (library temp allocations, etc.).
    void annotate_overhead_ns(double ns);

    /// FPGA only: pin the design Fmax to that of a full bitstream (all
    /// kernels compiled together); subsequent kernel timings use it instead
    /// of per-kernel estimates. Matches simulate_region's design-level Fmax.
    void set_design(const std::vector<perf::kernel_stats>& design_kernels);

    // ---- simulated timeline ----
    [[nodiscard]] double sim_now_ns() const { return sim_now_ns_; }
    [[nodiscard]] double kernel_ns() const { return kernel_ns_; }
    [[nodiscard]] double non_kernel_ns() const { return non_kernel_ns_; }
    void reset_timers();
    /// Charges the runtime's one-time setup cost (context/JIT) to the
    /// non-kernel region; apps call this at the start of a timed region.
    void charge_setup();

    /// Replaces the thread pool the graph scheduler dispatches ready nodes
    /// onto (default: thread_pool::global()). Benchmarks hand in a dedicated
    /// multi-worker pool to measure overlap on single-core hosts. The pool
    /// must outlive the queue or be swapped out again before dying. No-op on
    /// in-order queues.
    void set_graph_pool(thread_pool* pool) {
        if (sched_ != nullptr) sched_->set_pool(pool);
    }

private:
    /// One dataflow kernel accepted but not yet started: under a dataflow
    /// group, submissions are deferred and launched together at
    /// end_dataflow(), which lets the sanitizer lint the group's complete
    /// pipe topology before any worker thread can block on a pipe.
    struct pending_work {
        std::size_t index = 0;
        std::uint64_t cg = 0;  ///< recorder command-group id (0: none)
        std::string kernel;
        detail::small_function<void(thread_pool&)> exec;
        int actor = -1;  ///< shadow actor bound around execution (-1: none)
        std::optional<altis::fault::hit> fault;  ///< probed at submission
    };

    /// The body of both copy directions; the device side is the buffer.
    template <typename T>
    event transfer(bool to_device, T* dst, const T* src, std::size_t n) {
        static_assert(std::is_trivially_copyable_v<T>,
                      "transferred elements must be device-copyable "
                      "(trivially copyable, as SYCL 2020 requires)");
        const std::size_t bytes = n * sizeof(T);
        if (sched_ != nullptr) {
            // Asynchronous on the graph: a node ordered after conflicting
            // in-flight commands by the implied-edge machinery. Write-back
            // is a targeted join: waiting on the copy node drains exactly
            // the chain of producers of the buffer's range.
            event e = submit_transfer_graph(to_device, dst, src, bytes);
            if (!to_device) e.wait();
            return e;
        }
        const event e = charge_transfer(static_cast<double>(bytes),
                                        to_device ? dst : src, to_device);
        thread_pool::global().copy(dst, src, bytes);
        return e;
    }

    /// submit()'s shared prologue, then the command's disposition: run now
    /// (in-order), defer (dataflow group) or enqueue (finish_submit_graph).
    event finish_submit(handler&& h);
    /// Out-of-order disposition: two-phase enqueue onto the graph scheduler
    /// (enqueue -> recorder/trace/events bookkeeping -> release).
    event finish_submit_graph(handler& h);
    /// Modeled device time of one kernel. FPGA kernels are clocked at
    /// `fmax_mhz` if positive, else at the pinned design Fmax (set_design),
    /// else at their own estimate.
    [[nodiscard]] double kernel_duration(const perf::kernel_stats& stats,
                                         double fmax_mhz = 0.0) const;
    /// The submit event of a kernel: the handler's declared accesses and
    /// pipe endpoints go to the sanitizer with it.
    [[nodiscard]] stream::event submit_event(handler& h);
    /// Reports `e` on this queue's timeline to the snapshotted observers.
    void emit(stream::event e) const {
        e.timeline = timeline_;
        obs_.emit(e);
    }
    /// The PCIe charge of a copy, returned as the copy's event; `base` is
    /// its device side (null for a timing-only annotation).
    event charge_transfer(double bytes, const void* base = nullptr,
                          bool to_device = false);
    /// Async copy as a graph node. The buffer side (`dst_ptr` when
    /// `to_device`, else `src_ptr`) is the conflict identity kernels declare.
    event submit_transfer_graph(bool to_device, void* dst_ptr,
                                const void* src_ptr, std::size_t bytes);
    /// Joins the whole graph and folds its modeled timeline into the queue
    /// clocks; queues node errors for async delivery (cancellation rethrows)
    /// and starts a fresh epoch. No-op on in-order queues.
    void join_graph();
    /// Moves settled node failures into async_errors_ (submission order)
    /// without joining; rethrows directly on cancellation.
    void collect_graph_errors();
    /// The one join-side failure merge (dataflow groups and graph epochs):
    /// sorts `failed` by submission index; if anything was cancelled,
    /// records `cancel_label` and rethrows that cancellation -- the
    /// supervisor pulled the plug, so every other failure is collateral;
    /// otherwise folds the pipe deadlocks into one leading dataflow_error
    /// naming every blocked kernel.
    void merge_failures(std::vector<detail::command_failure>& failed,
                        const char* cancel_label);
    /// Charges and returns the kernel event; when `name` is non-null its
    /// string is moved into the event instead of copying stats.name
    /// (submissions own their handler, so finish_submit can donate the name
    /// it no longer needs).
    event record(const perf::kernel_stats& stats, double duration_ns,
                 std::string* name = nullptr);
    /// A failed operation at the current simulated time.
    void record_error(const std::string& label);
    void deliver(exception_list errors);

    const perf::device_spec& dev_;
    perf::runtime_kind rt_;
    double design_fmax_mhz_ = 0.0;  ///< 0: estimate per kernel

    double sim_now_ns_ = 0.0;
    double kernel_ns_ = 0.0;
    double non_kernel_ns_ = 0.0;

    async_handler handler_;
    /// Errors from sequential submissions awaiting delivery (handler set).
    std::vector<std::exception_ptr> async_errors_;

    bool in_dataflow_ = false;
    std::vector<perf::kernel_stats> pending_stats_;
    std::vector<pending_work> pending_work_;

    /// Observers snapshotted at construction and this queue's timeline id
    /// on the stream (-1: unobserved).
    stream::observers obs_;
    int timeline_ = -1;
    /// The sanitizer behind the direct hooks (null: not sanitizing).
    analyze::recorder* recorder_ = nullptr;

    /// Non-null iff constructed queue_property::out_of_order.
    std::unique_ptr<graph::scheduler> sched_;
    /// Simulated time the current graph epoch opened at; the overlap metric
    /// compares the epoch's modeled busy time against horizon - this.
    double epoch_start_ns_ = 0.0;
    /// Launch overhead already charged to non_kernel_ns_ this epoch, so the
    /// join's remainder fold does not double-count it.
    double epoch_launch_ns_ = 0.0;
};

/// RAII dataflow group: begins the group on construction; join() ends it and
/// returns the events. If the scope unwinds before join() -- a kernel threw,
/// an allocation failed -- the group is aborted instead of leaving the queue
/// latched in dataflow mode.
class dataflow_guard {
public:
    explicit dataflow_guard(queue& q) : q_(q) { q.begin_dataflow(); }
    ~dataflow_guard() {
        if (open_) q_.abort_dataflow();
    }
    dataflow_guard(const dataflow_guard&) = delete;
    dataflow_guard& operator=(const dataflow_guard&) = delete;

    /// Ends the group (see queue::end_dataflow). May throw; the guard is
    /// disarmed first, so the queue is never left latched.
    std::vector<event> join() {
        open_ = false;
        return q_.end_dataflow();
    }

private:
    queue& q_;
    bool open_ = true;
};

}  // namespace syclite
