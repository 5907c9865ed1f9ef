// Completed- or pending-command handle with simulated profiling timestamps.
// Kernel events carry the kernel's descriptor name; transfer events carry
// the empty string, so an event describes its command even without a trace
// session attached.
//
// On in-order queues an event is always complete by the time the caller
// holds it and wait() is a no-op. On out-of-order queues (queue_property::
// out_of_order) the event additionally references its command node in the
// queue's graph scheduler: wait() becomes a targeted graph join that runs or
// awaits the node and -- through the graph's edges -- everything it depends
// on, without draining unrelated commands. The simulated timestamps are
// final either way: the scheduler assigns them deterministically at submit.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

namespace syclite {

namespace graph {
class scheduler_state;
}  // namespace graph

class event {
public:
    event() = default;
    event(double submit_ns, double start_ns, double end_ns,
          std::string name = {})
        : name_(std::move(name)),
          submit_ns_(submit_ns),
          start_ns_(start_ns),
          end_ns_(end_ns) {}
    /// Graph-command event (out-of-order queues): keeps the scheduler state
    /// alive so wait() works even after the owning queue advanced epochs.
    event(double submit_ns, double start_ns, double end_ns, std::string name,
          std::uint64_t cmd, std::shared_ptr<graph::scheduler_state> graph)
        : name_(std::move(name)),
          submit_ns_(submit_ns),
          start_ns_(start_ns),
          end_ns_(end_ns),
          cmd_(cmd),
          graph_(std::move(graph)) {}

    /// Kernel name from perf::kernel_stats; empty for transfers/overhead.
    [[nodiscard]] const std::string& name() const { return name_; }

    /// Analogue of info::event_profiling::command_submit/start/end.
    [[nodiscard]] double profiling_submit_ns() const { return submit_ns_; }
    [[nodiscard]] double profiling_start_ns() const { return start_ns_; }
    [[nodiscard]] double profiling_end_ns() const { return end_ns_; }
    [[nodiscard]] double duration_ns() const { return end_ns_ - start_ns_; }

    /// Graph command id (0: in-order command, complete on construction).
    /// handler::depends_on uses it to add an explicit edge.
    [[nodiscard]] std::uint64_t command_id() const { return cmd_; }

    /// Scheduler state of the graph that produced this command (null for
    /// in-order events). Command ids are per-scheduler counters, so an id is
    /// only meaningful together with this handle: handler::depends_on keeps
    /// both, and the queue resolves same-graph ids as edges while waiting on
    /// foreign-graph events instead of misattaching their ids.
    [[nodiscard]] const std::shared_ptr<graph::scheduler_state>& graph_state()
        const {
        return graph_;
    }

    /// In-order commands: no-op (execution was synchronous). Graph commands:
    /// functional join of this node and, transitively, its dependencies --
    /// the calling thread helps run ready nodes. Errors stay queued for the
    /// owning queue's wait()/throw_asynchronous(), mirroring SYCL's
    /// asynchronous delivery contract. Defined in graph.cpp.
    void wait() const;

private:
    std::string name_;
    double submit_ns_ = 0.0;
    double start_ns_ = 0.0;
    double end_ns_ = 0.0;
    std::uint64_t cmd_ = 0;
    std::shared_ptr<graph::scheduler_state> graph_;
};

}  // namespace syclite
