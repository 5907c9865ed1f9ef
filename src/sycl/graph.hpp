// Out-of-order command graph for syclite (DESIGN.md "Command graph &
// scheduling"). A queue constructed with queue_property::out_of_order hands
// every kernel/transfer submission to a scheduler as a *node*; edges come
// from
//   (a) explicit event dependencies (handler::depends_on),
//   (b) accessor/USM-implied RAW/WAR/WAW conflicts over the declared byte
//       ranges (interval carving over a per-epoch segment map),
//   (c) nothing else -- submission order alone creates no edge.
// Dependency-free nodes dispatch asynchronously onto a thread_pool as posted
// tasks; joining threads (queue::wait, event::wait, buffer write-back) steal
// and run ready nodes themselves, so the graph drains even on a pool with
// zero workers (single-core hosts).
//
// Two-phase submit: enqueue() registers the node *held* and returns a ticket
// with the resolved edges and deterministic simulated start/end (computed on
// the host thread in submission order -- the modeled timeline is identical
// no matter how wall-clock execution interleaves); the queue finishes its
// bookkeeping (observer events, events log) and then release()s the node for
// dispatch. A node's shadow actor is fixed before enqueue (kernels and
// copies alike open a command group first), and the sanitizer starts it
// after the actors of its resolved edges (ticket::dep_actors) on its
// observer event, so nothing runs before its shadow-clock edges exist.
//
// fault/resilience integration: every node runs through
// detail::run_command (sycl/command.hpp) at *dispatch*, so a deadline
// cancels queued-but-unstarted nodes and injected faults surface as an async
// exception_list at the next graph join.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sycl/command.hpp"

namespace syclite::graph {

class scheduler_state;

/// One command handed to the scheduler.
struct submission {
    std::string name;  ///< kernel name; "transfer" for copies
    /// Functional payload; runs once, on a worker or a joining thread.
    detail::small_function<void(thread_pool&)> exec;
    /// Transfers serialize on the modeled PCIe lane (track 1) and inject
    /// op_kind::transfer instead of op_kind::launch.
    bool transfer = false;

    struct byte_range {
        const void* base = nullptr;
        std::size_t bytes = 0;
        bool write = false;
    };
    /// Declared ranges; implied edges are carved from these.
    std::vector<byte_range> ranges;
    /// Explicit dependencies (event::command_id values) -- ids issued by
    /// *this* scheduler only; ids are per-scheduler counters, so the caller
    /// must resolve foreign-graph events itself (queue::finish_submit_graph
    /// waits on them). Unknown or already retired ids are ignored -- they
    /// are complete by construction.
    std::vector<std::uint64_t> after;

    double submit_ns = 0.0;    ///< simulated time the host issued the node
    double duration_ns = 0.0;  ///< modeled device time of the node

    std::uint64_t cg = 0;  ///< recorder command-group id (0: none)
    int actor = -1;        ///< shadow actor bound around execution
    altis::analyze::recorder* recorder = nullptr;  ///< for cg retirement
};

/// Resolved placement of an enqueued node.
struct ticket {
    std::uint64_t id = 0;
    double start_ns = 0.0;  ///< max(submit, dep ends, lane availability)
    double end_ns = 0.0;
    int lane = 1;  ///< trace track: 1 = transfer lane, >= 2 = kernel lanes
    std::vector<std::uint64_t> deps;  ///< resolved edges (explicit + implied)
    std::vector<int> dep_actors;      ///< shadow actors of those deps
};

class scheduler {
public:
    /// `pool` receives ready-node dispatch tasks; it must outlive the
    /// scheduler (or be swapped out with set_pool before dying). With zero
    /// workers nothing is posted and joins run everything inline.
    explicit scheduler(thread_pool* pool);
    ~scheduler();

    scheduler(const scheduler&) = delete;
    scheduler& operator=(const scheduler&) = delete;

    [[nodiscard]] ticket enqueue(submission s);
    /// Makes a held node dispatchable. Must be called exactly once per
    /// enqueue, after the caller finished its submit-side bookkeeping.
    void release(std::uint64_t id);

    /// Joins the whole graph: the calling thread runs ready nodes until
    /// every node of the current epoch settled.
    void wait_all();

    /// Commands enqueued since the last reset_epoch (the L5 "pending" count
    /// a wait node records).
    [[nodiscard]] std::size_t pending_count() const;
    /// Latest simulated end across the current epoch's nodes.
    [[nodiscard]] double horizon_ns() const;
    /// Summed modeled duration across the current epoch's nodes (overlap
    /// ratio numerator).
    [[nodiscard]] double busy_ns() const;
    /// Per-lane kernel intervals of the epoch, for the queue's kernel-time
    /// union fold: (start, end) pairs of kernel (non-transfer) nodes.
    [[nodiscard]] std::vector<std::pair<double, double>> kernel_spans() const;

    /// Settled nodes that failed or were cancelled, in settle order;
    /// removes them from the log (each error is delivered once).
    [[nodiscard]] std::vector<detail::command_failure> drain_errors();

    /// Forgets the epoch (nodes, segment map, lanes). Requires every node
    /// settled -- call after wait_all(). Ids keep growing monotonically, so
    /// events from earlier epochs remain valid (and report complete).
    void reset_epoch();

    void set_pool(thread_pool* pool);

    /// Shared state handle for events (event::wait joins through it).
    [[nodiscard]] const std::shared_ptr<scheduler_state>& state() const {
        return state_;
    }

private:
    std::shared_ptr<scheduler_state> state_;
};

/// Targeted join: runs/awaits node `id` and (transitively through its edges)
/// everything it depends on. Ids from reset epochs are already complete.
/// Records the host-side shadow join for the node's actor when a recorder
/// captured it. Safe from any thread.
void wait_node(const std::shared_ptr<scheduler_state>& st, std::uint64_t id);

}  // namespace syclite::graph
