// One stream of command events (DESIGN.md Sec. 4). The runtime reports what
// happens to each command exactly once -- syclite::queue, simulate_region,
// the USM allocator and the sanitizer's finish step emit -- and the three
// observers subscribe: trace::session turns events into spans,
// analyze::recorder into command-graph nodes, metrics::session into queue
// counters. Emitters never know who listens.
//
// Wiring: one process-wide subscriber set with one slot per observer kind,
// behind one gate. Installing an observer (trace::session::scope,
// analyze::recorder::scope, a live metrics::session) fills its slot; a queue
// snapshots the set at construction, so an observer installed around queue
// construction sees every command of that queue (so a subscriber must
// outlive the queues that snapshotted it). With every slot empty, an
// emit site costs one relaxed load (process-wide emitters) or one test of
// the queue's snapshot.
//
// This header sits in core so that sycl, trace, analyze and metrics can all
// include it; the few payload types it names are only forward-declared.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

namespace altis::perf {
struct kernel_stats;
struct device_spec;
}  // namespace altis::perf

namespace altis::analyze {
struct mem_access;
struct pipe_endpoint;
}  // namespace altis::analyze

namespace altis::stream {

enum class kind : std::uint8_t {
    open,         ///< queue constructed / region simulation starts
    reset,        ///< queue::reset_timers: the timeline restarts at 0
    close,        ///< queue destroyed / region simulation ends (at t0)
    setup,        ///< one-time runtime setup [t0, t1]
    overhead,     ///< other non-kernel charge [t0, t1], named by `label`
    submit,       ///< kernel accepted: the sanitizer's capture payload
    kernel,       ///< kernel placed: launch window [t0, t1], kernel itself
                  ///< [start_ns, end_ns]
    transfer,     ///< PCIe copy [t0, t1]
    wait,         ///< host sync [t0, t1] (queue::wait, a region's syncs)
    epoch,        ///< graph join: the epoch [t0, t1] and its kernel union
    group_begin,  ///< dataflow group opened
    group_end,    ///< dataflow group ended: launch window [t0, t1], envelope
                  ///< [start_ns, end_ns], one lane per member (none when
                  ///< the group failed or was refused)
    error,        ///< failed operation at t0, described by `label`
    usm_alloc,
    usm_free,
    simulated_kernel,  ///< analytic descriptor (perf-lint input only)
    finding,           ///< sanitizer finding, described by `label`
};

[[nodiscard]] constexpr std::uint32_t bit(kind k) {
    return 1u << static_cast<unsigned>(k);
}

/// One command event. Times are on the emitting timeline's own simulated
/// clock: each queue and each simulated region starts at 0, and the trace
/// session lays timelines out one after another. Which fields are set
/// depends on the kind; pointers are borrowed for the duration of the call.
struct event {
    kind what = kind::overhead;
    int timeline = -1;       ///< queue/region id; -1: not on a timeline
    bool simulated = false;  ///< emitted by simulate_region, not a queue
    bool graph = false;      ///< out-of-order queue command
    double t0 = 0.0;
    double t1 = 0.0;
    double start_ns = 0.0;
    double end_ns = 0.0;
    std::string_view label{};
    const perf::device_spec* device = nullptr;
    const perf::kernel_stats* stats = nullptr;
    double invocations = 1.0;  ///< launches (copies) one event aggregates
    int lane = 0;              ///< timeline lane (0: the sequential one)
    std::uint64_t cmd = 0;     ///< graph command id (0: none)
    const std::vector<std::uint64_t>* deps = nullptr;  ///< graph edges
    const void* base = nullptr;  ///< transfer (device side) / USM block
    double bytes = 0.0;
    bool to_device = false;
    std::uint64_t generation = 0;  ///< USM block generation
    std::uint64_t cg = 0;          ///< command group (submit)
    bool dataflow = false;         ///< submitted inside a dataflow group
    /// Declared accesses and pipe endpoints of a submission; the sanitizer
    /// takes them (they are the handler's, which is done with them).
    std::vector<analyze::mem_access>* accesses = nullptr;
    std::vector<analyze::pipe_endpoint>* pipes = nullptr;
    const std::vector<int>* dep_actors = nullptr;  ///< shadow actors of deps
    /// Graph transfers: the sanitizer writes the copy's shadow actor here.
    int* actor = nullptr;
    /// Dataflow group members and their lane durations (group_end).
    const std::vector<perf::kernel_stats>* members = nullptr;
    const std::vector<double>* durations = nullptr;
    /// Union of an epoch's kernel intervals (epoch).
    const std::vector<std::pair<double, double>>* spans = nullptr;
    double busy_ns = 0.0;      ///< epoch: summed modeled node time
    std::size_t pending = 0;   ///< graph wait: commands it had to join
};

class subscriber {
public:
    /// `interests`: mask of bit(kind) this subscriber handles.
    explicit subscriber(std::uint32_t interests) : interests_(interests) {}
    virtual ~subscriber() = default;
    subscriber(const subscriber&) = default;
    subscriber& operator=(const subscriber&) = default;

    virtual void on_event(const event& e) = 0;
    [[nodiscard]] std::uint32_t interests() const { return interests_; }

private:
    std::uint32_t interests_;
};

enum class slot : std::uint8_t { trace, sanitize, metrics };
inline constexpr std::size_t slot_count = 3;

/// A snapshot of the subscriber set.
class observers {
public:
    [[nodiscard]] explicit operator bool() const { return mask_ != 0; }
    [[nodiscard]] bool wants(kind k) const { return (mask_ & bit(k)) != 0; }
    void set(slot s, subscriber* sub) {
        subs_[static_cast<std::size_t>(s)] = sub;
        mask_ = 0;
        for (const subscriber* p : subs_)
            if (p != nullptr) mask_ |= p->interests();
    }
    void emit(const event& e) const {
        if (!wants(e.what)) return;
        for (subscriber* p : subs_)
            if (p != nullptr && (p->interests() & bit(e.what)) != 0)
                p->on_event(e);
    }

private:
    std::array<subscriber*, slot_count> subs_{};
    std::uint32_t mask_ = 0;
};

namespace detail {

/// The one observer global: the slots, the gate (union of the installed
/// subscribers' interests) and the timeline id counter.
struct subscriber_set {
    std::array<std::atomic<subscriber*>, slot_count> slots{};
    std::atomic<std::uint32_t> gate{0};
    std::atomic<int> next_timeline{0};
};
inline subscriber_set g_set;

}  // namespace detail

[[nodiscard]] inline bool wanted(kind k) {
    return (detail::g_set.gate.load(std::memory_order_relaxed) & bit(k)) != 0;
}

[[nodiscard]] inline subscriber* installed(slot s) {
    return detail::g_set.slots[static_cast<std::size_t>(s)].load(
        std::memory_order_acquire);
}

/// Installs `sub` in its slot (nullptr clears it); returns the previous
/// occupant.
inline subscriber* install(slot s, subscriber* sub) {
    subscriber* prev = detail::g_set.slots[static_cast<std::size_t>(s)].exchange(
        sub, std::memory_order_acq_rel);
    std::uint32_t mask = 0;
    for (const auto& p : detail::g_set.slots)
        if (const subscriber* q = p.load(std::memory_order_acquire))
            mask |= q->interests();
    detail::g_set.gate.store(mask, std::memory_order_relaxed);
    return prev;
}

[[nodiscard]] inline observers current() {
    observers o;
    if (detail::g_set.gate.load(std::memory_order_relaxed) == 0) return o;
    for (std::size_t i = 0; i < slot_count; ++i)
        o.set(static_cast<slot>(i), installed(static_cast<slot>(i)));
    return o;
}

/// Fresh id for a new timeline (queue or simulated region).
[[nodiscard]] inline int next_timeline() {
    return detail::g_set.next_timeline.fetch_add(1, std::memory_order_relaxed);
}

/// Emits to the process-wide set, for emitters without a queue snapshot
/// (USM allocation, sanitizer findings).
inline void emit(const event& e) {
    if (wanted(e.what)) current().emit(e);
}

}  // namespace altis::stream
