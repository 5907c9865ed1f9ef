// Observed-access shadow tracking -- the capture half of the ALS-R*/ALS-D1
// race rules. While a sanitize session is active, accessor element accesses,
// instrumented USM reads/writes (observe_read/observe_write) and buffer
// transfers are recorded as byte intervals, each stamped with the vector
// clock of the actor that made it. Every command is an actor; three events
// order them: a command starts after a set of actors (start), the host
// joins a set (join_host), and pipe counter publications order a consumer
// after its producer. Which set each queue engine passes is the recorder's
// choice (recorder.hpp).
//
// Cost model (mirrors metrics::collecting()): with no recorder current the
// hooks are one relaxed atomic load and a never-taken branch -- no shadow
// cell is allocated, nothing is logged (the zero-overhead contract pinned by
// tests/analyze/test_race.cpp). With a session active, accesses coalesce in
// two thread-local levels that take no lock: a 6-slot run table extends
// adjacent/overlapping accesses of one actor and mode in place, and a run it
// evicts or closes joins the thread's exact interval union for its (actor,
// mode). A thread hands its unions to the store -- one mutex acquisition for
// the batch -- at the end of each pool job, on a clock event of the calling
// thread, at session teardown and at thread exit. The store keeps one exact
// union per (actor, mode, clock), so it holds the canonical interval set the
// race passes read, and never a raw log.
//
// Soundness invariant: an actor's clock is only ever advanced from the
// actor's own thread (pipe publish/consume) or from the host thread, for the
// host's own clock (join_host) or a command that has not run yet (start),
// and every such event first flushes the calling thread's runs and unions. A
// pool worker flushes before its job retires, while the job's actor waits
// for the drain. Accesses therefore reach the store under the exact clock
// they were made under.
#pragma once

#include <atomic>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "analyze/clock.hpp"

namespace altis::analyze::shadow {

class store;

/// Actor 0 is the host thread; kernel submissions get actors > 0.
inline constexpr int kHostActor = 0;
/// "No actor": hooks fire as the host, and actor_scope is a no-op.
inline constexpr int kNoActor = -1;

namespace detail {

/// Store of the process-wide current sanitize session (published by
/// recorder::set_current); null means every hook is a cheap no-op.
inline std::atomic<store*> g_store{nullptr};  // NOLINT(cppcoreguidelines-avoid-non-const-global-variables)

/// Actor executing on this thread. The queue binds it around kernel
/// execution; the thread pool propagates it to workers per job.
inline thread_local int tl_actor = kHostActor;  // NOLINT(cppcoreguidelines-avoid-non-const-global-variables)

/// Process-lifetime count of intervals flushed into any store -- the
/// zero-overhead contract's witness: with no session active it must not
/// move, no matter how many accessor elements are dereferenced.
inline std::atomic<std::uint64_t> g_intervals_flushed{0};  // NOLINT(cppcoreguidelines-avoid-non-const-global-variables)

/// Out-of-line slow path: coalesce [base+off, base+off+len) into the
/// calling thread's run table for `s`.
void record(store* s, const void* base, std::size_t off, std::size_t len,
            bool write);

void set_current_store(store* s);

/// Hands the calling thread's open runs and interval unions to `s`.
void flush_thread(store* s);

/// One thread's run table and interval unions (defined in shadow.cpp).
struct thread_runs;
void flush_table(thread_runs& tr, store* s);

}  // namespace detail

/// True while a sanitize session records observed accesses.
[[nodiscard]] inline bool tracking() {
    return detail::g_store.load(std::memory_order_acquire) != nullptr;
}

[[nodiscard]] inline int current_actor() { return detail::tl_actor; }

/// Binds the executing actor to the current thread (RAII). kNoActor leaves
/// the binding untouched -- the hot constructor is two thread-local writes
/// and is used unconditionally on the kernel dispatch path.
class actor_scope {
public:
    explicit actor_scope(int actor) : prev_(detail::tl_actor) {
        if (actor >= 0) detail::tl_actor = actor;
    }
    ~actor_scope() { detail::tl_actor = prev_; }
    actor_scope(const actor_scope&) = delete;
    actor_scope& operator=(const actor_scope&) = delete;

private:
    int prev_;
};

/// Accessor hot-path hook (accessor::operator[]): no-op without a session.
inline void on_accessor_access(const void* base, std::size_t off,
                               std::size_t len, bool write) {
    store* s = detail::g_store.load(std::memory_order_acquire);
    if (s == nullptr) return;
    detail::record(s, base, off, len, write);
}

/// Instrumented-app USM hooks: a kernel (or host code) touching raw USM
/// memory records the access here; the declaration-drift rule ALS-D1 then
/// checks it against what the command group declared via uses_usm().
inline void observe_read(const void* ptr, std::size_t bytes) {
    on_accessor_access(ptr, 0, bytes, /*write=*/false);
}
inline void observe_write(const void* ptr, std::size_t bytes) {
    on_accessor_access(ptr, 0, bytes, /*write=*/true);
}

/// Pool job-end hook (thread_pool::run_job): the worker's coalesced
/// accesses reach the store before the job retires. No-op without a session.
inline void on_job_end() {
    store* s = detail::g_store.load(std::memory_order_acquire);
    if (s == nullptr) return;
    detail::flush_thread(s);
}

/// Pipe counter-publication hooks (SPSC monotonic positions, elements in
/// [from, to)). Publish snapshots the producer's clock *before* ticking it,
/// so the snapshot covers everything the producer did up to and including
/// the published items; consume joins the covering snapshot into the
/// consumer *before* ticking, so everything the consumer does next
/// happens-after the production of what it read. Gate on tracking() first.
void on_pipe_publish(const void* pipe, const char* name, std::uint64_t from,
                     std::uint64_t to);
void on_pipe_consume(const void* pipe, const char* name, std::uint64_t from,
                     std::uint64_t to);

/// Absolute byte range [lo, hi).
struct byte_range {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
};

/// One observed-access interval: absolute byte range [lo, hi), stamped with
/// the acting actor and its interned clock snapshot.
struct interval {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    int actor = kHostActor;
    bool write = false;
    std::uint32_t clock = 0;  ///< index into store::clocks()
};

/// Producer-side publication: ring positions up to `upto` are covered by
/// clock snapshot `clock`.
struct pipe_pub {
    std::uint64_t upto = 0;
    std::uint32_t clock = 0;
};

/// Consumer-side receive of positions [from, to).
struct pipe_recv {
    std::uint64_t from = 0;
    std::uint64_t to = 0;
};

/// Everything observed about one pipe (keyed by the pipe object's address,
/// matching handler::reads_pipe/writes_pipe declarations).
struct pipe_log {
    std::string name;
    int producer = kNoActor;  ///< actor observed publishing
    int consumer = kNoActor;  ///< actor observed consuming
    std::deque<pipe_pub> pubs;  ///< not yet fully consumed publications
    std::vector<pipe_recv> recvs;
};

/// The shadow store of one sanitize session (owned by analyze::recorder).
/// All state is guarded by one mutex; only the thread-local run tables and
/// unions in shadow.cpp are lock-free.
class store {
public:
    store();
    ~store();
    store(const store&) = delete;
    store& operator=(const store&) = delete;

    // ---- clock events (called by the recorder on the host thread) ----

    /// Allocates the next actor ordinal (one per command).
    int new_actor();
    /// Names an actor after its kernel (reported in findings).
    void name_actor(int actor, const std::string& kernel);
    /// The command `actor` starts: it joins the host clock and the current
    /// clock of every actor in `after` (the commands it runs after), then
    /// ticks; then the host ticks.
    void start(int actor, std::span<const int> after);
    /// The host synchronized with `actors`: it joins their clocks, then
    /// ticks.
    void join_host(std::span<const int> actors);
    /// A copy touching [base, base+bytes), recorded as an access by `actor`
    /// (the host, or a graph copy's own actor) under its current clock.
    void on_transfer(int actor, const void* base, std::size_t bytes,
                     bool write);
    /// Registers a declared memory region (accessor span, USM allocation,
    /// observe_* target): the source of the stable "mem#N" labels findings
    /// use instead of raw (ASLR-dependent) pointers.
    void register_region(const void* base, std::size_t bytes);

    /// Flushes every thread's open runs and unions for this store
    /// (idempotent; called when the session stops being current and before
    /// analysis).
    void finalize();

    // ---- analysis-side API (after finalize) ----

    /// All intervals, one per maximal range of each (actor, write, clock)
    /// union, ordered by (lo, hi, actor, write): a merge walk over the
    /// unions. Deterministic across runs even though pool workers carve up
    /// kernels nondeterministically.
    [[nodiscard]] std::vector<interval> merged_intervals() const;
    /// a happens-before b? Lock-free: analysis runs after finalize(), when
    /// nothing records into the store any more.
    [[nodiscard]] bool hb(const interval& a, const interval& b) const {
        // a's local time at the access is its own component in its snapshot;
        // b has seen it iff b's snapshot carries at least that component.
        const auto actor = static_cast<std::size_t>(a.actor);
        return clocks_[b.clock].get(actor) >= clocks_[a.clock].get(actor);
    }
    [[nodiscard]] const std::string& actor_name(int actor) const;
    /// Stable label for [lo, hi): "mem#N[a..b)" relative to the containing
    /// registered region, or a hex fallback for wild ranges.
    [[nodiscard]] std::string label_range(std::uint64_t lo,
                                          std::uint64_t hi) const;
    [[nodiscard]] const std::unordered_map<const void*, pipe_log>& pipe_logs()
        const {
        return pipes_;
    }
    /// Number of intervals merged_intervals() returns.
    [[nodiscard]] std::size_t interval_count() const;

private:
    friend void detail::flush_table(detail::thread_runs&, store*);
    friend void on_pipe_publish(const void*, const char*, std::uint64_t,
                                std::uint64_t);
    friend void on_pipe_consume(const void*, const char*, std::uint64_t,
                                std::uint64_t);

    struct region {
        std::uint64_t lo = 0;
        std::uint64_t hi = 0;
        int ordinal = 0;
    };

    /// The union one interval lands in.
    struct stamp {
        int actor = kHostActor;
        bool write = false;
        std::uint32_t clock = 0;
        auto operator<=>(const stamp&) const = default;
    };

    /// Interns the current clock of `actor`; caches until the clock moves.
    /// Caller holds mu_.
    std::uint32_t intern_locked(int actor);
    void dirty_locked(int actor) { clock_id_[actor] = -1; }
    /// Merges sorted, disjoint, non-adjacent `ranges` into the union of
    /// (actor, write, current clock of actor). Caller holds mu_.
    void add_locked(int actor, bool write, std::span<const byte_range> ranges);

    mutable std::mutex mu_;
    std::vector<vector_clock> actor_clock_;   ///< index = actor
    std::vector<int> clock_id_;               ///< cached intern id, -1 dirty
    std::vector<std::string> actor_name_;
    std::vector<vector_clock> clocks_;        ///< interned snapshots
    std::vector<region> regions_;
    /// Exact union per stamp: sorted, disjoint, non-adjacent ranges.
    std::map<stamp, std::vector<byte_range>> unions_;
    std::unordered_map<const void*, pipe_log> pipes_;
    bool finalized_ = false;
};

}  // namespace altis::analyze::shadow
