#include "sycl/graph.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <utility>

#include "analyze/recorder.hpp"
#include "metrics/instruments.hpp"
#include "sycl/event.hpp"
#include "sycl/thread_pool.hpp"

namespace syclite::graph {

namespace {

enum class node_state { held, pending, ready, running, settled };

[[nodiscard]] bool is_settled(node_state s) { return s == node_state::settled; }

struct node_rec {
    std::uint64_t id = 0;
    std::uint64_t index = 0;  ///< submission order, monotone across epochs
    std::string name;
    node_state state = node_state::held;
    /// Unsatisfied prerequisites: one per unsettled dependency, plus one for
    /// the pending release() (two-phase submit).
    int unmet = 1;
    std::vector<std::uint64_t> dependents;
    detail::small_function<void(thread_pool&)> exec;
    bool transfer = false;
    std::uint64_t cg = 0;
    int actor = -1;
    altis::analyze::recorder* recorder = nullptr;
    std::optional<altis::fault::hit> fault;  ///< probed at enqueue
    double start_ns = 0.0;
    double end_ns = 0.0;
    std::uint64_t ready_wall_ns = 0;
};

/// Byte segment of the epoch's conflict map: last writer plus the readers
/// since that write. Segments are disjoint; carving keeps them that way.
struct seg {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    std::uint64_t writer = 0;  ///< node id, 0 = none yet
    std::vector<std::uint64_t> readers;
};

}  // namespace

class scheduler_state {
public:
    mutable std::mutex mu;
    std::condition_variable cv;

    std::deque<node_rec> nodes;   ///< current epoch; nodes[i].id = base + i
    std::uint64_t epoch_base = 1;
    std::uint64_t next_id = 1;
    std::uint64_t next_index = 0;
    std::size_t unsettled = 0;
    std::vector<seg> segs;
    std::vector<std::uint64_t> ready;
    std::vector<detail::command_failure> failures;  ///< undelivered
    std::vector<double> lane_end;      ///< kernel display lanes (track >= 2)
    double transfer_end_ns = 0.0;      ///< modeled PCIe lane cursor
    double horizon = 0.0;
    double busy = 0.0;
    std::vector<std::pair<double, double>> kernel_spans;
    thread_pool* pool = nullptr;

    [[nodiscard]] node_rec* find(std::uint64_t id) {
        if (id < epoch_base) return nullptr;
        const std::uint64_t i = id - epoch_base;
        if (i >= nodes.size()) return nullptr;
        return &nodes[i];
    }

    /// Splits segments at `lo` and `hi` so every segment is entirely inside
    /// or outside [lo, hi). Caller holds mu.
    void carve(std::uint64_t lo, std::uint64_t hi) {
        std::vector<seg> split;
        split.reserve(segs.size() + 2);
        for (seg& s : segs) {
            for (const std::uint64_t cut : {lo, hi}) {
                if (cut > s.lo && cut < s.hi) {
                    seg head = s;
                    head.hi = cut;
                    split.push_back(std::move(head));
                    s.lo = cut;
                }
            }
            split.push_back(std::move(s));
        }
        segs = std::move(split);
    }

    /// Collects conflict edges for [lo, hi) and updates the map for node
    /// `id`. RAW: depend on the segment's writer. WAR/WAW: a write also
    /// depends on the readers since that write. Caller holds mu.
    void add_range(std::uint64_t id, std::uint64_t lo, std::uint64_t hi,
                   bool write, std::vector<std::uint64_t>& deps) {
        if (lo >= hi) return;
        carve(lo, hi);
        std::vector<seg> next;
        next.reserve(segs.size() + 1);
        std::uint64_t cursor = lo;  // segs are kept sorted by lo
        std::sort(segs.begin(), segs.end(),
                  [](const seg& a, const seg& b) { return a.lo < b.lo; });
        for (seg& s : segs) {
            if (s.hi <= lo || s.lo >= hi) {
                next.push_back(std::move(s));
                continue;
            }
            // Fully inside [lo, hi) after carving.
            if (s.writer != 0) deps.push_back(s.writer);
            if (write) {
                for (const std::uint64_t r : s.readers) deps.push_back(r);
                cursor = std::max(cursor, s.hi);  // replaced below
                continue;                         // drop: the write covers it
            }
            s.readers.push_back(id);
            next.push_back(std::move(s));
        }
        if (write) {
            next.push_back({lo, hi, id, {}});
        } else {
            // Gap segments: reads of bytes never touched this epoch still
            // need a record so a later write orders after them (WAR).
            std::uint64_t pos = lo;
            std::vector<std::pair<std::uint64_t, std::uint64_t>> covered;
            for (const seg& s : next)
                if (s.hi > lo && s.lo < hi && s.writer != id)
                    if (!s.readers.empty() || s.writer != 0)
                        covered.emplace_back(std::max(s.lo, lo),
                                             std::min(s.hi, hi));
            std::sort(covered.begin(), covered.end());
            for (const auto& [clo, chi] : covered) {
                if (clo > pos) next.push_back({pos, clo, 0, {id}});
                pos = std::max(pos, chi);
            }
            if (pos < hi) next.push_back({pos, hi, 0, {id}});
        }
        segs = std::move(next);
    }

    /// Caller holds mu. Also lists the node in `to_post`; the caller posts
    /// those as pool tasks once the lock is dropped.
    void make_ready(node_rec& n, std::vector<std::uint64_t>& to_post) {
        n.state = node_state::ready;
        n.ready_wall_ns =
            altis::metrics::collecting() ? detail::wall_ns() : 0;
        ready.push_back(n.id);
        to_post.push_back(n.id);
        if (altis::metrics::collecting())
            altis::metrics::instruments::sched_ready_depth().record(
                static_cast<double>(ready.size()));
    }
};

namespace {

void settle(const std::shared_ptr<scheduler_state>& st, std::uint64_t id,
            std::optional<detail::command_failure> f);

/// Claims `id` if still ready and runs it through the command core. Posted
/// to the pool; also the join-side work-stealing path. Stale calls (node
/// already claimed, epoch reset) are no-ops.
void run_one(const std::shared_ptr<scheduler_state>& st, std::uint64_t id) {
    node_rec* n = nullptr;
    detail::small_function<void(thread_pool&)> exec;
    thread_pool* pool = nullptr;
    {
        std::lock_guard lock(st->mu);
        n = st->find(id);
        if (n == nullptr || n->state != node_state::ready) return;
        n->state = node_state::running;
        st->ready.erase(
            std::find(st->ready.begin(), st->ready.end(), id));
        if (n->ready_wall_ns != 0 && altis::metrics::collecting())
            altis::metrics::instruments::sched_dispatch_latency_ns().record(
                static_cast<double>(detail::wall_ns() - n->ready_wall_ns));
        exec = std::move(n->exec);
        pool = st->pool;
    }
    // Read without the lock: nothing writes a running node's command fields,
    // and the epoch cannot reset under an unsettled node (deque growth keeps
    // element references valid).
    std::optional<detail::command_failure> f = detail::run_command(
        n->name, n->transfer, exec, *pool, n->actor, n->recorder, n->cg,
        n->fault);
    if (f && f->cancelled && altis::metrics::collecting())
        altis::metrics::instruments::sched_cancelled_nodes().add();
    settle(st, id, std::move(f));
}

void post_dispatch(const std::shared_ptr<scheduler_state>& st,
                   const std::vector<std::uint64_t>& ids) {
    if (ids.empty()) return;
    thread_pool* pool = nullptr;
    {
        std::lock_guard lock(st->mu);
        pool = st->pool;
    }
    if (pool == nullptr || pool->worker_count() == 0) return;
    for (const std::uint64_t id : ids)
        pool->post([st, id] { run_one(st, id); });
}

void settle(const std::shared_ptr<scheduler_state>& st, std::uint64_t id,
            std::optional<detail::command_failure> f) {
    std::vector<std::uint64_t> newly_ready;
    {
        std::lock_guard lock(st->mu);
        node_rec* n = st->find(id);
        if (n == nullptr) return;
        n->state = node_state::settled;
        if (f) {
            f->index = n->index;
            st->failures.push_back(std::move(*f));
        }
        --st->unsettled;
        // Dependents run regardless of this node's outcome (in-order queues
        // likewise keep executing after a failed submission); a cancelled
        // epoch cancels them one by one at their own dispatch checkpoint.
        // `held` dependents must be decremented too: a dependency can settle
        // on a pool worker while the dependent's queue is still doing its
        // submit-side bookkeeping (between enqueue() and release()), and
        // skipping the edge here would leave `unmet` permanently positive --
        // the node would never become ready and every later join would hang.
        // The release-hold (+1 in unmet) guarantees a held node cannot reach
        // zero before release(), so decrementing is safe. Ready/running/
        // settled dependents have no unsettled edges left by construction.
        for (const std::uint64_t d : n->dependents) {
            node_rec* m = st->find(d);
            if (m == nullptr || (m->state != node_state::pending &&
                                 m->state != node_state::held))
                continue;
            if (--m->unmet == 0) st->make_ready(*m, newly_ready);
        }
    }
    st->cv.notify_all();
    post_dispatch(st, newly_ready);
}

/// Join-side helper: runs one ready node inline if any. Caller holds `lock`;
/// returns with it re-held.
bool try_run_ready(const std::shared_ptr<scheduler_state>& st,
                   std::unique_lock<std::mutex>& lock) {
    if (st->ready.empty()) return false;
    const std::uint64_t id = st->ready.front();
    lock.unlock();
    run_one(st, id);
    lock.lock();
    return true;
}

}  // namespace

scheduler::scheduler(thread_pool* pool)
    : state_(std::make_shared<scheduler_state>()) {
    state_->pool = pool;
}

scheduler::~scheduler() {
    // The owning queue joins before destruction; this is the backstop for
    // unwind paths. Errors are unobservable here -- drop them.
    wait_all();
}

ticket scheduler::enqueue(submission s) {
    // Probed before the lock, on the submitting thread, in submission order.
    std::optional<altis::fault::hit> hit =
        detail::probe_fault(s.name, s.transfer);
    ticket t;
    std::lock_guard lock(state_->mu);
    scheduler_state& st = *state_;
    t.id = st.next_id++;

    std::vector<std::uint64_t> deps;
    for (const std::uint64_t d : s.after)
        if (d != 0 && d != t.id && st.find(d) != nullptr) deps.push_back(d);
    for (const submission::byte_range& r : s.ranges) {
        const auto lo = reinterpret_cast<std::uint64_t>(r.base);
        st.add_range(t.id, lo, lo + r.bytes, r.write, deps);
    }
    std::sort(deps.begin(), deps.end());
    deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
    deps.erase(std::remove_if(deps.begin(), deps.end(),
                              [&](std::uint64_t d) {
                                  return d == 0 || d == t.id ||
                                         st.find(d) == nullptr;
                              }),
               deps.end());

    // Deterministic simulated placement, resolved at submit on the host
    // thread: start after the host issued it, after every dependency's
    // modeled end, and (transfers) after the PCIe lane frees up.
    double start = s.submit_ns;
    node_rec n;
    for (const std::uint64_t d : deps) {
        node_rec* dep = st.find(d);
        start = std::max(start, dep->end_ns);
        if (dep->actor > 0) t.dep_actors.push_back(dep->actor);
        if (!is_settled(dep->state)) {
            ++n.unmet;
            dep->dependents.push_back(t.id);
        }
    }
    if (s.transfer) {
        start = std::max(start, st.transfer_end_ns);
        t.lane = 1;
    } else {
        // Greedy lane coloring over kernel lanes (tracks >= 2): reuse the
        // first lane free by `start`, deterministic in submission order.
        std::size_t lane = 0;
        while (lane < st.lane_end.size() && st.lane_end[lane] > start) ++lane;
        if (lane == st.lane_end.size()) st.lane_end.push_back(0.0);
        t.lane = static_cast<int>(lane) + 2;
    }
    const double end = start + s.duration_ns;
    if (s.transfer)
        st.transfer_end_ns = end;
    else
        st.lane_end[static_cast<std::size_t>(t.lane) - 2] = end;
    st.horizon = std::max(st.horizon, end);
    st.busy += s.duration_ns;
    if (!s.transfer) st.kernel_spans.emplace_back(start, end);
    t.start_ns = start;
    t.end_ns = end;
    t.deps = deps;

    n.id = t.id;
    n.index = st.next_index++;
    n.name = std::move(s.name);
    n.exec = std::move(s.exec);
    n.transfer = s.transfer;
    n.cg = s.cg;
    n.actor = s.actor;
    n.recorder = s.recorder;
    n.fault = std::move(hit);
    n.start_ns = start;
    n.end_ns = end;
    st.nodes.push_back(std::move(n));
    ++st.unsettled;

    if (altis::metrics::collecting()) {
        namespace mi = altis::metrics::instruments;
        mi::sched_nodes().add();
        mi::sched_edges().add(deps.size());
    }
    return t;
}

void scheduler::release(std::uint64_t id) {
    std::vector<std::uint64_t> newly_ready;
    {
        std::lock_guard lock(state_->mu);
        node_rec* n = state_->find(id);
        if (n == nullptr || n->state != node_state::held) return;
        n->state = node_state::pending;
        if (--n->unmet == 0) state_->make_ready(*n, newly_ready);
    }
    state_->cv.notify_all();
    post_dispatch(state_, newly_ready);
}

void scheduler::wait_all() {
    std::unique_lock lock(state_->mu);
    while (state_->unsettled != 0) {
        if (!try_run_ready(state_, lock))
            state_->cv.wait(lock, [&] {
                return state_->unsettled == 0 || !state_->ready.empty();
            });
    }
}

std::size_t scheduler::pending_count() const {
    std::lock_guard lock(state_->mu);
    return state_->nodes.size();
}

double scheduler::horizon_ns() const {
    std::lock_guard lock(state_->mu);
    return state_->horizon;
}

double scheduler::busy_ns() const {
    std::lock_guard lock(state_->mu);
    return state_->busy;
}

std::vector<std::pair<double, double>> scheduler::kernel_spans() const {
    std::lock_guard lock(state_->mu);
    return state_->kernel_spans;
}

std::vector<detail::command_failure> scheduler::drain_errors() {
    std::lock_guard lock(state_->mu);
    std::vector<detail::command_failure> out = std::move(state_->failures);
    state_->failures.clear();
    return out;
}

void scheduler::reset_epoch() {
    std::lock_guard lock(state_->mu);
    scheduler_state& st = *state_;
    if (st.unsettled != 0) return;  // join first; keep the epoch intact
    st.epoch_base = st.next_id;
    st.nodes.clear();
    st.segs.clear();
    st.ready.clear();
    st.lane_end.clear();
    st.transfer_end_ns = 0.0;
    st.horizon = 0.0;
    st.busy = 0.0;
    st.kernel_spans.clear();
}

void scheduler::set_pool(thread_pool* pool) {
    std::lock_guard lock(state_->mu);
    state_->pool = pool;
}

void wait_node(const std::shared_ptr<scheduler_state>& st, std::uint64_t id) {
    if (st == nullptr || id == 0) return;
    int actor = -1;
    altis::analyze::recorder* rec = nullptr;
    std::unique_lock lock(st->mu);
    for (;;) {
        node_rec* n = st->find(id);
        if (n == nullptr) break;  // earlier epoch: settled and joined
        if (is_settled(n->state)) {
            actor = n->actor;
            rec = n->recorder;
            break;
        }
        if (!try_run_ready(st, lock))
            st->cv.wait(lock, [&] {
                node_rec* m = st->find(id);
                return m == nullptr || is_settled(m->state) ||
                       !st->ready.empty();
            });
    }
    lock.unlock();
    // The node's shadow clock already joined its dependencies at submit, so
    // one host join covers the transitive closure.
    if (rec != nullptr) rec->record_host_join_actor(actor);
}

}  // namespace syclite::graph

namespace syclite {

void event::wait() const {
    if (graph_ != nullptr) graph::wait_node(graph_, cmd_);
}

}  // namespace syclite
