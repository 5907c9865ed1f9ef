#include "analyze/recorder.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <sstream>

#include "analyze/pipes.hpp"

namespace altis::analyze {

const char* to_string(level lv) {
    switch (lv) {
        case level::off: return "off";
        case level::warn: return "warn";
        case level::error: return "error";
    }
    return "?";
}

namespace {

std::string hex_ptr(const void* p) {
    std::ostringstream os;
    os << p;
    return os.str();
}

}  // namespace

recorder::recorder(level lv)
    : stream::subscriber(
          stream::bit(stream::kind::open) | stream::bit(stream::kind::close) |
          stream::bit(stream::kind::submit) |
          stream::bit(stream::kind::transfer) |
          stream::bit(stream::kind::wait) | stream::bit(stream::kind::epoch) |
          stream::bit(stream::kind::group_begin) |
          stream::bit(stream::kind::group_end) |
          stream::bit(stream::kind::usm_alloc) |
          stream::bit(stream::kind::usm_free) |
          stream::bit(stream::kind::simulated_kernel)),
      level_(lv),
      shadow_(std::make_unique<shadow::store>()) {}

// The slot is atomic because the probe reads it from pool/dataflow worker
// threads (the TSan job covers this path).
recorder* recorder::current() {
    return static_cast<recorder*>(stream::installed(stream::slot::sanitize));
}
void recorder::set_current(recorder* r) {
    auto* prev = static_cast<recorder*>(
        stream::install(stream::slot::sanitize, r));
    // Publish the new session's shadow store (the hook-side gate), then
    // settle the outgoing session: finalize flushes every thread's open
    // run tables so its intervals are complete before any analysis.
    shadow::detail::set_current_store(r != nullptr ? r->shadow_.get()
                                                   : nullptr);
    if (prev != nullptr && prev != r) prev->shadow_->finalize();
}

void recorder::on_event(const stream::event& e) {
    using stream::kind;
    if (e.what == kind::simulated_kernel) {
        record_simulated_kernel(*e.stats, *e.device);
        return;
    }
    const auto bytes = static_cast<std::size_t>(e.bytes);
    if (e.what == kind::usm_alloc || e.what == kind::usm_free) {
        add_node({.kind = e.what == kind::usm_alloc ? node_kind::usm_alloc
                                                    : node_kind::usm_free,
                  .accesses = {{e.base, bytes, access::write, mem_kind::usm,
                                e.generation}}});
        return;
    }
    if (e.simulated) return;  // an analytic region has no command order
    std::lock_guard lock(mu_);
    if (e.what == kind::open) {
        timelines_[e.timeline] = {.queue = next_queue_++, .device = e.device};
        return;
    }
    const auto it = timelines_.find(e.timeline);
    if (it == timelines_.end()) return;
    timeline_state& t = it->second;
    const auto join_unjoined = [&] {
        shadow_->join_host(t.unjoined);
        t.unjoined.clear();
    };
    // One happens-before rule for every engine: each command is an actor
    // that starts after a set of actors, and each synchronization is a host
    // join of a set. Only the set differs: a sequential command starts after
    // the queue's unjoined actors and then stands in for them, a dataflow
    // member after those as they stood at group_begin, and a graph node
    // (e.graph) after its real dependency edges (dep_actors).
    switch (e.what) {
        case kind::close: timelines_.erase(it); break;
        case kind::group_begin:
            t.group = next_group_++;
            t.group_after = t.unjoined;
            break;
        case kind::submit: {
            node n{.kind = node_kind::kernel, .cg = e.cg,
                   .kernel = e.stats->name, .queue = t.queue,
                   .group = e.dataflow ? t.group : -1,
                   .accesses = std::move(*e.accesses),
                   .pipes = std::move(*e.pipes), .stats = *e.stats,
                   .device = t.device, .ooo = e.graph};
            const auto a = cg_actor_.find(n.cg);
            if (a != cg_actor_.end()) {
                n.actor = a->second;
                shadow_->name_actor(n.actor, n.kernel);
                shadow_->start(n.actor, e.graph      ? *e.dep_actors
                                        : e.dataflow ? t.group_after
                                                     : t.unjoined);
                if (!e.graph && !e.dataflow) t.unjoined.clear();
                t.unjoined.push_back(n.actor);
            }
            add_node_locked(std::move(n));
            break;
        }
        case kind::transfer: {
            if (!e.graph && e.base == nullptr) break;  // timing-only
            const bool in = e.to_device;
            node n{.kind = in ? node_kind::transfer_in
                              : node_kind::transfer_out,
                   .queue = t.queue,
                   .accesses = {{e.base, bytes,
                                 in ? access::write : access::read,
                                 mem_kind::buffer}},
                   .ooo = e.graph};
            int actor = shadow::kHostActor;
            if (e.graph) {
                // A graph copy runs asynchronously as its own actor.
                const auto a = cg_actor_.find(e.cg);
                actor = n.actor =
                    a != cg_actor_.end() ? a->second : shadow::kNoActor;
                shadow_->name_actor(actor, in ? "transfer_in" : "transfer_out");
                shadow_->start(actor, *e.dep_actors);
                t.unjoined.push_back(actor);
            }
            shadow_->on_transfer(actor, e.base, bytes, in);
            add_node_locked(std::move(n));
            break;
        }
        case kind::wait:
            // The graph wait node carries how many commands the join had in
            // front of it (ALS-L5); its host join is the epoch event before.
            if (!e.graph) join_unjoined();
            add_node_locked({.kind = node_kind::wait, .queue = t.queue,
                             .ooo = e.graph, .pending = e.pending});
            break;
        case kind::epoch: join_unjoined(); break;
        case kind::group_end:
            // Workers joined: the host is ordered after the whole group. A
            // group the gate refused launched nothing and joins nothing.
            if (t.group >= 0) join_unjoined();
            t.group = -1;
            break;
        default: break;
    }
}

std::string recorder::gate_dataflow(int timeline) {
    int group = -1;
    {
        std::lock_guard lock(mu_);
        const auto it = timelines_.find(timeline);
        if (it != timelines_.end()) group = it->second.group;
    }
    if (group < 0) return {};
    report findings;
    lint_pipe_group(group_nodes(group), findings);
    for (const finding& f : findings.findings()) add_finding(f);
    if (level_ != level::error ||
        findings.count_at_least(severity::error) == 0)
        return {};
    std::string msg = "sanitize: refusing to launch dataflow group:";
    for (const finding& f : findings.findings())
        msg += " [" + f.rule + "] " + f.message + ";";
    // Refused before anything launched: there is nothing to join.
    std::lock_guard lock(mu_);
    timelines_[timeline].group = -1;
    return msg;
}

recorder::cg_handle recorder::begin_command_group() {
    std::lock_guard lock(mu_);
    cg_handle h;
    h.id = next_cg_++;
    h.token = probe::new_token(h.id);
    h.actor = shadow_->new_actor();
    live_tokens_.emplace(h.id, h.token);
    cg_actor_.emplace(h.id, h.actor);
    return h;
}

void recorder::retire(std::uint64_t cg) {
    std::lock_guard lock(mu_);
    const auto it = live_tokens_.find(cg);
    if (it == live_tokens_.end()) return;
    it->second->retired.store(true, std::memory_order_relaxed);
    live_tokens_.erase(it);
}

void recorder::add_node(node n) {
    std::lock_guard lock(mu_);
    add_node_locked(std::move(n));
}

void recorder::add_node_locked(node n) {
    if (n.kind == node_kind::kernel && n.cg != 0)
        cg_kernel_[n.cg] = n.kernel;
    // Declared ranges anchor the stable "mem#N" labels findings use.
    if (!n.simulated)
        for (const mem_access& a : n.accesses)
            shadow_->register_region(a.base, a.bytes);
    graph_.nodes.push_back(std::move(n));
}

void recorder::record_host_join_actor(int actor) {
    if (actor > 0) shadow_->join_host({&actor, 1});
}

void recorder::record_simulated_kernel(const perf::kernel_stats& stats,
                                       const perf::device_spec& dev) {
    node n;
    n.kind = node_kind::kernel;
    n.kernel = stats.name;
    n.stats = stats;
    n.device = &dev;
    n.simulated = true;
    add_node(std::move(n));
}

void recorder::add_finding(finding f) {
    std::lock_guard lock(mu_);
    runtime_.add(std::move(f));
}

void recorder::stale_accessor_use(std::uint64_t cg, const void* base) {
    std::lock_guard lock(mu_);
    const auto key = std::make_pair(cg, base);
    if (std::find(stale_reported_.begin(), stale_reported_.end(), key) !=
        stale_reported_.end())
        return;
    stale_reported_.push_back(key);
    const auto it = cg_kernel_.find(cg);
    const std::string kernel =
        it != cg_kernel_.end() ? it->second : "command group #" + std::to_string(cg);
    runtime_.add(make_finding(
        "ALS-H3", kernel, hex_ptr(base),
        "accessor created in command group #" + std::to_string(cg) +
            " dereferenced after the group completed"));
}

std::vector<node> recorder::group_nodes(int group) const {
    std::lock_guard lock(mu_);
    std::vector<node> out;
    for (const node& n : graph_.nodes)
        if (n.kind == node_kind::kernel && n.group == group) out.push_back(n);
    return out;
}

namespace probe {

namespace {

/// Process-lifetime token arena: tokens must outlive any accessor that holds
/// one, and accessors routinely outlive the recorder scope in tests, so
/// tokens are never reclaimed. One submission costs ~16 bytes here, only
/// while a sanitize session is active.
std::mutex g_arena_mu;
std::deque<cg_token> g_arena;  // NOLINT(cppcoreguidelines-avoid-non-const-global-variables)

}  // namespace

cg_token* new_token(std::uint64_t id) {
    std::lock_guard lock(g_arena_mu);
    g_arena.emplace_back();
    g_arena.back().id = id;
    return &g_arena.back();
}

void on_stale_use(const cg_token* token, const void* base) {
    recorder* r = recorder::current();
    if (r == nullptr) return;
    r->stale_accessor_use(token->id, base);
}

}  // namespace probe

}  // namespace altis::analyze
