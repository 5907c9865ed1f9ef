// The recorder is the capture side of altis::sanitize: the command-stream
// subscriber (core/command_stream.hpp) that turns the runtime's events into
// command-graph nodes and shadow-store happens-before edges. Capture is
// thread-safe -- dataflow kernels retire their command groups from worker
// threads -- and entirely passive: with no recorder current, the runtime
// behaves (and times) exactly as before the analyzer existed.
//
// Happens-before is one rule for every queue engine. Each command (kernel or
// graph copy) is a shadow actor that starts after a set of actors, and each
// synchronization is a host join of a set. Per queue the recorder keeps the
// actors the host has not joined yet:
//   - a sequential submission starts after that list, then replaces it;
//   - a dataflow member starts after the list as it stood at group_begin;
//   - a graph node starts after its dependency edges (dep_actors);
//   - an in-order wait, a group_end and a graph epoch join the list and
//     clear it; event::wait joins the one node's actor.
//
// Three hooks stay direct calls rather than events, because they hand out
// identity or change what runs: begin_command_group (with its retire), the
// shadow-actor binding around command execution, and the pre-launch pipe
// gate (gate_dataflow).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analyze/findings.hpp"
#include "analyze/graph.hpp"
#include "analyze/probe.hpp"
#include "analyze/shadow.hpp"
#include "core/command_stream.hpp"

namespace altis::analyze {

/// Enforcement level of a sanitize session (the --sanitize flag).
enum class level { off, warn, error };

[[nodiscard]] const char* to_string(level lv);

class recorder : public stream::subscriber {
public:
    explicit recorder(level lv = level::warn);

    [[nodiscard]] level enforcement() const { return level_; }

    /// One command event -> command-graph nodes / shadow edges.
    void on_event(const stream::event& e) override;

    // ---- direct hooks (called by syclite) ----

    struct cg_handle {
        std::uint64_t id = 0;
        probe::cg_token* token = nullptr;
        /// Shadow actor of the submission; the queue binds it around kernel
        /// execution so observed accesses attribute to this kernel.
        int actor = -1;
    };
    /// Opens a command group (a kernel's, or a graph copy's): assigns the
    /// next id, the shadow actor and a live lifetime token for the
    /// accessors the group hands out.
    cg_handle begin_command_group();
    /// Marks the group's accessors stale (kernel finished or group dropped).
    void retire(std::uint64_t cg);

    /// Pre-launch pipe gate of the dataflow group open on `timeline`: lints
    /// the group's complete pipe topology before any worker can block on a
    /// pipe and files the findings. Returns the refusal message when the
    /// level is `error` and the topology has errors (the group is dropped),
    /// else an empty string.
    [[nodiscard]] std::string gate_dataflow(int timeline);

    /// event::wait(): the host joined one node's actor (edges make that
    /// transitive over the node's dependencies).
    void record_host_join_actor(int actor);
    /// Analytic descriptor (simulate_region, descriptor-only lint): the
    /// perf-lint rules only.
    void record_simulated_kernel(const perf::kernel_stats& stats,
                                 const perf::device_spec& dev);

    /// Runtime finding (ALS-H3 from the probe, pre-launch gate findings).
    void add_finding(finding f);
    /// Called by probe::on_stale_use; resolves the creating kernel's name
    /// and files an ALS-H3 finding once per (group, base).
    void stale_accessor_use(std::uint64_t cg, const void* base);

    // ---- analysis-side API ----

    [[nodiscard]] const command_graph& graph() const { return graph_; }
    /// Findings raised during capture (merged into the final report).
    [[nodiscard]] const report& runtime_findings() const { return runtime_; }
    /// Observed-access shadow store of this session (ALS-R*/ALS-D1 input).
    [[nodiscard]] shadow::store& shadow() const { return *shadow_; }

    // ---- process-wide current recorder ----
    [[nodiscard]] static recorder* current();
    static void set_current(recorder* r);

    class scope {
    public:
        explicit scope(recorder& r) : prev_(current()) { set_current(&r); }
        ~scope() { set_current(prev_); }
        scope(const scope&) = delete;
        scope& operator=(const scope&) = delete;

    private:
        recorder* prev_;
    };

private:
    /// What the recorder knows about one observed queue.
    struct timeline_state {
        int queue = 0;  ///< ordinal: nodes never correlate across queues
        const perf::device_spec* device = nullptr;
        int group = -1;  ///< open dataflow group (-1: none)
        /// Actors submitted here that the host has not joined yet.
        std::vector<int> unjoined{};
        /// `unjoined` as it stood at group_begin: what every member of the
        /// open dataflow group starts after.
        std::vector<int> group_after{};
    };

    void add_node(node n);
    void add_node_locked(node n);  ///< caller holds mu_
    /// Kernel nodes of one dataflow group (the pre-launch gate's input).
    [[nodiscard]] std::vector<node> group_nodes(int group) const;

    level level_;
    mutable std::mutex mu_;
    command_graph graph_;
    report runtime_;
    int next_queue_ = 0;
    int next_group_ = 0;
    std::uint64_t next_cg_ = 1;
    std::unique_ptr<shadow::store> shadow_;
    std::unordered_map<std::uint64_t, probe::cg_token*> live_tokens_;
    std::unordered_map<std::uint64_t, std::string> cg_kernel_;
    std::unordered_map<std::uint64_t, int> cg_actor_;
    /// Observed queues by stream timeline id.
    std::unordered_map<int, timeline_state> timelines_;
    /// (cg, base) pairs already reported by the probe (dedup).
    std::vector<std::pair<std::uint64_t, const void*>> stale_reported_;
};

}  // namespace altis::analyze
