// Command-graph model for the altis::sanitize passes. The syclite queue
// records one node per command (kernel submission, host sync, PCIe transfer,
// USM alloc/free) while a recorder is active; the hazard/pipe/perf passes
// then analyse the finished graph. The types here are deliberately
// independent of the syclite headers so the passes (and their tests) can
// build graphs by hand.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "perf/device.hpp"
#include "perf/kernel_stats.hpp"

namespace altis::analyze {

/// Mirror of syclite::access_mode (kept separate so the analyzer does not
/// depend on the runtime headers it inspects).
enum class access { read, write, read_write, discard_write };

[[nodiscard]] constexpr bool reads(access a) {
    return a == access::read || a == access::read_write;
}
[[nodiscard]] constexpr bool writes(access a) {
    return a != access::read;
}

[[nodiscard]] inline const char* to_string(access a) {
    switch (a) {
        case access::read: return "read";
        case access::write: return "write";
        case access::read_write: return "read_write";
        case access::discard_write: return "discard_write";
    }
    return "?";
}

enum class mem_kind { buffer, usm };

/// One declared memory range a command touches: a buffer accessor request or
/// a `uses_usm` declaration. `base` is an identity, never dereferenced.
struct mem_access {
    const void* base = nullptr;
    std::size_t bytes = 0;
    access mode = access::read_write;
    mem_kind kind = mem_kind::buffer;
    /// Allocator generation of `base` at record time (usm_alloc/usm_free
    /// nodes; 0 when unknown). The altis::mem pool recycles addresses, so
    /// the generation is what keeps two logical allocations at the same
    /// base from collapsing onto one finding fingerprint.
    std::uint64_t generation = 0;
};

enum class pipe_dir { read, write };

/// One declared pipe endpoint of a dataflow kernel (handler::reads_pipe /
/// writes_pipe). Volumes describe the steady state: the kernel moves
/// `items_per_round` items per round, `rounds` times. The capacity check in
/// the pipe pass is SDF-style: a feedback cycle is feasible as long as at
/// least one of its pipes buffers a whole round.
struct pipe_endpoint {
    const void* pipe = nullptr;  ///< identity of the pipe object
    std::string name;
    std::size_t capacity = 0;
    pipe_dir dir = pipe_dir::read;
    double items_per_round = 0.0;  ///< 0: unknown/unspecified
    double rounds = 1.0;

    [[nodiscard]] double total_items() const {
        return items_per_round * rounds;
    }
};

enum class node_kind {
    kernel,        ///< one command-group submission
    wait,          ///< queue::wait()
    transfer_in,   ///< host -> device copy (copy_to_device)
    transfer_out,  ///< device -> host copy (copy_from_device)
    usm_alloc,
    usm_free,
};

[[nodiscard]] inline const char* to_string(node_kind k) {
    switch (k) {
        case node_kind::kernel: return "kernel";
        case node_kind::wait: return "wait";
        case node_kind::transfer_in: return "transfer_in";
        case node_kind::transfer_out: return "transfer_out";
        case node_kind::usm_alloc: return "usm_alloc";
        case node_kind::usm_free: return "usm_free";
    }
    return "?";
}

/// One command, in program order. Transfer nodes carry the copied range in
/// `accesses[0]`; alloc/free nodes carry the allocation there.
struct node {
    node_kind kind = node_kind::kernel;
    std::uint64_t cg = 0;  ///< command-group id (kernel nodes; 0 otherwise)
    std::string kernel{};  ///< kernel name (kernel nodes)
    int queue = -1;        ///< recorder-assigned queue ordinal
    int group = -1;        ///< dataflow group id; -1 for sequential commands
    std::vector<mem_access> accesses{};
    std::vector<pipe_endpoint> pipes{};
    perf::kernel_stats stats{};
    const perf::device_spec* device = nullptr;
    /// Shadow-store actor of this kernel submission or graph copy (-1: none
    /// recorded); joins a kernel's declared ranges to its observed accesses
    /// (ALS-D1).
    int actor = -1;
    /// Analytic descriptor recorded by simulate_region (bench path): only
    /// the perf-lint rules apply -- there is no real command order, no
    /// buffers and no pipe identities behind it.
    bool simulated = false;
    /// Submitted to an out-of-order graph queue: command order in this log
    /// does not imply execution order (the shadow store orders the node's
    /// actor after its dependency edges instead). Read only by
    /// ALS-L5, which judges graph joins by `pending`, not program order.
    bool ooo = false;
    /// Wait nodes on out-of-order queues: commands pending in the graph when
    /// the join was issued. 0 means the join had no incoming edges at all --
    /// the ALS-L5 redundant-wait hint keys off this, not off program order.
    std::size_t pending = 0;
};

struct command_graph {
    std::vector<node> nodes;

    [[nodiscard]] bool empty() const { return nodes.empty(); }
};

}  // namespace altis::analyze
