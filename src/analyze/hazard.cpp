#include "analyze/hazard.hpp"

#include <cstddef>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace altis::analyze {

namespace {

std::string range_str(const mem_access& a) {
    std::ostringstream os;
    os << a.base << "+" << a.bytes << "B";
    return os.str();
}

void lint_usm(const command_graph& g, report& out) {
    struct region {
        const char* base;
        std::size_t bytes;
        std::uint64_t generation;  ///< allocator generation (0: untagged)
    };
    std::vector<region> live;
    std::vector<region> freed;

    const auto contains = [](const region& r, const mem_access& a) {
        const auto* p = static_cast<const char*>(a.base);
        return p >= r.base && p + a.bytes <= r.base + r.bytes;
    };
    const auto touches = [](const region& r, const mem_access& a) {
        const auto* p = static_cast<const char*>(a.base);
        return p < r.base + r.bytes && r.base < p + a.bytes;
    };
    // The pool recycles addresses, so a bare `0x...` object label could
    // alias two logical allocations onto one finding fingerprint (pointers
    // canonicalize to `0x?`; the `#g<N>` suffix is not hex and survives).
    const auto gen_tag = [](std::uint64_t generation) {
        return generation == 0 ? std::string()
                               : "#g" + std::to_string(generation);
    };

    for (const node& n : g.nodes) {
        if (n.simulated) continue;
        if (n.kind == node_kind::usm_alloc) {
            const mem_access& a = n.accesses.front();
            live.push_back(
                {static_cast<const char*>(a.base), a.bytes, a.generation});
            // A reused address shadows any older freed record.
            std::erase_if(freed, [&](const region& r) {
                return r.base == a.base;
            });
        } else if (n.kind == node_kind::usm_free) {
            const mem_access& a = n.accesses.front();
            bool found = false;
            for (std::size_t i = 0; i < live.size(); ++i)
                if (live[i].base == a.base) {
                    freed.push_back(live[i]);
                    live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
                    found = true;
                    break;
                }
            if (!found) {
                std::ostringstream os;
                os << a.base;
                out.add(make_finding("ALS-H4", "usm_free",
                                     os.str() + gen_tag(a.generation),
                                     "free of a pointer that is not a live "
                                     "USM allocation (double free?)"));
            }
        } else if (n.kind == node_kind::kernel) {
            for (const mem_access& a : n.accesses) {
                if (a.kind != mem_kind::usm) continue;
                bool ok = false;
                for (const region& r : live)
                    if (contains(r, a)) ok = true;
                if (ok) continue;
                std::uint64_t freed_gen = 0;
                bool after_free = false;
                for (const region& r : freed)
                    if (touches(r, a)) {
                        after_free = true;
                        freed_gen = r.generation;
                    }
                out.add(make_finding(
                    "ALS-H4", n.kernel, range_str(a) + gen_tag(freed_gen),
                    after_free
                        ? "kernel uses a USM range that was already freed"
                        : "kernel uses a USM range with no live allocation"));
            }
        }
    }
}

void lint_redundant_waits(const command_graph& g, report& out) {
    std::map<int, std::size_t> work_since_wait;
    for (const node& n : g.nodes) {
        if (n.simulated) continue;
        if (n.kind == node_kind::wait) {
            if (n.ooo) {
                // Graph queues carry the truth on the node itself: `pending`
                // counts the join's incoming edges. An edge-free join is a
                // full-queue barrier that ordered nothing.
                if (n.pending == 0)
                    out.add(make_finding(
                        "ALS-L5", "wait", "queue #" + std::to_string(n.queue),
                        "graph join with no commands pending since the "
                        "previous synchronization; wait on the producing "
                        "command's event (event::wait()) or drop the wait()"));
            } else if (work_since_wait[n.queue] == 0) {
                out.add(make_finding("ALS-L5", "wait",
                                     "queue #" + std::to_string(n.queue),
                                     "wait() with no commands submitted since "
                                     "the previous synchronization"));
            }
            work_since_wait[n.queue] = 0;
        } else if (n.kind != node_kind::usm_alloc &&
                   n.kind != node_kind::usm_free) {
            ++work_since_wait[n.queue];
        }
    }
}

}  // namespace

void lint_hazards(const command_graph& g, report& out) {
    lint_usm(g, out);
    lint_redundant_waits(g, out);
}

}  // namespace altis::analyze
