#include "analyze/race.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "metrics/instruments.hpp"

namespace altis::analyze {

namespace {

/// "mem#3[128..256)" -> "mem#3": one finding per actor pair (R1) or kernel
/// (D1) per memory object, not per overlap fragment.
std::string label_prefix(const std::string& label) {
    const auto p = label.find('[');
    return p == std::string::npos ? label : label.substr(0, p);
}

const char* mode_word(bool write) { return write ? "write" : "read"; }

void lint_unordered_pairs(const shadow::store& s,
                          const std::vector<shadow::interval>& ivs,
                          report& r) {
    std::uint64_t checks = 0;
    std::set<std::tuple<int, int, std::string>> reported;
    for (std::size_t i = 0; i < ivs.size(); ++i) {
        const shadow::interval& a = ivs[i];
        for (std::size_t j = i + 1; j < ivs.size() && ivs[j].lo < a.hi; ++j) {
            const shadow::interval& b = ivs[j];
            if (a.actor == b.actor) continue;
            if (!a.write && !b.write) continue;
            ++checks;
            if (s.hb(a, b) || s.hb(b, a)) continue;
            const shadow::interval& lo_actor = a.actor < b.actor ? a : b;
            const shadow::interval& hi_actor = a.actor < b.actor ? b : a;
            const std::string label =
                s.label_range(std::max(a.lo, b.lo), std::min(a.hi, b.hi));
            if (!reported
                     .emplace(lo_actor.actor, hi_actor.actor,
                              label_prefix(label))
                     .second)
                continue;
            r.add(make_finding(
                "ALS-R1",
                s.actor_name(lo_actor.actor) + ", " +
                    s.actor_name(hi_actor.actor),
                label,
                std::string(mode_word(lo_actor.write)) + " by '" +
                    s.actor_name(lo_actor.actor) + "' and " +
                    mode_word(hi_actor.write) + " by '" +
                    s.actor_name(hi_actor.actor) + "' overlap on " + label +
                    " with no happens-before edge in either direction"));
        }
    }
    if (altis::metrics::collecting())
        altis::metrics::instruments::sanitize_race_checks().add(checks);
}

void lint_round_skew(const shadow::store& s, const command_graph& g,
                     report& r) {
    // Deterministic traversal: the shadow's pipe map is unordered.
    std::vector<std::pair<const void*, const shadow::pipe_log*>> logs;
    logs.reserve(s.pipe_logs().size());
    for (const auto& [ptr, log] : s.pipe_logs()) logs.emplace_back(ptr, &log);
    std::sort(logs.begin(), logs.end(), [](const auto& x, const auto& y) {
        return x.second->name < y.second->name;
    });
    for (const auto& [ptr, log] : logs) {
        // Round geometry comes from the endpoint declarations; the rule only
        // applies when both sides agree on an integral per-round volume.
        double ipr_w = 0.0;
        double ipr_r = 0.0;
        for (const node& n : g.nodes)
            for (const pipe_endpoint& pe : n.pipes) {
                if (pe.pipe != ptr) continue;
                (pe.dir == pipe_dir::write ? ipr_w : ipr_r) =
                    pe.items_per_round;
            }
        if (ipr_w <= 0.0 || ipr_w != ipr_r || ipr_w != std::floor(ipr_w))
            continue;
        const auto ipr = static_cast<std::uint64_t>(ipr_w);
        if (ipr < 2) continue;  // every boundary is a whole round
        for (const shadow::pipe_recv& rec : log->recvs) {
            const std::uint64_t boundary = (rec.from / ipr + 1) * ipr;
            if (boundary >= rec.to) continue;
            r.add(make_finding(
                "ALS-R2", s.actor_name(log->consumer), log->name,
                "receive of items [" + std::to_string(rec.from) + ".." +
                    std::to_string(rec.to) + ") from pipe '" + log->name +
                    "' spans the round boundary at item " +
                    std::to_string(boundary) + " (items_per_round = " +
                    std::to_string(ipr) +
                    "): the consumer mixes two rounds in one read"));
            break;  // one finding per pipe
        }
    }
}

void lint_declaration_drift(const shadow::store& s, const command_graph& g,
                            const std::vector<shadow::interval>& ivs,
                            report& r) {
    // Each kernel reads only its own actor's intervals, still in canonical
    // order: intervals x declared ranges, not kernels x intervals.
    std::vector<std::vector<const shadow::interval*>> by_actor;
    for (const shadow::interval& iv : ivs) {
        if (iv.actor <= 0) continue;
        const auto a = static_cast<std::size_t>(iv.actor);
        if (a >= by_actor.size()) by_actor.resize(a + 1);
        by_actor[a].push_back(&iv);
    }
    std::set<std::pair<std::string, std::string>> reported;
    for (const node& n : g.nodes) {
        if (n.kind != node_kind::kernel || n.simulated || n.actor <= 0 ||
            static_cast<std::size_t>(n.actor) >= by_actor.size())
            continue;
        std::vector<std::pair<std::uint64_t, std::uint64_t>> declared;
        for (const mem_access& a : n.accesses) {
            if (a.bytes == 0) continue;
            const auto lo = reinterpret_cast<std::uint64_t>(a.base);
            declared.emplace_back(lo, lo + a.bytes);
        }
        std::sort(declared.begin(), declared.end());
        for (const shadow::interval* ivp :
             by_actor[static_cast<std::size_t>(n.actor)]) {
            const shadow::interval& iv = *ivp;
            // First observed byte not covered by any declared range.
            std::uint64_t pos = iv.lo;
            bool moved = true;
            while (moved && pos < iv.hi) {
                moved = false;
                for (const auto& d : declared)
                    if (d.first <= pos && pos < d.second) {
                        pos = d.second;
                        moved = true;
                    }
            }
            if (pos >= iv.hi) continue;
            std::uint64_t uncovered_hi = iv.hi;
            for (const auto& d : declared)
                if (d.first > pos) uncovered_hi = std::min(uncovered_hi, d.first);
            const std::string label = s.label_range(pos, uncovered_hi);
            if (!reported.emplace(n.kernel, label_prefix(label)).second)
                continue;
            r.add(make_finding(
                "ALS-D1", n.kernel, label,
                "observed " + std::string(mode_word(iv.write)) + " of " +
                    label + " is outside every accessor/USM range kernel '" +
                    n.kernel + "' declared"));
        }
    }
}

}  // namespace

void lint_races(const shadow::store& s, const command_graph& g, report& r) {
    // One canonical set, shared by R1 and D1.
    const std::vector<shadow::interval> ivs = s.merged_intervals();
    lint_unordered_pairs(s, ivs, r);
    lint_round_skew(s, g, r);
    lint_declaration_drift(s, g, ivs, r);
}

}  // namespace altis::analyze
