#include "trace/chrome_export.hpp"

#include <cstdint>
#include <map>
#include <ostream>
#include <set>

#include "core/json.hpp"
#include "metrics/export.hpp"
#include "metrics/session.hpp"

namespace altis::trace {
namespace {

// Track ids: region spans get tid 0 (they envelop everything), the main
// sequential lane tid 1, dataflow lanes tid 2... Perfetto sorts by tid, so
// the containment hierarchy reads top-down.
int tid_for(const span& s) {
    if (s.kind == span_kind::region) return 0;
    return s.track + 1;
}

void write_event(std::ostream& out, const span& s) {
    out << "    {\"name\": "
        << json::quoted{s.name.empty() ? to_string(s.kind) : s.name}
        << ", \"cat\": " << json::quoted{to_string(s.kind)};
    // ts/dur are microseconds; simulated nanoseconds survive as fractions.
    out << ", \"ph\": \"X\", \"ts\": " << json::number{s.start_ns / 1e3}
        << ", \"dur\": " << json::number{s.duration_ns() / 1e3}
        << ", \"pid\": 1, \"tid\": " << tid_for(s);
    // Degraded spans get a color override so injections, retries and
    // cancellations jump out of the timeline without opening the args panel.
    if (s.status == span_status::failed)
        out << ", \"cname\": \"terrible\"";
    else if (s.status == span_status::retried)
        out << ", \"cname\": \"bad\"";
    else if (s.status == span_status::cancelled)
        out << ", \"cname\": \"black\"";
    else if (s.status == span_status::quarantined)
        out << ", \"cname\": \"grey\"";
    out << ", \"args\": {\"kind\": " << json::quoted{to_string(s.kind)};
    if (s.status != span_status::ok)
        out << ", \"status\": " << json::quoted{to_string(s.status)};
    if (s.kind == span_kind::kernel) {
        const span_counters& c = s.counters;
        out << ", \"invocations\": " << c.invocations
            << ", \"modeled_flops\": " << c.flops
            << ", \"modeled_bytes\": " << c.bytes
            << ", \"occupancy\": " << c.occupancy
            << ", \"divergence\": " << c.divergence
            << ", \"initiation_interval\": " << c.initiation_interval;
        if (s.duration_ns() > 0.0)
            out << ", \"modeled_gbs\": " << c.bytes / s.duration_ns()
                << ", \"modeled_gflops\": " << c.flops / s.duration_ns();
    }
    out << "}}";
}

}  // namespace

void write_chrome_json(const session& s, std::ostream& out,
                       const altis::metrics::session* metrics) {
    out << "{\n  \"displayTimeUnit\": \"ns\",\n";
    out << "  \"otherData\": {\"session\": " << json::quoted{s.name()};
    if (s.device() != nullptr)
        out << ", \"device\": " << json::quoted{s.device()->name};
    out << "},\n  \"traceEvents\": [\n";

    bool first = true;
    // Name the tracks so the viewer labels lanes instead of showing bare
    // tids: metadata events are zero-cost and optional for parsers.
    std::set<int> tids;
    for (const auto& sp : s.spans()) tids.insert(tid_for(sp));
    for (int tid : tids) {
        if (!first) out << ",\n";
        first = false;
        const std::string label = tid == 0   ? "regions"
                                  : tid == 1 ? "timeline"
                                             : "dataflow lane " +
                                                   std::to_string(tid - 1);
        out << "    {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
               "\"tid\": "
            << tid << ", \"args\": {\"name\": " << json::quoted{label}
            << "}}";
    }
    for (const auto& sp : s.spans()) {
        if (!first) out << ",\n";
        first = false;
        write_event(out, sp);
    }
    // Perfetto flow arrows between dependent graph commands (out-of-order
    // queues): one "s"/"f" pair per resolved edge, anchored at the
    // producer's end and the consumer's start.
    struct flow_anchor {
        double ts_us;
        int tid;
    };
    std::map<std::uint64_t, flow_anchor> producers;
    for (const auto& sp : s.spans())
        if (sp.cmd != 0)
            producers[sp.cmd] = {sp.end_ns / 1e3, tid_for(sp)};
    std::uint64_t flow_id = 0;
    for (const auto& sp : s.spans()) {
        for (const std::uint64_t dep : sp.deps) {
            const auto it = producers.find(dep);
            if (it == producers.end()) continue;
            ++flow_id;
            out << ",\n    {\"name\": \"dep\", \"cat\": \"graph\", \"ph\": "
                   "\"s\", \"id\": "
                << flow_id << ", \"pid\": 1, \"tid\": " << it->second.tid
                << ", \"ts\": " << json::number{it->second.ts_us} << "}";
            out << ",\n    {\"name\": \"dep\", \"cat\": \"graph\", \"ph\": "
                   "\"f\", \"bp\": \"e\", \"id\": "
                << flow_id << ", \"pid\": 1, \"tid\": " << tid_for(sp)
                << ", \"ts\": " << json::number{sp.start_ns / 1e3} << "}";
        }
    }
    if (metrics != nullptr)
        altis::metrics::write_chrome_counter_events(metrics->series(), out,
                                                    first);
    out << "\n  ]\n}\n";
}

}  // namespace altis::trace
