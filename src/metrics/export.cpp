#include "metrics/export.hpp"

#include <ostream>

#include "core/json.hpp"

namespace altis::metrics {

namespace {

/// Prometheus HELP text escaping: backslash and newline only (quotes are
/// legal in help text).
std::string escape_help(std::string_view v) {
    std::string out;
    out.reserve(v.size());
    for (char c : v) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    return out;
}

/// Highest non-empty bucket index, so expositions stay compact: a latency
/// histogram peaking at ~1 us emits ~11 cumulative buckets, not 65.
int last_used_bucket(const histogram::snapshot& h) {
    int last = 0;
    for (int b = 0; b < histogram::kBuckets; ++b)
        if (h.buckets[static_cast<std::size_t>(b)] != 0) last = b;
    return last;
}

}  // namespace

void write_prometheus(const snapshot& snap, std::ostream& out) {
    for (const metric_value& m : snap.metrics) {
        const instrument_info& info = m.info;
        out << "# HELP " << info.name << ' ' << escape_help(info.help) << '\n';
        const char* prom_type = "untyped";
        switch (info.kind) {
            case instrument_kind::counter: prom_type = "counter"; break;
            case instrument_kind::gauge:
            case instrument_kind::watermark: prom_type = "gauge"; break;
            case instrument_kind::histogram: prom_type = "histogram"; break;
        }
        out << "# TYPE " << info.name << ' ' << prom_type << '\n';
        if (info.kind == instrument_kind::histogram) {
            const histogram::snapshot& h = m.hist;
            std::uint64_t cumulative = 0;
            const int last = last_used_bucket(h);
            for (int b = 0; b <= last; ++b) {
                cumulative += h.buckets[static_cast<std::size_t>(b)];
                out << info.name << "_bucket{le=\""
                    << histogram::bucket_bound(b) << "\"} " << cumulative
                    << '\n';
            }
            out << info.name << "_bucket{le=\"+Inf\"} " << h.count << '\n';
            out << info.name << "_sum " << h.sum << '\n';
            out << info.name << "_count " << h.count << '\n';
        } else {
            out << info.name << ' ' << m.value << '\n';
        }
    }
}

void write_json(const snapshot& snap,
                const std::vector<sampled_series>& series,
                std::ostream& out) {
    out << "{\n  \"session\": " << json::quoted{snap.session_name};
    out << ",\n  \"duration_ns\": " << json::number{snap.duration_ns};
    out << ",\n  \"metrics\": [\n";
    bool first = true;
    for (const metric_value& m : snap.metrics) {
        if (!first) out << ",\n";
        first = false;
        out << "    {\"name\": " << json::quoted{m.info.name}
            << ", \"type\": " << json::quoted{to_string(m.info.kind)};
        if (m.info.kind == instrument_kind::histogram) {
            out << ", \"count\": " << m.hist.count
                << ", \"sum\": " << m.hist.sum << ", \"buckets\": [";
            bool bf = true;
            const int last = last_used_bucket(m.hist);
            for (int b = 0; b <= last; ++b) {
                const std::uint64_t n =
                    m.hist.buckets[static_cast<std::size_t>(b)];
                if (n == 0) continue;
                if (!bf) out << ", ";
                bf = false;
                out << "{\"le\": " << histogram::bucket_bound(b)
                    << ", \"count\": " << n << '}';
            }
            out << ']';
        } else {
            out << ", \"value\": " << m.value;
        }
        out << ", \"help\": " << json::quoted{m.info.help} << '}';
    }
    out << "\n  ],\n  \"series\": [\n";
    first = true;
    for (const sampled_series& s : series) {
        if (!first) out << ",\n";
        first = false;
        out << "    {\"name\": " << json::quoted{s.info.name}
            << ", \"samples\": [";
        bool sf = true;
        for (const auto& [t, v] : s.samples) {
            if (!sf) out << ", ";
            sf = false;
            out << '[' << json::number{t} << ", " << json::number{v} << ']';
        }
        out << "]}";
    }
    out << "\n  ]\n}\n";
}

void write_chrome_counter_events(const std::vector<sampled_series>& series,
                                 std::ostream& out, bool& first) {
    if (series.empty()) return;
    // Name the counter process so Perfetto groups the wall-clock tracks
    // apart from the simulated-timeline lanes (pid 1).
    if (!first) out << ",\n";
    first = false;
    out << "    {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 2, "
           "\"args\": {\"name\": \"wall-clock metrics\"}}";
    for (const sampled_series& s : series) {
        for (const auto& [t, v] : s.samples) {
            out << ",\n    {\"name\": " << json::quoted{s.info.name};
            // ts is microseconds; wall-clock ns survive as fractions.
            out << ", \"ph\": \"C\", \"ts\": " << json::number{t / 1e3}
                << ", \"pid\": 2, \"args\": {\"value\": " << json::number{v}
                << "}}";
        }
    }
}

}  // namespace altis::metrics
