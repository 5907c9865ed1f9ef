#include "metrics/export.hpp"

#include <ostream>

#include "core/json.hpp"

namespace altis::metrics {

namespace {

/// Prometheus HELP text escaping: backslash and newline only (quotes are
/// legal in help text).
std::string escape_help(const std::string& v) {
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

void write_label_set(std::ostream& out, const label_set& labels) {
    if (labels.empty()) return;
    out << '{';
    bool first = true;
    for (const auto& [k, v] : labels) {
        if (!first) out << ',';
        first = false;
        out << k << "=\"" << escape_label_value(v) << '"';
    }
    out << '}';
}

/// Labels plus one extra (the histogram `le`), reusing the same escaping.
void write_label_set_with(std::ostream& out, const label_set& labels,
                          const std::string& extra_key,
                          const std::string& extra_value) {
    out << '{';
    for (const auto& [k, v] : labels)
        out << k << "=\"" << escape_label_value(v) << "\",";
    out << extra_key << "=\"" << escape_label_value(extra_value) << "\"}";
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

std::string escape_label_value(const std::string& v) {
    std::string out;
    out.reserve(v.size());
    for (char c : v) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '"')
            out += "\\\"";
        else if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    return out;
}

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
                out << info.name << "_bucket";
                write_label_set_with(out, info.labels, "le",
                                     std::to_string(histogram::bucket_bound(b)));
                out << ' ' << cumulative << '\n';
            }
            out << info.name << "_bucket";
            write_label_set_with(out, info.labels, "le", "+Inf");
            out << ' ' << h.count << '\n';
            out << info.name << "_sum";
            write_label_set(out, info.labels);
            out << ' ' << h.sum << '\n';
            out << info.name << "_count";
            write_label_set(out, info.labels);
            out << ' ' << h.count << '\n';
        } else {
            out << info.name;
            write_label_set(out, info.labels);
            out << ' ' << m.value << '\n';
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
        if (!m.info.labels.empty()) {
            out << ", \"labels\": {";
            bool lf = true;
            for (const auto& [k, v] : m.info.labels) {
                if (!lf) out << ", ";
                lf = false;
                out << json::quoted{k} << ": " << json::quoted{v};
            }
            out << '}';
        }
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
