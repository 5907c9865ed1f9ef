#include "metrics/options.hpp"

#include <cstdlib>
#include <ostream>

#include "core/artifact.hpp"
#include "metrics/export.hpp"

namespace altis::metrics {

void add_metrics_options(OptionParser& opts) {
    opts.add_flag("metrics",
                  "collect wall-clock runtime telemetry (default: on when "
                  "$ALTIS_METRICS is set)");
    opts.add_option("metrics-prom", "",
                    "write Prometheus text exposition to <file> (implies "
                    "--metrics)");
    opts.add_option("metrics-json", "",
                    "write metrics snapshot + series JSON to <file> (implies "
                    "--metrics)");
}

options options::from(const OptionParser& opts) {
    options o;
    o.metrics = opts.get_flag("metrics");
    if (const char* env = std::getenv("ALTIS_METRICS"))
        if (*env != '\0' && std::string(env) != "0") o.metrics = true;
    o.prom_path = opts.get_string("metrics-prom");
    o.json_path = opts.get_string("metrics-json");
    return o;
}

bool finish_metrics(session& s, const options& opt, std::ostream& out,
                    std::ostream& err) {
    s.stop();
    const snapshot snap = s.take_snapshot();

    bool ok = true;
    if (!opt.prom_path.empty()) {
        if (write_artifact(opt.prom_path, "metrics", err,
                           [&](std::ostream& f) { write_prometheus(snap, f); }))
            out << "metrics: wrote " << snap.metrics.size()
                << " metric families to " << opt.prom_path << "\n";
        else
            ok = false;
    }
    if (!opt.json_path.empty()) {
        if (write_artifact(opt.json_path, "metrics", err, [&](std::ostream& f) {
                write_json(snap, s.series(), f);
            }))
            out << "metrics: wrote snapshot to " << opt.json_path << "\n";
        else
            ok = false;
    }
    if (opt.prom_path.empty() && opt.json_path.empty()) {
        // Bare --metrics: a compact console summary of what actually moved.
        out << "\nwall-clock metrics (" << snap.duration_ns / 1e6 << " ms):\n";
        for (const metric_value& m : snap.metrics) {
            if (m.info.kind == instrument_kind::histogram) {
                if (m.hist.count == 0) continue;
                out << "  " << m.info.name << ": count " << m.hist.count
                    << ", sum " << m.hist.sum << ", mean "
                    << static_cast<double>(m.hist.sum) /
                           static_cast<double>(m.hist.count)
                    << "\n";
            } else {
                if (m.value == 0) continue;
                out << "  " << m.info.name << ": " << m.value << "\n";
            }
        }
    }
    return ok;
}

}  // namespace altis::metrics
