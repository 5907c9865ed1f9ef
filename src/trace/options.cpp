#include "trace/options.hpp"

#include <cstdlib>
#include <ostream>

#include "core/artifact.hpp"
#include "trace/chrome_export.hpp"
#include "trace/profile.hpp"

namespace altis::trace {

void add_trace_options(OptionParser& opts) {
    const char* env = std::getenv("ALTIS_TRACE");
    opts.add_option("trace", env != nullptr ? env : "",
                    "write Chrome trace-event JSON to <file> "
                    "(default: $ALTIS_TRACE)");
    opts.add_flag("profile", "print the per-kernel profile after the run");
}

options options::from(const OptionParser& opts) {
    options o;
    o.trace_path = opts.get_string("trace");
    o.profile = opts.get_flag("profile");
    return o;
}

bool finish_session(session& s, const options& opt, double end_ns,
                    std::ostream& out, std::ostream& err,
                    const altis::metrics::session* metrics) {
    while (s.open_regions() > 0) s.end_region(end_ns);

    bool ok = true;
    if (!opt.trace_path.empty()) {
        if (write_artifact(opt.trace_path, "trace", err, [&](std::ostream& f) {
                write_chrome_json(s, f, metrics);
            }))
            out << "trace: wrote " << s.spans().size() << " spans to "
                << opt.trace_path << "\n";
        else
            ok = false;
    }
    if (opt.profile) {
        const profile_report p = build_profile(s);
        out << "\n";
        render_profile(p, out);
        if (!opt.trace_path.empty()) {
            const std::string path = opt.trace_path + ".profile.json";
            if (write_artifact(path, "trace", err, [&](std::ostream& f) {
                    write_profile_json(p, f);
                }))
                out << "trace: wrote profile to " << path << "\n";
            else
                ok = false;
        }
    }
    return ok;
}

}  // namespace altis::trace
