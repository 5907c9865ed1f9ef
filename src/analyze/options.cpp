#include "analyze/options.hpp"

#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>

#include "analyze/sanitize.hpp"
#include "analyze/sarif.hpp"
#include "core/option_parser.hpp"

namespace altis::analyze {

void add_sanitize_options(OptionParser& opts) {
    opts.add_option("sanitize", "",
                    "lint the run's command graph: off | warn | error "
                    "(default $ALTIS_SANITIZE)");
    opts.add_option("sanitize-json", "", "write sanitize findings as JSON");
    opts.add_option("sanitize-sarif", "",
                    "write sanitize findings as SARIF v2.1.0");
    opts.add_option("sanitize-baseline", "",
                    "baseline file: listed fingerprints demote to notes");
}

options options::from(const OptionParser& opts) {
    options o;
    std::string name = opts.get_string("sanitize");
    if (name.empty())
        if (const char* env = std::getenv("ALTIS_SANITIZE")) name = env;
    if (name.empty() || name == "off")
        o.lv = level::off;
    else if (name == "warn")
        o.lv = level::warn;
    else if (name == "error")
        o.lv = level::error;
    else
        throw OptionError("--sanitize: unknown level '" + name +
                          "' (off | warn | error)");
    o.json_path = opts.get_string("sanitize-json");
    o.sarif_path = opts.get_string("sanitize-sarif");
    o.baseline_path = opts.get_string("sanitize-baseline");
    // Asking for an output file means asking for the analysis: run at warn
    // so a clean tree still yields a valid empty document, not no file.
    if (o.lv == level::off && (!o.json_path.empty() || !o.sarif_path.empty()))
        o.lv = level::warn;
    return o;
}

int finish(const recorder& rec, const options& opt, std::ostream& out,
           std::ostream& err) {
    report r = run_all(rec);
    if (!opt.baseline_path.empty()) {
        std::ifstream bf(opt.baseline_path);
        if (!bf) {
            err << "error: cannot read " << opt.baseline_path << "\n";
            return 2;
        }
        std::ostringstream text;
        text << bf.rdbuf();
        r = apply_baseline(r, parse_baseline(text.str()));
    }
    r.render_text(out);
    if (stream::wanted(stream::kind::finding))
        for (const finding& f : r.findings()) {
            const std::string label = "sanitize " + f.rule + ": " + f.message;
            stream::emit({.what = stream::kind::finding, .label = label});
        }
    if (!opt.json_path.empty()) {
        std::ofstream f(opt.json_path);
        if (!f) {
            err << "error: cannot write " << opt.json_path << "\n";
            return 2;
        }
        r.render_json(f);
    }
    if (!opt.sarif_path.empty()) {
        std::ofstream f(opt.sarif_path);
        if (!f) {
            err << "error: cannot write " << opt.sarif_path << "\n";
            return 2;
        }
        render_sarif(r, f);
    }
    return opt.lv == level::error && r.count_at_least(severity::warning) > 0
               ? 1
               : 0;
}

}  // namespace altis::analyze
