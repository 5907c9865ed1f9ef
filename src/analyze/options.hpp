// Shared CLI/env wiring for the sanitizer, mirroring trace/options.hpp so
// every harness binary behaves identically:
//
//   --sanitize <off|warn|error>   capture the command graph and lint it at
//                                 exit; `error` turns any warning-or-worse
//                                 finding into exit code 1 and refuses to
//                                 launch dataflow groups with pipe errors.
//                                 Defaults to $ALTIS_SANITIZE when set.
//   --sanitize-json <file>        also write the findings as JSON.
//   --sanitize-sarif <file>       also write the findings as SARIF v2.1.0
//                                 (GitHub code scanning).
//   --sanitize-baseline <file>    demote findings fingerprinted in the
//                                 baseline to notes; flag stale entries.
//
// Requesting an output file (--sanitize-json / --sanitize-sarif) implies
// `--sanitize warn`, so a clean tree still produces a valid empty document
// instead of no file at all.
#pragma once

#include <iosfwd>
#include <string>

#include "analyze/recorder.hpp"

namespace altis {
class OptionParser;
}

namespace altis::analyze {

void add_sanitize_options(OptionParser& opts);

struct options {
    level lv = level::off;
    std::string json_path;
    std::string sarif_path;
    std::string baseline_path;

    [[nodiscard]] bool enabled() const { return lv != level::off; }
    /// Reads --sanitize/--sanitize-json/--sanitize-sarif/--sanitize-baseline,
    /// falling back to $ALTIS_SANITIZE. Throws OptionError on an unknown
    /// level name.
    [[nodiscard]] static options from(const OptionParser& opts);
};

/// Runs the passes over `rec`, applies the baseline (when given), renders
/// the findings to `out`, writes the JSON/SARIF files when requested, and
/// emits each finding on the command stream (a current trace session records
/// it as an error-flagged span). Returns the process exit code contribution:
/// 1 when level is `error` and any warning-or-worse finding exists
/// (baselined findings are notes and never gate), 2 when an output file
/// could not be written or the baseline could not be read, else 0.
[[nodiscard]] int finish(const recorder& rec, const options& opt,
                         std::ostream& out, std::ostream& err);

}  // namespace altis::analyze
