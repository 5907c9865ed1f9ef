// One-stop CLI harness for the observer options every binary shares
// (trace, fault, sanitize, metrics, resilience): owns the OptionParser, the
// observers and their activation, so a bench main() is three lines of
// wiring (altis_run adds its own options through parser() first):
//
//   altis::trace::cli_harness h("fig3_kmeans_pipes");
//   if (int rc = h.parse(argc, argv); rc >= 0) return rc;
//   ... existing body (simulate_region / queues pick the session up) ...
//   return h.finish();
#pragma once

#include <optional>
#include <string>

#include "analyze/options.hpp"
#include "analyze/recorder.hpp"
#include "core/option_parser.hpp"
#include "fault/inject.hpp"
#include "fault/options.hpp"
#include "metrics/options.hpp"
#include "metrics/session.hpp"
#include "resilience/options.hpp"
#include "resilience/supervisor.hpp"
#include "trace/options.hpp"
#include "trace/session.hpp"

namespace altis::trace {

class cli_harness {
public:
    explicit cli_harness(std::string name);

    /// Registers the shared options after any the binary added through
    /// parser(), then parses argv (handling --help and unknown options).
    /// Returns a process exit code when main should return immediately, -1
    /// to continue. When tracing is requested, the session becomes current
    /// here.
    [[nodiscard]] int parse(int argc, char** argv);

    /// Runs the sanitizer (when --sanitize was given) and exports
    /// trace/profile/metrics artifacts if requested. Returns the process
    /// exit code: 2 when an artifact could not be written (a sanitizer
    /// output failing stops before the other exports), else 1 when
    /// --sanitize=error found problems, else 0.
    [[nodiscard]] int finish();

    [[nodiscard]] OptionParser& parser() { return opts_; }
    [[nodiscard]] session& trace_session() { return session_; }

    /// Fault/resilience options parsed from the shared flags (--inject,
    /// --fail-fast, --retries, --retry-backoff-ms). When --inject is given
    /// (or $ALTIS_FAULT is set), parse() compiles the plan and makes it the
    /// process-wide active plan for the binary's lifetime; a malformed spec
    /// is a usage error (exit code 2).
    [[nodiscard]] const fault::options& fault_options() const { return fopts_; }
    [[nodiscard]] const fault::retry_policy& retry_policy() const {
        return fopts_.policy;
    }
    [[nodiscard]] bool fail_fast() const { return fopts_.fail_fast; }

    /// Sanitize options parsed from --sanitize/--sanitize-json. When
    /// enabled, parse() installs a process-wide analyze::recorder for the
    /// binary's lifetime and finish() runs the passes over the captured
    /// command graph.
    [[nodiscard]] const analyze::options& sanitize_options() const {
        return aopts_;
    }

    /// Wall-clock metrics options parsed from --metrics/--metrics-prom/
    /// --metrics-json ($ALTIS_METRICS forces collection on). When enabled,
    /// parse() starts a metrics::session; finish() stops it before the trace
    /// export so the sampled series merge into the Perfetto file as counter
    /// tracks, then writes the requested exports.
    [[nodiscard]] const metrics::options& metrics_options() const {
        return mopts_;
    }
    [[nodiscard]] metrics::session* metrics_session() {
        return msession_ ? &*msession_ : nullptr;
    }

    /// Resilience options parsed from --deadline-ms/--journal/--resume/
    /// --breaker-* ($ALTIS_DEADLINE_MS). When any supervisor feature is
    /// requested, parse() constructs the supervisor (validating a --resume
    /// journal against the harness name; a mismatch is exit code 2) and
    /// installs SIGINT/SIGTERM cooperative cancellation.
    [[nodiscard]] const resilience::options& resilience_options() const {
        return ropts_;
    }
    [[nodiscard]] resilience::supervisor* supervisor() {
        return supervisor_ ? &*supervisor_ : nullptr;
    }

private:
    OptionParser opts_;
    trace::options topts_;
    fault::options fopts_;
    analyze::options aopts_;
    metrics::options mopts_;
    resilience::options ropts_;
    std::optional<resilience::supervisor> supervisor_;
    std::optional<fault::plan> plan_;
    std::optional<fault::scope> fault_scope_;
    std::optional<analyze::recorder> recorder_;
    std::optional<analyze::recorder::scope> sanitize_scope_;
    std::optional<metrics::session> msession_;
    session session_;
    std::optional<session::scope> scope_;
};

}  // namespace altis::trace
