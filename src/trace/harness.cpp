#include "trace/harness.hpp"

#include <iostream>
#include <stdexcept>
#include <utility>

namespace altis::trace {

cli_harness::cli_harness(std::string name) : session_(std::move(name)) {}

int cli_harness::parse(int argc, char** argv) {
    // Registered here rather than at construction, so the binary's own
    // options (added through parser()) lead the --help listing.
    add_trace_options(opts_);
    fault::add_fault_options(opts_);
    analyze::add_sanitize_options(opts_);
    metrics::add_metrics_options(opts_);
    resilience::add_resilience_options(opts_);
    try {
        if (!opts_.parse(argc, argv, std::cout)) return 0;  // --help
        aopts_ = analyze::options::from(opts_);
        topts_ = options::from(opts_);
        fopts_ = fault::options::from(opts_);
        ropts_ = resilience::options::from(opts_);
    } catch (const OptionError& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }
    if (ropts_.enabled()) {
        try {
            supervisor_.emplace(ropts_, session_.name());
        } catch (const std::runtime_error& e) {
            std::cerr << "error: " << e.what() << "\n";
            return 2;
        }
        resilience::install_signal_cancellation();
    }
    if (aopts_.enabled()) {
        recorder_.emplace(aopts_.lv);
        sanitize_scope_.emplace(*recorder_);
    }
    if (fopts_.enabled()) {
        try {
            plan_.emplace(fopts_.make_plan());
        } catch (const fault::spec_error& e) {
            std::cerr << "error: bad --inject spec: " << e.what() << "\n";
            return 2;
        }
        fault_scope_.emplace(*plan_);
    }
    mopts_ = metrics::options::from(opts_);
    if (mopts_.enabled()) msession_.emplace(session_.name());
    // Only install the session when asked to: an inactive bench collects no
    // spans and behaves exactly as before the trace layer existed.
    if (topts_.enabled()) scope_.emplace(session_);
    return -1;
}

int cli_harness::finish() {
    int sanitize_rc = 0;
    if (recorder_) {
        sanitize_scope_.reset();
        // Findings reach the trace (when one is current) over the command
        // stream, as zero-length failed spans at the end of the timeline.
        sanitize_rc = analyze::finish(*recorder_, aopts_, std::cout, std::cerr);
        if (sanitize_rc == 2) return 2;
    }
    // Stop metrics before the trace export so the finished sampled series
    // can merge into the Perfetto file as counter tracks.
    if (msession_) msession_->stop();
    if (topts_.enabled()) {
        scope_.reset();
        if (!finish_session(session_, topts_, session_.last_end_ns(),
                            std::cout, std::cerr,
                            msession_ ? &*msession_ : nullptr))
            return 2;
    }
    if (msession_ &&
        !metrics::finish_metrics(*msession_, mopts_, std::cout, std::cerr))
        return 2;
    return sanitize_rc;
}

}  // namespace altis::trace
