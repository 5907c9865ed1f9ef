// Suite runner CLI: the Altis-style entry point. Runs one application (or
// every registered application) functionally on a simulated device, verifies
// the results against the host reference, and reports timing statistics.
//
//   ./examples/altis_run --help
//   ./examples/altis_run kmeans --device stratix_10 --variant fpga_opt
//   ./examples/altis_run all --size 1 --device rtx_2080 --passes 3 --csv
//   ./examples/altis_run kmeans --trace out.json --profile
//   ./examples/altis_run all --inject 'alloc@2;seed=7'   # fault drill
//   ./examples/altis_run all --sanitize error             # hazard/perf lint
//   ./examples/altis_run all --journal run.jsonl          # crash-safe sweep
//   ./examples/altis_run all --resume run.jsonl           # continue after kill
#include <algorithm>
#include <iostream>
#include <sstream>

#include "apps/common/app.hpp"
#include "core/option_parser.hpp"
#include "core/registry.hpp"
#include "core/result_database.hpp"
#include "fault/inject.hpp"
#include "resilience/cancel.hpp"
#include "resilience/supervisor.hpp"
#include "trace/harness.hpp"

namespace {

/// Snapshot of a per-attempt database for the checkpoint journal; values
/// round-trip exactly (to_chars), so a replayed merge is byte-identical.
std::vector<altis::resilience::journal_series> capture_series(
    const altis::ResultDatabase& db) {
    std::vector<altis::resilience::journal_series> out;
    for (const auto& r : db.results())
        out.push_back({r.test, r.atts, r.unit, r.values});
    return out;
}

void restore_series(const std::vector<altis::resilience::journal_series>& in,
                    altis::ResultDatabase& db) {
    for (const auto& s : in)
        for (double v : s.values) db.add_result(s.test, s.atts, s.unit, v);
}

}  // namespace

int main(int argc, char** argv) {
    using namespace altis;

    // The observer options (trace, fault, sanitize, metrics, resilience)
    // and their sessions come from the shared harness; every value-carrying
    // option is range-checked at parse: a malformed or out-of-range value is
    // one clear line on stderr and exit code 2.
    trace::cli_harness h("altis_run");
    OptionParser& opts = h.parser();
    add_standard_options(opts);
    opts.add_option("variant", "sycl_opt",
                    "cuda | sycl_base | sycl_opt | fpga_base | fpga_opt");
    opts.add_flag("csv", "dump raw trial values as CSV");
    opts.add_flag("json", "dump results as JSON");
    opts.add_flag("list", "list registered applications and exit");
    if (const int rc = h.parse(argc, argv); rc >= 0) return rc;
    const fault::options& fopts = h.fault_options();

    // SIGINT/SIGTERM turn into cooperative cancellation: the running config
    // unwinds at its next checkpoint, the loop below breaks, and the partial
    // report plus the (already fsync'd) journal survive the exit.
    resilience::install_signal_cancellation();
    resilience::supervisor* sup = h.supervisor();

    apps::register_all_apps();
    auto& registry = Registry::instance();

    if (opts.get_flag("list")) {
        for (const auto& app : registry.apps()) {
            std::cout << app.name << " -- " << app.description << " [";
            for (std::size_t i = 0; i < app.variants.size(); ++i)
                std::cout << (i ? " " : "") << to_string(app.variants[i]);
            std::cout << "]\n";
        }
        return 0;
    }

    RunConfig cfg;
    cfg.size = static_cast<int>(opts.get_int("size"));
    cfg.device = opts.get_string("device");
    cfg.passes = static_cast<int>(opts.get_int("passes"));
    const std::string vname = opts.get_string("variant");
    bool found = false;
    for (const Variant v : {Variant::cuda, Variant::sycl_base, Variant::sycl_opt,
                            Variant::fpga_base, Variant::fpga_opt}) {
        if (vname == to_string(v)) {
            cfg.variant = v;
            found = true;
        }
    }
    if (!found) {
        std::cerr << "error: unknown variant " << vname << "\n";
        return 2;
    }

    std::vector<std::string> targets = opts.positional();
    if (targets.empty()) {
        std::cerr << "usage: altis_run <app|all> [options]; see --help or "
                     "--list\n";
        return 2;
    }
    if (targets.size() == 1 && targets[0] == "all") {
        targets.clear();
        for (const auto& app : registry.apps()) targets.push_back(app.name);
    }

    // With --trace/--profile active, every queue the apps construct emits
    // spans into the harness session; each app run becomes a top-level
    // region span.
    trace::session* tsession = trace::session::current();

    // Outcomes are recorded only when they carry information (injection
    // active, or an app actually failed/retried); a clean un-injected run
    // keeps the historical report byte-for-byte.
    ResultDatabase db;
    int failures = 0;
    bool interrupted = false;
    for (const auto& name : targets) {
        const AppInfo* app = registry.find(name);
        if (app == nullptr) {
            std::cerr << "error: unknown application '" << name
                      << "' (try --list)\n";
            return 2;
        }
        const std::string label = name + "/" + to_string(cfg.variant) + "/" +
                                  cfg.device + "/size" +
                                  std::to_string(cfg.size);
        const bool supported =
            std::find(app->variants.begin(), app->variants.end(),
                      cfg.variant) != app->variants.end() &&
            apps::variant_allowed(cfg.variant,
                                  perf::device_by_name(cfg.device));
        if (!supported) {
            // Deterministic skip: recomputed identically on resume, so it
            // bypasses journal and breaker entirely.
            std::cout << name << ": skipped (variant/device unsupported)\n";
            if (fopts.enabled()) {
                fault::outcome oc;
                oc.st = fault::outcome::status::skipped;
                oc.error = "variant/device unsupported";
                fault::record_outcome(db, label, oc);
            }
            continue;
        }
        // Each attempt runs into its own database so a failed partial pass
        // never leaks half a trial's metrics into the report; only the
        // successful attempt is merged. Everything the config prints is also
        // captured into the journal entry so a resumed run replays the exact
        // same stdout.
        ResultDatabase attempt_db;
        fault::outcome oc;
        std::string log;
        auto emit = [&](const std::string& text) {
            std::cout << text;
            log += text;
        };
        auto run_body = [&]() {
            if (tsession != nullptr)
                tsession->begin_region(label, tsession->last_end_ns());
            try {
                oc = fault::run_guarded(
                    [&] {
                        attempt_db.clear();
                        app->run(cfg, attempt_db);
                    },
                    fopts.policy, fopts.fail_fast,
                    [&](int attempt, const std::string& error,
                        double backoff_ms) {
                        std::ostringstream os;
                        os << name << ": attempt " << attempt << " failed ("
                           << error << "), retrying after " << backoff_ms
                           << " ms\n";
                        emit(os.str());
                    });
            } catch (...) {
                if (tsession != nullptr)
                    tsession->end_region(tsession->last_end_ns());
                throw;
            }
            if (tsession != nullptr)
                tsession->end_region(tsession->last_end_ns());
            if (oc.succeeded()) {
                std::ostringstream os;
                os << name << ": ok (" << cfg.passes << " passes, verified";
                if (oc.retried())
                    os << ", " << oc.attempts << " attempts, " << oc.backoff_ms
                       << " ms backoff";
                os << ")\n";
                emit(os.str());
            } else {
                std::ostringstream os;
                os << name << ": "
                   << (oc.st == fault::outcome::status::failed ? "FAILED"
                                                               : oc.label())
                   << " -- " << oc.error << "\n";
                emit(os.str());
            }
        };
        try {
            if (sup != nullptr) {
                const std::string bkey = name + "/" + to_string(cfg.variant) +
                                         "/" + cfg.device;
                const auto res = sup->run(label, bkey, [&] {
                    run_body();
                    resilience::journal_entry entry;
                    entry.config = label;
                    entry.status = oc.label();
                    entry.attempts = oc.attempts;
                    entry.backoff_ms = oc.backoff_ms;
                    entry.error = oc.error;
                    entry.log = log;
                    if (oc.succeeded())
                        entry.results = capture_series(attempt_db);
                    return entry;
                });
                if (res.replayed || res.entry.status == "quarantined") {
                    oc.st = fault::status_from_label(res.entry.status);
                    oc.attempts = res.entry.attempts;
                    oc.backoff_ms = res.entry.backoff_ms;
                    oc.error = res.entry.error;
                    attempt_db.clear();
                    restore_series(res.entry.results, attempt_db);
                    // Replays print their captured stdout verbatim;
                    // quarantined entries never ran, so their one line is
                    // composed the same way live and on replay.
                    if (res.entry.status == "quarantined")
                        std::cout << name << ": quarantined -- "
                                  << res.entry.error << "\n";
                    else
                        std::cout << res.entry.log;
                }
            } else {
                run_body();
            }
        } catch (const std::exception& e) {
            std::cerr << name << ": FAILED -- " << e.what()
                      << "\naborting (--fail-fast)\n";
            return 1;
        }

        if (oc.succeeded())
            db.merge(attempt_db);
        else
            ++failures;
        if (fopts.enabled() || sup != nullptr || !oc.succeeded() ||
            oc.retried())
            fault::record_outcome(db, label, oc);
        if (resilience::interrupted()) {
            interrupted = true;
            break;
        }
    }

    if (interrupted)
        std::cout << "\ninterrupted -- partial results follow"
                  << (sup != nullptr && !sup->journal_path().empty()
                          ? " (journal flushed: " + sup->journal_path() + ")"
                          : "")
                  << "\n";
    std::cout << '\n';
    if (opts.get_flag("csv"))
        db.dump_csv(std::cout);
    else if (opts.get_flag("json"))
        db.dump_json(std::cout);
    else
        db.dump_summary(std::cout);

    const int rc = h.finish();
    if (rc == 2) return 2;
    if (interrupted) return 128 + resilience::interrupt_signal();
    if (failures != 0) return 1;
    return rc;
}
