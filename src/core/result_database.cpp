#include "core/result_database.hpp"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <iomanip>
#include <ostream>

#include "core/json.hpp"

namespace altis {
namespace {

// Failed trials are stored as FLT_MAX, matching the Altis convention; they
// are excluded from every statistic except error_fraction().
bool is_failure(double v) { return v >= FLT_MAX; }

std::vector<double> valid_values(const std::vector<double>& values) {
    std::vector<double> out;
    out.reserve(values.size());
    for (double v : values)
        if (!is_failure(v)) out.push_back(v);
    return out;
}

}  // namespace

double Result::failure_sentinel() { return FLT_MAX; }

double Result::min() const {
    auto v = valid_values(values);
    if (v.empty()) return failure_sentinel();
    return *std::min_element(v.begin(), v.end());
}

double Result::max() const {
    auto v = valid_values(values);
    if (v.empty()) return failure_sentinel();
    return *std::max_element(v.begin(), v.end());
}

double Result::mean() const {
    auto v = valid_values(values);
    if (v.empty()) return failure_sentinel();
    double sum = 0.0;
    for (double x : v) sum += x;
    return sum / static_cast<double>(v.size());
}

double Result::median() const {
    auto v = valid_values(values);
    if (v.empty()) return failure_sentinel();
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return (n % 2 == 1) ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Result::stddev() const {
    auto v = valid_values(values);
    if (v.size() < 2) return 0.0;
    const double m = mean();
    double acc = 0.0;
    for (double x : v) acc += (x - m) * (x - m);
    return std::sqrt(acc / static_cast<double>(v.size() - 1));
}

double Result::error_fraction() const {
    if (values.empty()) return 0.0;
    std::size_t failures = 0;
    for (double v : values)
        if (is_failure(v)) ++failures;
    return static_cast<double>(failures) / static_cast<double>(values.size());
}

Result& ResultDatabase::series(const std::string& test, const std::string& atts,
                               const std::string& unit) {
    for (auto& r : results_)
        if (r.test == test && r.atts == atts && r.unit == unit) return r;
    results_.push_back(Result{test, atts, unit, {}});
    return results_.back();
}

void ResultDatabase::add_result(const std::string& test, const std::string& atts,
                                const std::string& unit, double value) {
    series(test, atts, unit).values.push_back(value);
}

void ResultDatabase::add_failure(const std::string& test, const std::string& atts,
                                 const std::string& unit) {
    series(test, atts, unit).values.push_back(Result::failure_sentinel());
}

void ResultDatabase::add_outcome(RunOutcome outcome) {
    outcomes_.push_back(std::move(outcome));
}

bool ResultDatabase::all_outcomes_ok() const {
    for (const auto& oc : outcomes_)
        if (oc.status == "failed" || oc.status == "deadline" ||
            oc.status == "cancelled")
            return false;
    return true;
}

void ResultDatabase::merge(const ResultDatabase& other) {
    for (const auto& r : other.results_) {
        Result& mine = series(r.test, r.atts, r.unit);
        mine.values.insert(mine.values.end(), r.values.begin(), r.values.end());
    }
    outcomes_.insert(outcomes_.end(), other.outcomes_.begin(),
                     other.outcomes_.end());
}

const Result* ResultDatabase::find(const std::string& test,
                                   const std::string& atts) const {
    for (const auto& r : results_)
        if (r.test == test && r.atts == atts) return &r;
    return nullptr;
}

double ResultDatabase::geomean(const std::string& test) const {
    double log_sum = 0.0;
    std::size_t n = 0;
    for (const auto& r : results_) {
        if (r.test != test) continue;
        const double m = r.mean();
        if (is_failure(m) || m <= 0.0) continue;
        log_sum += std::log(m);
        ++n;
    }
    return n == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(n));
}

void ResultDatabase::dump_summary(std::ostream& out) const {
    out << std::left << std::setw(28) << "test" << std::setw(36) << "atts"
        << std::setw(8) << "unit" << std::right << std::setw(12) << "median"
        << std::setw(12) << "mean" << std::setw(12) << "stddev"
        << std::setw(12) << "min" << std::setw(12) << "max" << '\n';
    for (const auto& r : results_) {
        out << std::left << std::setw(28) << r.test << std::setw(36) << r.atts
            << std::setw(8) << r.unit << std::right << std::fixed
            << std::setprecision(4) << std::setw(12) << r.median()
            << std::setw(12) << r.mean() << std::setw(12) << r.stddev()
            << std::setw(12) << r.min() << std::setw(12) << r.max() << '\n';
        out.unsetf(std::ios::fixed);
    }
    if (outcomes_.empty()) return;
    std::size_t ok = 0, retried = 0, failed = 0, skipped = 0;
    std::size_t deadline = 0, quarantined = 0, cancelled = 0;
    for (const auto& oc : outcomes_) {
        if (oc.status == "ok") ++ok;
        else if (oc.status == "retried") ++retried;
        else if (oc.status == "failed") ++failed;
        else if (oc.status == "deadline") ++deadline;
        else if (oc.status == "quarantined") ++quarantined;
        else if (oc.status == "cancelled") ++cancelled;
        else ++skipped;
    }
    out << "\noutcomes: " << ok << " ok, " << retried << " retried, " << failed
        << " failed, " << skipped << " skipped";
    // Resilience buckets appear only when populated, so reports from runs
    // without --deadline-ms/--resume stay byte-identical to older output.
    if (deadline != 0) out << ", " << deadline << " deadline";
    if (quarantined != 0) out << ", " << quarantined << " quarantined";
    if (cancelled != 0) out << ", " << cancelled << " cancelled";
    out << '\n';
    for (const auto& oc : outcomes_) {
        if (oc.status == "ok") continue;
        out << "  [" << oc.status << "] " << oc.config;
        if (oc.attempts > 1) out << " (" << oc.attempts << " attempts)";
        if (!oc.error.empty()) out << " -- " << oc.error;
        out << '\n';
    }
}

namespace {

void dump_results_json(std::ostream& out, const std::vector<Result>& results,
                       const char* indent, const char* close_indent) {
    out << "[\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const Result& r = results[i];
        out << indent << "{\"test\": " << json::quoted{r.test}
            << ", \"atts\": " << json::quoted{r.atts}
            << ", \"unit\": " << json::quoted{r.unit} << ", \"values\": [";
        for (std::size_t v = 0; v < r.values.size(); ++v) {
            if (v > 0) out << ", ";
            if (is_failure(r.values[v]))
                out << "null";
            else
                out << r.values[v];
        }
        out << "], \"mean\": " << r.mean() << ", \"median\": " << r.median()
            << ", \"stddev\": " << r.stddev() << "}";
        out << (i + 1 < results.size() ? ",\n" : "\n");
    }
    out << close_indent << "]";
}

}  // namespace

void ResultDatabase::dump_json(std::ostream& out) const {
    if (outcomes_.empty()) {
        // Historical shape: a bare array of series.
        dump_results_json(out, results_, "  ", "");
        out << "\n";
        return;
    }
    out << "{\n  \"results\": ";
    dump_results_json(out, results_, "    ", "  ");
    out << ",\n  \"outcomes\": [\n";
    for (std::size_t i = 0; i < outcomes_.size(); ++i) {
        const RunOutcome& oc = outcomes_[i];
        out << "    {\"config\": " << json::quoted{oc.config}
            << ", \"status\": " << json::quoted{oc.status}
            << ", \"attempts\": " << oc.attempts
            << ", \"error\": " << json::quoted{oc.error} << "}"
            << (i + 1 < outcomes_.size() ? ",\n" : "\n");
    }
    out << "  ]\n}\n";
}

void ResultDatabase::dump_csv(std::ostream& out) const {
    out << "test,atts,unit,values...\n";
    for (const auto& r : results_) {
        out << r.test << ',' << r.atts << ',' << r.unit;
        for (double v : r.values) out << ',' << v;
        out << '\n';
    }
}

}  // namespace altis
