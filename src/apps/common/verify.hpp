// Output-verification helpers: every application run checks its device
// results against the golden host reference before reporting timings.
#pragma once

#include <algorithm>
#include <any>
#include <cmath>
#include <cstddef>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <typeinfo>
#include <vector>

namespace altis::apps {

/// Folds one error term into a running worst, like std::max(worst, err) --
/// except that a NaN on either side wins. std::max(worst, NaN) returns
/// `worst` and would drop the NaN; this keeps it, so require_close rejects
/// it. For finite terms the result is exactly std::max's.
[[nodiscard]] inline double worst_error(double worst, double err) {
    return std::isnan(err) || err > worst ? err : worst;
}

/// Maximum elementwise relative error (absolute fallback near zero). A NaN
/// on either side makes the result NaN, which require_close rejects.
template <typename T>
[[nodiscard]] double max_rel_error(std::span<const T> expected,
                                   std::span<const T> actual) {
    if (expected.size() != actual.size())
        throw std::invalid_argument("max_rel_error: size mismatch");
    double worst = 0.0;
    for (std::size_t i = 0; i < expected.size(); ++i) {
        const double e = static_cast<double>(expected[i]);
        const double a = static_cast<double>(actual[i]);
        const double denom = std::max(std::abs(e), 1.0);
        worst = worst_error(worst, std::abs(a - e) / denom);
    }
    return worst;
}

/// Exact-match count of mismatching elements (integer outputs).
template <typename T>
[[nodiscard]] std::size_t mismatch_count(std::span<const T> expected,
                                         std::span<const T> actual) {
    if (expected.size() != actual.size())
        throw std::invalid_argument("mismatch_count: size mismatch");
    std::size_t bad = 0;
    for (std::size_t i = 0; i < expected.size(); ++i)
        if (expected[i] != actual[i]) ++bad;
    return bad;
}

class verification_error : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Throws verification_error when err exceeds tol.
inline void require_close(double err, double tol, const std::string& what) {
    if (!(err <= tol))
        throw verification_error(what + ": verification failed, error " +
                                 std::to_string(err) + " > tol " +
                                 std::to_string(tol));
}

/// Memo of golden references across the passes of one AppInfo::run.
/// register_standard_app opens one around its pass loop and calls
/// next_pass() between passes. Inside it, the i-th reference_once() call of
/// a pass returns slot i, computing it only while the slot is empty, so the
/// serial oracle runs once per run while every pass still checks its own
/// device output. Scopes are per thread, nest like the stack, and free
/// their slots on destruction: nothing outlives the run (a retried run
/// opens a fresh scope and recomputes).
class reference_scope {
public:
    reference_scope() : outer_(current()) { current() = this; }
    ~reference_scope() { current() = outer_; }
    reference_scope(const reference_scope&) = delete;
    reference_scope& operator=(const reference_scope&) = delete;

    /// Rewinds to slot 0: the next pass sees the references in call order.
    void next_pass() { cursor_ = 0; }

    /// Innermost scope of this thread, or nullptr.
    [[nodiscard]] static reference_scope* active() { return current(); }

    /// Slot i's value, or compute() stored into slot i when it is empty.
    /// Throws std::logic_error when the slot holds another type.
    template <typename T, typename F>
    [[nodiscard]] std::shared_ptr<const T> slot(F& compute) {
        const std::size_t i = cursor_++;
        if (i >= slots_.size()) slots_.resize(i + 1);
        if (!slots_[i].has_value())
            slots_[i] = std::make_shared<const T>(compute());
        const auto* value = std::any_cast<std::shared_ptr<const T>>(&slots_[i]);
        if (value == nullptr)
            throw std::logic_error("reference_once: slot " + std::to_string(i) +
                                   " holds another type than " +
                                   typeid(T).name());
        return *value;
    }

private:
    static reference_scope*& current() {
        static thread_local reference_scope* scope = nullptr;
        return scope;
    }

    reference_scope* outer_;
    std::vector<std::any> slots_;  ///< std::shared_ptr<const T>; empty until computed
    std::size_t cursor_ = 0;
};

/// The golden reference compute() returns, computed once per
/// reference_scope (see above); outside any scope it simply calls compute().
/// The result is shared and read-only: every pass of a run gets the same
/// object. A compute() that throws leaves its slot empty.
template <typename F>
[[nodiscard]] auto reference_once(F&& compute)
    -> std::shared_ptr<const std::decay_t<std::invoke_result_t<F&>>> {
    using T = std::decay_t<std::invoke_result_t<F&>>;
    if (reference_scope* scope = reference_scope::active())
        return scope->slot<T>(compute);
    return std::make_shared<const T>(compute());
}

}  // namespace altis::apps
