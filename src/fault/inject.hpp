// Injection entry points the runtime layers probe. A fault::plan becomes the
// process-wide active plan (mirroring trace::session::current()); the
// syclite queue, USM/buffer allocators, pipes and the region simulator call
// maybe_inject()/should_stall_pipe() at their operation sites. With no
// active plan the probes are a single relaxed atomic load -- the hot paths
// pay nothing in normal runs.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "fault/spec.hpp"

namespace altis::fault {

/// Base class of every injected failure. `retryable()` tells the resilient
/// harness whether a bounded retry is worth attempting.
class injected_fault : public std::runtime_error {
public:
    injected_fault(const hit& h, const std::string& site_detail);

    [[nodiscard]] op_kind kind() const { return kind_; }
    /// Operation name the rule matched (kernel name, device name, ...).
    [[nodiscard]] const std::string& op() const { return op_; }
    [[nodiscard]] const std::string& rule_text() const { return rule_text_; }
    [[nodiscard]] bool retryable() const { return fault::retryable(kind_); }

private:
    op_kind kind_;
    std::string op_;
    std::string rule_text_;
};

class alloc_fault final : public injected_fault {
public:
    using injected_fault::injected_fault;
};
class launch_fault final : public injected_fault {
public:
    using injected_fault::injected_fault;
};
class transfer_fault final : public injected_fault {
public:
    using injected_fault::injected_fault;
};
class device_fault final : public injected_fault {
public:
    using injected_fault::injected_fault;
};

// ---- process-wide active plan ----

[[nodiscard]] plan* active();
void set_active(plan* p);

/// RAII activation; restores the previous plan on destruction.
class scope {
public:
    explicit scope(plan& p) : prev_(active()) { set_active(&p); }
    ~scope() { set_active(prev_); }
    scope(const scope&) = delete;
    scope& operator=(const scope&) = delete;

private:
    plan* prev_;
};

/// Probes the active plan for (kind, name) without throwing: the hit when a
/// rule fires. Lets a caller take the firing decision in one place (e.g. on
/// the submitting thread, in submission order) and raise it in another.
[[nodiscard]] std::optional<hit> probe(op_kind kind, std::string_view name);

/// Throws the kind-specific fault for `h`.
[[noreturn]] void raise(const hit& h, const std::string& site_detail = {});

/// probe() then raise(): throws the kind-specific fault when a rule fires.
/// `pipe` rules are never thrown here -- the pipe layer turns them into
/// stalls via should_stall_pipe().
void maybe_inject(op_kind kind, std::string_view name,
                  const std::string& site_detail = {});

/// True when an injected stall fires for this pipe operation: the caller
/// should behave as if the peer kernel never made progress.
[[nodiscard]] bool should_stall_pipe(std::string_view name);

}  // namespace altis::fault
