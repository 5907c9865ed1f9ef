#include "fault/inject.hpp"

#include <atomic>

namespace altis::fault {
namespace {

std::atomic<plan*> g_active{nullptr};

std::string describe(const hit& h, const std::string& site_detail) {
    std::string msg = std::string("injected ") + to_string(h.kind) +
                      " fault on '" + h.op + "' (rule " + h.rule_text + ")";
    if (!site_detail.empty()) msg += ": " + site_detail;
    return msg;
}

}  // namespace

injected_fault::injected_fault(const hit& h, const std::string& site_detail)
    : std::runtime_error(describe(h, site_detail)),
      kind_(h.kind),
      op_(h.op),
      rule_text_(h.rule_text) {}

plan* active() { return g_active.load(std::memory_order_acquire); }

void set_active(plan* p) { g_active.store(p, std::memory_order_release); }

std::optional<hit> probe(op_kind kind, std::string_view name) {
    plan* p = active();
    if (p == nullptr) return std::nullopt;
    return p->check(kind, name);
}

void raise(const hit& h, const std::string& site_detail) {
    switch (h.kind) {
        case op_kind::alloc: throw alloc_fault(h, site_detail);
        case op_kind::launch: throw launch_fault(h, site_detail);
        case op_kind::transfer: throw transfer_fault(h, site_detail);
        case op_kind::device: throw device_fault(h, site_detail);
        case op_kind::pipe:
            // Stalls are realized by the pipe layer; firing here means a
            // caller probed the wrong entry point.
            break;
    }
    throw injected_fault(h, site_detail);
}

void maybe_inject(op_kind kind, std::string_view name,
                  const std::string& site_detail) {
    if (const auto h = probe(kind, name)) raise(*h, site_detail);
}

bool should_stall_pipe(std::string_view name) {
    plan* p = active();
    if (p == nullptr) return false;
    return p->check(op_kind::pipe, name).has_value();
}

}  // namespace altis::fault
