#include "sycl/command.hpp"

#include "analyze/recorder.hpp"
#include "analyze/shadow.hpp"
#include "fault/inject.hpp"
#include "metrics/instruments.hpp"
#include "resilience/cancel.hpp"
#include "sycl/pipe.hpp"

namespace syclite::detail {

namespace {

/// Holds one unit of a gauge for its scope (null: unmetered), so the add
/// and the sub balance on every exit path.
struct gauge_hold {
    altis::metrics::gauge* g;
    explicit gauge_hold(altis::metrics::gauge* gauge) : g(gauge) {
        if (g != nullptr) g->add(1);
    }
    ~gauge_hold() {
        if (g != nullptr) g->sub(1);
    }
    gauge_hold(const gauge_hold&) = delete;
    gauge_hold& operator=(const gauge_hold&) = delete;
};

/// Retires a command group's accessor-lifetime token on every exit path.
struct retire_guard {
    altis::analyze::recorder* rec;
    std::uint64_t cg;
    ~retire_guard() {
        if (rec != nullptr && cg != 0) rec->retire(cg);
    }
};

}  // namespace

std::optional<altis::fault::hit> probe_fault(const std::string& name,
                                             bool transfer) {
    namespace fault = altis::fault;
    return fault::probe(
        transfer ? fault::op_kind::transfer : fault::op_kind::launch, name);
}

std::optional<command_failure> run_command(
    const std::string& name, bool transfer,
    small_function<void(thread_pool&)>& exec, thread_pool& pool, int actor,
    altis::analyze::recorder* rec, std::uint64_t cg,
    const std::optional<altis::fault::hit>& hit) {
    const retire_guard retire{rec, cg};
    try {
        // Dispatch-time checkpoint: a deadline that expired while the
        // command waited (deferred group, queued graph node) cancels it
        // before a single byte moves.
        altis::resilience::checkpoint();
        if (hit)
            altis::fault::raise(*hit, transfer ? "transfer failed"
                                               : "kernel launch failed");
        // In-flight kernels (transfers are not kernels). The metering
        // decision is taken once, so the gauge balances even if a session
        // starts or stops mid-kernel.
        const gauge_hold inflight(
            !transfer && altis::metrics::collecting()
                ? &altis::metrics::instruments::queue_inflight_kernels()
                : nullptr);
        // Attribute the body's observed accesses to its shadow actor (no-op
        // when no sanitize session assigned one).
        const altis::analyze::shadow::actor_scope scope(actor);
        exec(pool);
        return std::nullopt;
    } catch (const std::exception& e) {
        // A cancellation means the supervisor pulled the plug; a pipe
        // timeout means the kernel was wedged waiting for its peer.
        return command_failure{
            .name = name,
            .error = std::current_exception(),
            .cancelled =
                dynamic_cast<const altis::resilience::cancelled_error*>(&e) !=
                nullptr,
            .pipe_blocked = dynamic_cast<const pipe_deadlock*>(&e) != nullptr,
            .detail = e.what()};
    } catch (...) {
        command_failure f;  // not a std::exception: no detail
        f.name = name;
        f.error = std::current_exception();
        return f;
    }
}

}  // namespace syclite::detail
