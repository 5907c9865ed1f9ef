// The one command-execution core of syclite (DESIGN.md Sec. 4). A queue
// disposes of each submitted command in one of three ways -- runs it now
// (in-order), defers it to the gang launch at end_dataflow() (dataflow
// group), or enqueues it as a graph node (out-of-order) -- but whichever
// thread finally executes it calls run_command(), so every engine passes the
// same checkpoint, fault point, in-flight gauge, shadow actor and retire
// sequence, and reports failures in the same classified record. The fault
// decision itself is taken at submission (probe_fault), in submission order.
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <optional>
#include <string>

#include "fault/spec.hpp"
#include "sycl/small_function.hpp"

namespace altis::analyze {
class recorder;
}  // namespace altis::analyze

namespace syclite {

class thread_pool;

namespace detail {

/// Wall-clock nanoseconds for telemetry (submit latency, dispatch latency);
/// distinct from the simulated timeline, which must stay byte-identical
/// with metrics off or on.
[[nodiscard]] inline std::uint64_t wall_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/// One failed command. The joins (queue::merge_failures) sort these by
/// `index` and classify them by the flags.
struct command_failure {
    std::uint64_t index = 0;    ///< submission order; set by the engine
    std::string name;           ///< kernel name; "transfer" for copies
    std::exception_ptr error;   ///< what the command raised
    bool cancelled = false;     ///< cooperative cancellation, not a fault
    bool pipe_blocked = false;  ///< failure was a pipe deadlock-timeout
    std::string detail;         ///< what() of a std::exception, else empty
};

/// The submission half of the launch (or, for transfers, transfer) fault
/// point: probes the active fault plan on the submitting thread, so a rule
/// such as `launch:*@2` hits the second *submitted* command however the
/// engine later schedules it. The hit travels with the command and
/// run_command raises it.
[[nodiscard]] std::optional<altis::fault::hit> probe_fault(
    const std::string& name, bool transfer);

/// Executes one command body on the calling thread: resilience checkpoint,
/// the fault `hit` taken at submission (probe_fault), the in-flight kernel
/// gauge (kernels only), the shadow actor binding, `exec(pool)`, and
/// finally the retirement of recorder command group `cg`. Never throws:
/// whatever the body raised comes back as the failure; nothing when clean.
[[nodiscard]] std::optional<command_failure> run_command(
    const std::string& name, bool transfer,
    small_function<void(thread_pool&)>& exec, thread_pool& pool, int actor,
    altis::analyze::recorder* rec, std::uint64_t cg,
    const std::optional<altis::fault::hit>& hit);

}  // namespace detail
}  // namespace syclite
