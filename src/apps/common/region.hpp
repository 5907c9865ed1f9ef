// Timed-region description and simulation. Each application variant builds a
// device-independent description of what its timed region does -- which
// kernels launch how many times, which kernels overlap in dataflow groups,
// how many bytes cross PCIe, how many host syncs occur -- from the *same*
// kernel_stats builders its functional path submits. Benches then simulate
// the region on any device/runtime, which is how figures for sizes that are
// infeasible to execute functionally in this environment are produced
// (DESIGN.md Sec. 4).
#pragma once

#include <string>
#include <vector>

#include "perf/device.hpp"
#include "perf/kernel_stats.hpp"
#include "perf/overhead.hpp"

namespace altis::apps {

/// One sequential kernel slot: `stats` launched `count` times.
struct kernel_slot {
    perf::kernel_stats stats;
    double count = 1.0;
};

/// Kernels that run concurrently (connected by pipes / separate queues),
/// launched together `count` times.
struct dataflow_slot {
    std::vector<perf::kernel_stats> kernels;
    double count = 1.0;
};

struct timed_region {
    /// Label used for the region's top-level trace span.
    std::string name = "timed_region";
    std::vector<kernel_slot> kernels;
    std::vector<dataflow_slot> dataflow;
    double transfer_bytes = 0.0;  ///< total PCIe payload in the region
    double transfer_calls = 0.0;  ///< number of memcpy invocations
    double syncs = 1.0;           ///< host synchronizations
    bool include_setup = false;   ///< charge one-time runtime setup
    /// Library-internal non-kernel cost (temp-buffer allocations inside
    /// oneDPL calls, etc.), charged once per region.
    double extra_non_kernel_ns = 0.0;

    /// Whether the host timer around this region observes kernel completion.
    /// The original CUDA FDTD2D forgot its cudaDeviceSynchronize (paper
    /// Sec. 3.3) -- with this false, kernel time vanishes from the total.
    bool synchronized = true;

    [[nodiscard]] double total_launches() const;
    /// Every kernel in the region (for FPGA design Fmax / Table 3).
    [[nodiscard]] std::vector<perf::kernel_stats> all_kernels() const;
};

struct timing_estimate {
    double kernel_ns = 0.0;
    double non_kernel_ns = 0.0;
    [[nodiscard]] double total_ns() const { return kernel_ns + non_kernel_ns; }
    [[nodiscard]] double kernel_ms() const { return kernel_ns / 1e6; }
    [[nodiscard]] double non_kernel_ms() const { return non_kernel_ns / 1e6; }
    [[nodiscard]] double total_ms() const { return total_ns() / 1e6; }
};

/// Simulate the region on a device under a runtime. On FPGAs all kernels
/// share one bitstream: the design Fmax (min over kernels) clocks everything.
///
/// The simulation is a timeline on the command stream
/// (core/command_stream.hpp): with a trace session current it becomes the
/// region itself as a top-level span, one aggregated kernel span per slot
/// (`invocations` = the slot's count), dataflow groups as an envelope plus
/// per-kernel lanes, and transfer/sync/setup/overhead spans for the
/// non-kernel charges. Successive simulations append after the session's
/// last span, so one trace file can hold a whole bench sweep. A current
/// sanitize recorder receives every kernel descriptor.
[[nodiscard]] timing_estimate simulate_region(const timed_region& region,
                                              const perf::device_spec& dev,
                                              perf::runtime_kind rt);

}  // namespace altis::apps
