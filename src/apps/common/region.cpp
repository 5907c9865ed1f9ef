#include "apps/common/region.hpp"

#include <algorithm>

#include "core/command_stream.hpp"
#include "fault/inject.hpp"
#include "perf/model.hpp"
#include "perf/resource_model.hpp"
#include "resilience/cancel.hpp"
#include "sycl/error.hpp"

namespace altis::apps {

double timed_region::total_launches() const {
    double n = 0.0;
    for (const auto& k : kernels) n += k.count;
    for (const auto& g : dataflow)
        n += g.count * static_cast<double>(g.kernels.size());
    return n;
}

std::vector<perf::kernel_stats> timed_region::all_kernels() const {
    std::vector<perf::kernel_stats> all;
    for (const auto& k : kernels) all.push_back(k.stats);
    for (const auto& g : dataflow)
        all.insert(all.end(), g.kernels.begin(), g.kernels.end());
    return all;
}

timing_estimate simulate_region(const timed_region& region,
                                const perf::device_spec& dev,
                                perf::runtime_kind rt) {
    namespace fault = altis::fault;
    using stream::kind;
    timing_estimate t;

    double design_fmax = 0.0;
    if (dev.is_fpga()) {
        const auto design =
            perf::estimate_design_resources(region.all_kernels(), dev);
        design_fmax = design.fmax_mhz;
    }
    auto one_kernel_ns = [&](const perf::kernel_stats& k) {
        return dev.is_fpga() ? perf::fpga_kernel_time_ns(k, dev, design_fmax)
                             : perf::kernel_time_ns(k, dev);
    };

    const double launch = perf::launch_overhead_ns(rt, dev);

    // The region is a timeline of its own on the command stream: one
    // simulated cursor walks through the same charges the estimate
    // accumulates, and each slot is one aggregated kernel event
    // (invocations = slot count), so huge regions stay inspectable without
    // emitting thousands of identical events. The recorder additionally
    // gets every descriptor (the perf-lint rules need nothing more) at the
    // spot where its cost is charged.
    const stream::observers obs = stream::current();
    const int timeline = obs ? stream::next_timeline() : -1;
    auto emit = [&](stream::event e) {
        e.timeline = timeline;
        e.simulated = true;
        obs.emit(e);
    };
    double cursor = 0.0;
    emit({.what = kind::open, .label = region.name, .device = &dev});

    // The analytic path has no real queue/buffers/pipes, so the fault plan's
    // checkpoints live here instead: the same op kinds fire at the
    // equivalent spots of the simulated schedule (device at region entry,
    // alloc per region, launch per kernel slot, pipe stalls against dataflow
    // kernel names, transfer at the PCIe charge), and a firing checkpoint
    // throws out of the simulation just as the functional runtime would.
    // The failure is reported as an error event and the region is closed
    // before rethrowing, so a faulted config still leaves a well-formed
    // trace.
    try {
        resilience::checkpoint();
        fault::maybe_inject(fault::op_kind::device, dev.name);
        fault::maybe_inject(fault::op_kind::alloc, region.name,
                            "region working set");

        if (region.include_setup) {
            const double setup = perf::setup_overhead_ns(rt, dev);
            t.non_kernel_ns += setup;
            emit({.what = kind::setup, .t0 = cursor, .t1 = cursor + setup});
            cursor += setup;
        }

        for (const auto& slot : region.kernels) {
            resilience::checkpoint();
            fault::maybe_inject(fault::op_kind::launch, slot.stats.name);
            emit({.what = kind::simulated_kernel, .device = &dev,
                  .stats = &slot.stats});
            const double per = one_kernel_ns(slot.stats);
            t.kernel_ns += per * slot.count;
            t.non_kernel_ns += launch * slot.count;
            const double start = cursor + launch * slot.count;
            emit({.what = kind::kernel, .t0 = cursor, .t1 = start,
                  .start_ns = start, .end_ns = start + per * slot.count,
                  .stats = &slot.stats, .invocations = slot.count});
            cursor = start + per * slot.count;
        }
        for (const auto& group : region.dataflow) {
            // An injected pipe stall wedges the whole group: report it the
            // way the functional watchdog would, as a dataflow_error naming
            // the blocked kernels.
            std::vector<std::string> stalled;
            for (const auto& k : group.kernels) {
                fault::maybe_inject(fault::op_kind::launch, k.name);
                if (fault::should_stall_pipe(k.name)) stalled.push_back(k.name);
            }
            if (!stalled.empty()) {
                std::string msg =
                    "dataflow deadlock: kernel(s) blocked on pipes "
                    "[injected stall]:";
                for (const auto& k : stalled) msg += " " + k;
                throw syclite::dataflow_error(msg, std::move(stalled));
            }
            double worst = 0.0;
            std::vector<double> lanes;
            for (const auto& k : group.kernels) {
                emit({.what = kind::simulated_kernel, .device = &dev,
                      .stats = &k});
                const double d = one_kernel_ns(k);
                lanes.push_back(d * group.count);
                worst = std::max(worst, d);
            }
            t.kernel_ns += worst * group.count;
            const double group_launch = launch * group.count *
                                        static_cast<double>(group.kernels.size());
            t.non_kernel_ns += group_launch;
            const double start = cursor + group_launch;
            emit({.what = kind::group_end, .t0 = cursor, .t1 = start,
                  .start_ns = start, .end_ns = start + worst * group.count,
                  .invocations = group.count, .members = &group.kernels,
                  .durations = &lanes});
            cursor = start + worst * group.count;
        }

        if (region.transfer_calls > 0.0) {
            fault::maybe_inject(
                fault::op_kind::transfer, region.name,
                std::to_string(static_cast<long long>(region.transfer_bytes)) +
                    " bytes");
            // Amortize the payload across the calls; transfer_ns adds the
            // fixed per-call cost itself.
            const double per_call = region.transfer_bytes / region.transfer_calls;
            const double total =
                perf::transfer_ns(rt, dev, per_call) * region.transfer_calls;
            t.non_kernel_ns += total;
            emit({.what = kind::transfer, .t0 = cursor, .t1 = cursor + total,
                  .label = "transfers", .invocations = region.transfer_calls,
                  .bytes = region.transfer_bytes});
            cursor += total;
        }
        {
            const double sync = perf::sync_overhead_ns(rt, dev) * region.syncs;
            t.non_kernel_ns += sync;
            emit({.what = kind::wait, .t0 = cursor, .t1 = cursor + sync,
                  .label = "sync"});
            cursor += sync;
        }
        if (region.extra_non_kernel_ns > 0.0) {
            t.non_kernel_ns += region.extra_non_kernel_ns;
            emit({.what = kind::overhead, .t0 = cursor,
                  .t1 = cursor + region.extra_non_kernel_ns,
                  .label = "library overhead"});
            cursor += region.extra_non_kernel_ns;
        }
    } catch (const std::exception& e) {
        emit({.what = kind::error, .t0 = cursor, .label = e.what()});
        emit({.what = kind::close, .t0 = cursor});
        throw;
    }

    // An unsynchronized timed region only observes submission cost: the
    // kernels are still in flight when the timer stops (FDTD2D's original
    // CUDA mismeasurement, Sec. 3.3). The kernel spans stay on the trace --
    // the work happens even if the host timer misses it.
    if (!region.synchronized) t.kernel_ns = 0.0;

    emit({.what = kind::close, .t0 = cursor});
    return t;
}

}  // namespace altis::apps
