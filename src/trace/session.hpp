// Trace session: the command-stream subscriber (core/command_stream.hpp)
// that turns runtime events into spans on the simulated timeline. A session
// is passive storage plus a little bookkeeping (region stack, device binding
// for peak-based classification, each timeline's offset); exporters
// (chrome_export.hpp, profile.hpp) turn a finished session into artifacts.
//
// Wiring: a session becomes the process-wide "current" session via
// session::scope (RAII) or set_current(); syclite::queue snapshots the
// subscriber set at construction, so applications need no code changes to
// become traceable -- `altis_run --trace out.json` just works.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "core/command_stream.hpp"
#include "perf/device.hpp"
#include "perf/kernel_stats.hpp"
#include "trace/span.hpp"

namespace altis::trace {

class session : public stream::subscriber {
public:
    explicit session(std::string name = "altis");

    /// Remember the device the timeline was simulated for; the profiler uses
    /// its Table-2 peaks to classify kernels compute- vs bandwidth-bound.
    /// The pointer must outlive the session (device_catalog entries do).
    void bind_device(const perf::device_spec& dev) { dev_ = &dev; }
    [[nodiscard]] const perf::device_spec* device() const { return dev_; }

    void record(span s);
    /// Kernel span with counters derived from the model descriptor.
    /// `invocations > 1` marks an aggregated slot (duration covers them all).
    /// Graph commands pass their command id and resolved dependency ids so
    /// exporters can draw flow arrows (cmd 0 = not a graph command).
    void record_kernel(const perf::kernel_stats& k, double start_ns,
                       double end_ns, int track = 0,
                       double invocations = 1.0, std::uint64_t cmd = 0,
                       const std::vector<std::uint64_t>* deps = nullptr);

    /// Top-level region bracketing. Regions may nest; each end_region pops
    /// the innermost open region and records its span.
    void begin_region(std::string name, double start_ns);
    void end_region(double end_ns);
    [[nodiscard]] int open_regions() const {
        return static_cast<int>(region_stack_.size());
    }

    [[nodiscard]] const std::string& name() const { return name_; }
    [[nodiscard]] const std::vector<span>& spans() const { return spans_; }
    [[nodiscard]] bool empty() const { return spans_.empty(); }

    /// Total kernel time as the queue counts it: sequential kernel spans
    /// (track 0) plus dataflow-group walls. Kernels inside a group overlap,
    /// so their individual spans are excluded here.
    [[nodiscard]] double kernel_ns() const;
    /// Everything charged to the non-kernel side of the decomposition.
    [[nodiscard]] double non_kernel_ns() const;
    /// Latest end timestamp across recorded spans (0 when empty); appended
    /// timelines (e.g. successive region simulations) start here.
    [[nodiscard]] double last_end_ns() const;

    /// One command event -> spans. Every timeline (queue or simulated
    /// region) is shifted to start after whatever the session held when the
    /// timeline opened, so one session can hold many queues' runs.
    void on_event(const stream::event& e) override;

    // ---- process-wide current session ----
    [[nodiscard]] static session* current();
    static void set_current(session* s);

    /// RAII activation: installs the session as current, restores the
    /// previous one on destruction.
    class scope {
    public:
        explicit scope(session& s) : prev_(current()) { set_current(&s); }
        ~scope() { set_current(prev_); }
        scope(const scope&) = delete;
        scope& operator=(const scope&) = delete;

    private:
        session* prev_;
    };

private:
    struct open_region {
        std::string name;
        double start_ns;
    };

    std::string name_;
    const perf::device_spec* dev_ = nullptr;
    std::vector<span> spans_;
    std::vector<open_region> region_stack_;
    /// Session-time offset of each open timeline.
    std::unordered_map<int, double> base_;
};

}  // namespace altis::trace
