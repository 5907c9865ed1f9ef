// Registry of suite applications. Benchmark harnesses iterate the registry to
// run every Level-2 app across devices, sizes and implementation variants.
#pragma once

#include <functional>
#include <string>
#include <vector>

namespace altis {

class ResultDatabase;

/// Which implementation of an application to run; mirrors the paper's
/// progression: original CUDA -> DPCT-migrated SYCL -> GPU-optimized SYCL ->
/// FPGA-refactored baseline -> FPGA-optimized.
enum class Variant {
    cuda,        ///< original Altis (golden reference, CUDA runtime model)
    sycl_base,   ///< functionally-correct DPCT migration output (Sec. 3.2)
    sycl_opt,    ///< GPU-optimized SYCL (Sec. 3.3)
    fpga_base,   ///< refactored to synthesize on FPGA (Sec. 4)
    fpga_opt,    ///< FPGA-optimized (Sec. 5)
};

[[nodiscard]] const char* to_string(Variant v);

/// Run parameters shared by every application entry point.
struct RunConfig {
    int size = 1;                      ///< Altis size preset 1..3
    std::string device = "xeon_6128";  ///< device name in perf::device_catalog
    Variant variant = Variant::sycl_opt;
    int passes = 1;
};

/// One registered application. `run` executes the configured variant, checks
/// its output against the golden reference (throws on mismatch) and reports
/// metrics (at minimum "kernel_time" and "total_time" in ms) into the db.
struct AppInfo {
    std::string name;  ///< e.g. "kmeans"
    std::string description;
    std::vector<Variant> variants;  ///< variants this app implements
    std::function<void(const RunConfig&, ResultDatabase&)> run;
};

/// Global application registry (populated by register_all_apps()).
class Registry {
public:
    static Registry& instance();

    void add(AppInfo info);
    [[nodiscard]] const AppInfo* find(const std::string& name) const;
    [[nodiscard]] const std::vector<AppInfo>& apps() const { return apps_; }

private:
    std::vector<AppInfo> apps_;
};

}  // namespace altis
