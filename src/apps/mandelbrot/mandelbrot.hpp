// Mandelbrot: escape-iteration fractal over a fixed complex-plane window.
// Paper roles: the Single-Task rewrite's speculated-iterations story
// (Sec. 5.3 -- two nested 8192-iteration loops, default 4 speculated
// iterations waste up to 8192*8192*4 cycles), per-input-size FPGA bitstreams
// (Table 3), and a 476x FPGA optimized-vs-baseline speedup (Fig. 4).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "apps/common/app.hpp"
#include "apps/common/region.hpp"
#include "core/registry.hpp"
#include "core/result_database.hpp"

namespace altis::apps::mandelbrot {

struct params {
    int width = 512;
    int height = 512;
    int max_iters = 1024;
    // Complex-plane window (same region at every size: mean escape count is
    // then resolution-independent, which the model probe exploits).
    float x0 = -2.5f, y0 = -2.0f, x1 = 1.5f, y1 = 2.0f;

    [[nodiscard]] static params preset(int size);
    [[nodiscard]] std::size_t pixels() const {
        return static_cast<std::size_t>(width) * static_cast<std::size_t>(height);
    }
};

/// Host reference: iteration count per pixel, row-major. Rows run on the
/// global thread pool; the result is bit-identical to a serial sweep.
void golden(const params& p, std::span<std::uint16_t> iters);

/// Mean escape iterations per pixel, estimated on a 128x128 probe of the
/// same window (deterministic; feeds the dynamic trip counts of the model).
[[nodiscard]] double mean_iterations(const params& p);

/// Functional run of the configured variant on syclite; verifies against
/// golden() exactly and reports simulated timings.
AppResult run(const RunConfig& cfg);

/// Device-independent description of the timed region for simulation.
[[nodiscard]] timed_region region(Variant v, const perf::device_spec& dev,
                                  int size);

/// Kernels synthesized into the fpga_opt bitstream for this size
/// (per-size bitstreams, Table 3).
[[nodiscard]] std::vector<perf::kernel_stats> fpga_design(
    const perf::device_spec& dev, int size);

inline constexpr const char* kFpgaImplLabel = "Single-Task";

void register_app();

}  // namespace altis::apps::mandelbrot
