// ParticleFilter: sequential importance resampling (SIR) estimator tracking
// a moving object through a synthetic video (Altis Level-2). Two Altis
// configurations are reproduced: PF Naive (O(N^2) linear-search resampling,
// all in global memory) and PF Float (the float-optimized version whose
// original CUDA used pow(a,2) -- DPCT's a*a substitution bought up to 6x,
// Sec. 3.3). On FPGAs both become branch-heavy Single-Task designs that only
// close timing at ~105 MHz (Table 3) and rely on heavy compute-unit
// replication, retuned 10x->4x and 50x->24x from Stratix 10 to Agilex
// (Sec. 5.5).
#pragma once

#include <vector>

#include "apps/common/app.hpp"
#include "apps/common/region.hpp"

namespace altis::apps::particlefilter {

enum class flavor { naive, floatopt };

struct params {
    std::size_t particles = 1024;
    int frames = 8;
    std::size_t grid = 128;  ///< video is grid x grid
    std::uint64_t seed = 0x9f17ULL;

    /// Presets differ per flavour, as in Altis: the naive configuration uses
    /// far fewer particles because its O(N^2) resampling would otherwise
    /// never finish; the float configuration scales the particle count up.
    [[nodiscard]] static params preset(int size, flavor f);
    [[nodiscard]] static params preset(int size) {
        return preset(size, flavor::naive);
    }
};

struct estimate {
    std::vector<float> xe, ye;  ///< per-frame position estimates
};

/// Verification error of a device estimate: the worst absolute per-frame
/// difference in xe and ye. Any NaN makes it NaN.
[[nodiscard]] double estimate_error(const estimate& expected,
                                    const estimate& got);

/// Synthetic video: a bright disk moving diagonally over speckle noise.
[[nodiscard]] std::vector<std::uint8_t> make_video(const params& p);

/// Host reference SIR filter (deterministic counter-based RNG).
[[nodiscard]] estimate golden(const params& p, flavor f,
                              std::span<const std::uint8_t> video);

AppResult run_flavor(const RunConfig& cfg, flavor f);
AppResult run_naive(const RunConfig& cfg);
AppResult run_float(const RunConfig& cfg);

[[nodiscard]] timed_region region(flavor f, Variant v,
                                  const perf::device_spec& dev, int size);

/// The original CUDA with DPCT's pow(a,2) -> a*a transformation applied
/// back (Sec. 3.3): the comparison point of Fig. 2's Optimized panel, where
/// both versions reach "a performance-comparable level".
[[nodiscard]] timed_region region_cuda_pow_fixed(flavor f,
                                                 const perf::device_spec& dev,
                                                 int size);
[[nodiscard]] std::vector<perf::kernel_stats> fpga_design(
    flavor f, const perf::device_spec& dev, int size);

inline constexpr const char* kFpgaImplLabel = "Single-Task";

void register_apps();  // registers "pf_naive" and "pf_float"

}  // namespace altis::apps::particlefilter
