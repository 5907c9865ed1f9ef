// LavaMD: N-body particle interactions within a cutoff radius, organized as
// a 3D grid of boxes; every box interacts with its (up to) 27 neighbours
// (Altis Level-2, from Rodinia). Paper roles: the banking success story of
// Sec. 5.2 case 1 -- the bottleneck loop over neighbour particles in shared
// memory unrolls 30x on Stratix 10 with near-linear speedup (beyond that:
// timing violations), retuned to 16x on Agilex (Sec. 5.5).
#pragma once

#include <span>
#include <vector>

#include "apps/common/app.hpp"
#include "apps/common/region.hpp"

namespace altis::apps::lavamd {

inline constexpr std::size_t kParPerBox = 64;
inline constexpr float kAlpha = 0.5f;  ///< a2 = 2*alpha^2 in the potential

struct params {
    std::size_t boxes1d = 4;
    std::uint64_t seed = 0x1a7aULL;

    [[nodiscard]] static params preset(int size);
    [[nodiscard]] std::size_t boxes() const { return boxes1d * boxes1d * boxes1d; }
    [[nodiscard]] std::size_t particles() const { return boxes() * kParPerBox; }
};

struct particle {
    float x, y, z, q;
};

struct force {
    float fx, fy, fz, energy;
    friend bool operator==(const force&, const force&) = default;
};

[[nodiscard]] std::vector<particle> make_particles(const params& p);

/// Host reference: forces on every particle (box-major order).
[[nodiscard]] std::vector<force> golden(const params& p,
                                        std::span<const particle> particles);

/// Verification error of a device result: the worst absolute difference in
/// fx and energy. Any NaN makes it NaN.
[[nodiscard]] double force_error(std::span<const force> expected,
                                 std::span<const force> got);

AppResult run(const RunConfig& cfg);

[[nodiscard]] timed_region region(Variant v, const perf::device_spec& dev,
                                  int size);
[[nodiscard]] std::vector<perf::kernel_stats> fpga_design(
    const perf::device_spec& dev, int size);

inline constexpr const char* kFpgaImplLabel = "ND-Range";

void register_app();

}  // namespace altis::apps::lavamd
