// Raytracing: path-traced sphere scene (Altis Level-2). Paper roles: the
// biggest migration refactor -- CUDA's virtual functions for objects and
// materials are unsupported in SYCL, so materials become the flat float8
// class of Listing 1 (reproduced verbatim here) -- plus the RNG swap from
// cuRAND XORWOW to oneMKL philox4x32x10 (Sec. 3.3), which together make the
// SYCL version ~12-22x faster on the RTX 2080 but "not directly comparable".
// On FPGAs: ND-Range with a 30x (Stratix 10) / 16x (Agilex) unrolled
// sphere-intersection loop (Table 3, Sec. 5.5).
#pragma once

#include <array>
#include <span>
#include <vector>

#include "apps/common/app.hpp"
#include "apps/common/region.hpp"

namespace altis::apps::raytracing {

struct vec3 {
    float x = 0, y = 0, z = 0;
};

/// Listing 1 (optimized): all material parameters fused into one 8-float
/// vector so the FPGA compiler infers a stall-free memory system.
///   data[0]: "fuzz"       (metal)
///   data[1]: "ref_idx"    (dielectric)
///   data[2:4]: "albedo"   (lambertian and metal)
///   data[5]: material type: metal (0), dielectric (1), lambertian (2)
///   data[6:7]: unused
struct material {
    std::array<float, 8> data{};

    enum type : int { metal = 0, dielectric = 1, lambertian = 2 };

    [[nodiscard]] static material make_metal(vec3 albedo, float fuzz);
    [[nodiscard]] static material make_dielectric(float ref_idx);
    [[nodiscard]] static material make_lambertian(vec3 albedo);

    [[nodiscard]] int kind() const { return static_cast<int>(data[5]); }
};

struct sphere {
    vec3 center;
    float radius = 1.0f;
    material mat;
};

enum class rng_kind {
    xorwow,  ///< cuRAND default -- the original CUDA path
    philox,  ///< oneMKL philox4x32x10 -- what DPCT migrates to
};

struct params {
    std::size_t width = 256, height = 256;
    int samples = 4;
    int max_depth = 8;
    std::uint64_t seed = 0x7ace5ULL;

    [[nodiscard]] static params preset(int size);
    [[nodiscard]] std::size_t pixels() const { return width * height; }
};

/// The fixed demo scene (ground + grid of small spheres + three hero
/// spheres), ~23 spheres, all three material types.
[[nodiscard]] std::vector<sphere> make_scene();

/// Host reference render with the given generator.
[[nodiscard]] std::vector<vec3> golden(const params& p, rng_kind kind);

/// Dynamic workload statistics measured on a low-resolution probe
/// (resolution-stable): rays per pixel-sample and sphere tests per ray.
struct trace_profile {
    double mean_bounces = 0.0;
    double tests_per_ray = 0.0;
};
[[nodiscard]] trace_profile probe_profile(const params& p);

/// Verification error of a rendered image: the worst absolute per-channel
/// difference. Any NaN makes it NaN.
[[nodiscard]] double image_error(std::span<const vec3> expected,
                                 std::span<const vec3> got);

AppResult run(const RunConfig& cfg);

[[nodiscard]] timed_region region(Variant v, const perf::device_spec& dev,
                                  int size);
[[nodiscard]] std::vector<perf::kernel_stats> fpga_design(
    const perf::device_spec& dev, int size);

inline constexpr const char* kFpgaImplLabel = "ND-Range";

void register_app();

}  // namespace altis::apps::raytracing
