// CFD: 3D Euler equations solver for compressible flow on an unstructured
// mesh (Altis Level-2, from Rodinia's euler3d). Rusanov-flux finite-volume
// update with RK3 time integration; provided in FP32 and FP64, which the
// paper evaluates separately ("CFD FP32" / "CFD FP64"). Paper roles: the
// loop-unrolling regression in SYCL (up to 3x slower, so unrolling is
// removed -- Sec. 3.3), pipes + compute-unit replication on FPGAs (4x/8x
// FP32, 2x FP64 -- Sec. 5.1/5.5), SIMD scaling capped at 2 by memory
// bandwidth (Sec. 5.2), and the FP64 penalty column of Fig. 5 (1:32 on the
// RTX 2080 vs 1:2 on A100 and 1:1 on Max 1100).
#pragma once

#include <vector>

#include "apps/common/app.hpp"
#include "apps/common/region.hpp"

namespace syclite {
class queue;
template <typename T>
class buffer;
}  // namespace syclite

namespace altis::apps::cfd {

inline constexpr int kNeighbors = 4;
inline constexpr int kVars = 5;  ///< density, momentum x/y/z, energy
inline constexpr int kRkSteps = 3;

struct params {
    std::size_t nx = 64, ny = 64;  ///< synthetic mesh dimensions
    int iterations = 30;

    [[nodiscard]] static params preset(int size);
    [[nodiscard]] std::size_t nel() const { return nx * ny; }
};

/// Synthetic unstructured mesh: grid topology stored as explicit neighbour
/// lists with outward normals; -1 marks far-field boundary faces.
struct mesh {
    std::vector<int> neighbors;     ///< nel x 4
    std::vector<float> normals_x;   ///< nel x 4
    std::vector<float> normals_y;   ///< nel x 4
};

[[nodiscard]] mesh make_mesh(const params& p);

/// Initial free-stream state, 5 variables per element (SoA by variable).
template <typename Real>
[[nodiscard]] std::vector<Real> initial_variables(const params& p);

/// Host reference: `iterations` RK3 steps; updates variables in place. It
/// runs 4 FP32 or 2 FP64 elements per SSE2 register, in blocks of elements on
/// the global thread pool; the result is bit-identical to a serial sweep of
/// the kernels' per-element formula.
template <typename Real>
void golden(const params& p, const mesh& m, std::vector<Real>& variables);

/// Submits p.iterations RK3 iterations of the device kernels to q and waits:
/// per iteration, copy of the old variables and step factors, then flux and
/// time step per RK stage, with `variant`'s descriptors on q's device.
/// `vars` (SoA by variable) is advanced in place; each work-group runs its
/// elements through golden's lane loop, so the result is golden's bit for bit.
template <typename Real>
void run_iterations(syclite::queue& q, const params& p, const mesh& m,
                    Variant variant, syclite::buffer<Real>& vars);

AppResult run_fp32(const RunConfig& cfg);
AppResult run_fp64(const RunConfig& cfg);

[[nodiscard]] timed_region region(bool fp64, Variant v,
                                  const perf::device_spec& dev, int size);
[[nodiscard]] std::vector<perf::kernel_stats> fpga_design(
    bool fp64, const perf::device_spec& dev, int size);

inline constexpr const char* kFpgaImplLabelFp32 = "ND-Range & Single-Task";
inline constexpr const char* kFpgaImplLabelFp64 = "ND-Range";

void register_apps();  // registers "cfd" and "cfd_fp64"

}  // namespace altis::apps::cfd
