#include "apps/lavamd/lavamd.hpp"

#include <cmath>

#include "apps/common/verify.hpp"
#include "rng/philox.hpp"
#include "sycl/syclite.hpp"
#include "sycl/thread_pool.hpp"

namespace altis::apps::lavamd {

params params::preset(int size) {
    params p;
    switch (size) {
        case 1: p.boxes1d = 6; break;
        case 2: p.boxes1d = 8; break;
        case 3: p.boxes1d = 12; break;
        default: throw std::invalid_argument("lavamd: size must be 1..3");
    }
    return p;
}

std::vector<particle> make_particles(const params& p) {
    std::vector<particle> out(p.particles());
    rng::philox4x32 gen(p.seed);
    for (auto& pt : out) {
        pt.x = gen.next_float();
        pt.y = gen.next_float();
        pt.z = gen.next_float();
        pt.q = gen.next_float();
    }
    return out;
}

namespace {

/// Force of neighbour particle b on home particle a (Rodinia lavaMD kernel
/// formula); shared verbatim by golden and the device kernel.
force pair_force(const particle& a, const particle& b) {
    constexpr float a2 = 2.0f * kAlpha * kAlpha;
    const float dx = a.x - b.x;
    const float dy = a.y - b.y;
    const float dz = a.z - b.z;
    const float r2 = dx * dx + dy * dy + dz * dz;
    const float u2 = a2 * r2;
    const float vij = std::exp(-u2);
    const float fs = 2.0f * vij;
    return {fs * dx * b.q, fs * dy * b.q, fs * dz * b.q, vij * b.q};
}

/// Neighbour boxes of box (bx,by,bz) including itself, in z,y,x-major order
/// (the iteration order both golden and kernels use).
template <typename F>
void for_each_neighbor(const params& p, std::size_t bx, std::size_t by,
                       std::size_t bz, F&& fn) {
    const auto n1 = static_cast<long>(p.boxes1d);
    for (long dz = -1; dz <= 1; ++dz)
        for (long dy = -1; dy <= 1; ++dy)
            for (long dx = -1; dx <= 1; ++dx) {
                const long nx = static_cast<long>(bx) + dx;
                const long ny = static_cast<long>(by) + dy;
                const long nz = static_cast<long>(bz) + dz;
                if (nx < 0 || ny < 0 || nz < 0 || nx >= n1 || ny >= n1 ||
                    nz >= n1)
                    continue;
                fn((static_cast<std::size_t>(nz) * p.boxes1d +
                    static_cast<std::size_t>(ny)) *
                       p.boxes1d +
                   static_cast<std::size_t>(nx));
            }
}

}  // namespace

std::vector<force> golden(const params& p, std::span<const particle> particles) {
    std::vector<force> out(p.particles(), force{0, 0, 0, 0});
    // A home box writes only its own particles and walks its neighbours in
    // the fixed order, so home boxes run on the pool with the bits of a
    // serial sweep.
    const std::size_t n1 = p.boxes1d;
    sl::thread_pool::global().parallel_for(n1 * n1 * n1, [&](std::size_t home) {
        const std::size_t bx = home % n1, by = home / n1 % n1,
                          bz = home / (n1 * n1);
        for_each_neighbor(p, bx, by, bz, [&](std::size_t nb) {
            for (std::size_t i = 0; i < kParPerBox; ++i) {
                const std::size_t ai = home * kParPerBox + i;
                force acc = out[ai];
                for (std::size_t j = 0; j < kParPerBox; ++j) {
                    const force f = pair_force(particles[ai],
                                               particles[nb * kParPerBox + j]);
                    acc.fx += f.fx;
                    acc.fy += f.fy;
                    acc.fz += f.fz;
                    acc.energy += f.energy;
                }
                out[ai] = acc;
            }
        });
    });
    return out;
}

double force_error(std::span<const force> expected,
                   std::span<const force> got) {
    double worst = 0.0;
    for (std::size_t i = 0; i < got.size(); ++i) {
        worst = worst_error(
            worst, static_cast<double>(std::abs(got[i].fx - expected[i].fx)));
        worst = worst_error(worst, static_cast<double>(std::abs(
                                       got[i].energy - expected[i].energy)));
    }
    return worst;
}

namespace detail {

perf::kernel_stats stats_boxes(const params& p, Variant v,
                               const perf::device_spec& dev);

}  // namespace detail

AppResult run(const RunConfig& cfg) {
    const perf::device_spec& dev = resolve_device(cfg);
    const params p = params::preset(cfg.size);
    const std::vector<particle> particles = make_particles(p);
    const auto oracle = reference_once([&] { return golden(p, particles); });
    const std::vector<force>& expected = *oracle;

    sl::queue q(dev, runtime_for(cfg.variant));
    if (dev.is_fpga()) q.set_design(region(cfg.variant, dev, cfg.size).all_kernels());
    // One-time context/JIT setup is excluded from the timed region (warmed up).

    sl::buffer<particle> parts(p.particles());
    q.copy_to_device(parts, particles.data());
    sl::buffer<force> forces(p.particles());

    // One work-group per home box; home and neighbour particles staged in
    // work-group local arrays (the shared-memory loop the paper unrolls).
    q.submit([&](sl::handler& h) {
        auto in = h.get_access(parts, sl::access_mode::read);
        auto out = h.get_access(forces, sl::access_mode::discard_write);
        const params cp = p;
        h.parallel_for_work_group(
            sl::range<1>(p.boxes()), sl::range<1>(kParPerBox),
            detail::stats_boxes(p, cfg.variant, dev), [=](sl::group<1> g) {
                const std::size_t home = g.get_group_id(0);
                const std::size_t bx = home % cp.boxes1d;
                const std::size_t by = (home / cp.boxes1d) % cp.boxes1d;
                const std::size_t bz = home / (cp.boxes1d * cp.boxes1d);

                particle rA[kParPerBox];
                force acc[kParPerBox];
                g.parallel_for_work_item([&](sl::h_item<1> it) {
                    const std::size_t tx = it.get_local_id(0);
                    rA[tx] = in[home * kParPerBox + tx];
                    acc[tx] = force{0, 0, 0, 0};
                });
                for_each_neighbor(cp, bx, by, bz, [&](std::size_t nb) {
                    particle rB[kParPerBox];
                    g.parallel_for_work_item([&](sl::h_item<1> it) {
                        const std::size_t tx = it.get_local_id(0);
                        rB[tx] = in[nb * kParPerBox + tx];
                    });
                    // implicit barrier
                    g.parallel_for_work_item([&](sl::h_item<1> it) {
                        const std::size_t tx = it.get_local_id(0);
                        force a = acc[tx];
                        for (std::size_t j = 0; j < kParPerBox; ++j) {
                            const force f = pair_force(rA[tx], rB[j]);
                            a.fx += f.fx;
                            a.fy += f.fy;
                            a.fz += f.fz;
                            a.energy += f.energy;
                        }
                        acc[tx] = a;
                    });
                });
                g.parallel_for_work_item([&](sl::h_item<1> it) {
                    const std::size_t tx = it.get_local_id(0);
                    out[home * kParPerBox + tx] = acc[tx];
                });
            });
    });
    q.wait();

    std::vector<force> got(p.particles());
    q.copy_from_device(forces, got.data());
    const double worst = force_error(expected, got);
    require_close(worst, 1e-4, "lavamd");

    AppResult r;
    r.kernel_ms = q.kernel_ns() / 1e6;
    r.non_kernel_ms = q.non_kernel_ns() / 1e6;
    r.total_ms = q.sim_now_ns() / 1e6;
    r.error = worst;
    return r;
}

void register_app() {
    register_standard_app(
        "lavamd", "Cutoff N-body in a 3D box grid (shared-memory unrolling)",
        {Variant::cuda, Variant::sycl_base, Variant::sycl_opt,
         Variant::fpga_base, Variant::fpga_opt},
        &run);
}

}  // namespace altis::apps::lavamd
