#include "apps/cfd/cfd.hpp"

#include <cmath>

#include "apps/common/verify.hpp"
#include "sycl/syclite.hpp"
#include "sycl/thread_pool.hpp"

namespace altis::apps::cfd {

params params::preset(int size) {
    switch (size) {
        case 1: return {192, 192, 60};
        case 2: return {384, 384, 300};
        case 3: return {512, 512, 1500};
        default: throw std::invalid_argument("cfd: size must be 1..3");
    }
}

mesh make_mesh(const params& p) {
    mesh m;
    const std::size_t nel = p.nel();
    m.neighbors.resize(nel * kNeighbors);
    m.normals_x.resize(nel * kNeighbors);
    m.normals_y.resize(nel * kNeighbors);
    for (std::size_t i = 0; i < p.ny; ++i)
        for (std::size_t j = 0; j < p.nx; ++j) {
            const std::size_t e = i * p.nx + j;
            const long west = j == 0 ? -1 : static_cast<long>(e - 1);
            const long east = j == p.nx - 1 ? -1 : static_cast<long>(e + 1);
            const long north = i == 0 ? -1 : static_cast<long>(e - p.nx);
            const long south =
                i == p.ny - 1 ? -1 : static_cast<long>(e + p.nx);
            const long nbs[kNeighbors] = {west, east, north, south};
            const float nxs[kNeighbors] = {-1.0f, 1.0f, 0.0f, 0.0f};
            const float nys[kNeighbors] = {0.0f, 0.0f, -1.0f, 1.0f};
            for (int f = 0; f < kNeighbors; ++f) {
                m.neighbors[e * kNeighbors + static_cast<std::size_t>(f)] =
                    static_cast<int>(nbs[f]);
                m.normals_x[e * kNeighbors + static_cast<std::size_t>(f)] = nxs[f];
                m.normals_y[e * kNeighbors + static_cast<std::size_t>(f)] = nys[f];
            }
        }
    return m;
}

namespace {

constexpr double kGamma = 1.4;
constexpr double kCfl = 0.4;

template <typename Real>
struct state {
    Real rho, mx, my, mz, e;
};

template <typename Real>
state<Real> load(const std::vector<Real>& v, std::size_t nel, std::size_t e) {
    return {v[e], v[nel + e], v[2 * nel + e], v[3 * nel + e], v[4 * nel + e]};
}

template <typename Real>
state<Real> load(const Real* v, std::size_t nel, std::size_t e) {
    return {v[e], v[nel + e], v[2 * nel + e], v[3 * nel + e], v[4 * nel + e]};
}

template <typename Real>
Real pressure(const state<Real>& s) {
    const Real ke = (s.mx * s.mx + s.my * s.my + s.mz * s.mz) /
                    (Real(2) * s.rho);
    return (Real(kGamma) - Real(1)) * (s.e - ke);
}

template <typename Real>
Real sound_speed(const state<Real>& s) {
    using std::sqrt;
    return sqrt(Real(kGamma) * pressure(s) / s.rho);
}

/// Free-stream state used for initialization and far-field boundaries.
template <typename Real>
state<Real> free_stream() {
    state<Real> s;
    s.rho = Real(1.4);
    s.mx = Real(1.4) * Real(0.8);  // Mach-0.8 flow in +x
    s.my = Real(0);
    s.mz = Real(0);
    s.e = Real(1.0) / (Real(kGamma) - Real(1)) +
          Real(0.5) * s.mx * s.mx / s.rho;
    return s;
}

/// Rusanov flux through one face; ~60 FP ops including two sqrt.
template <typename Real>
void face_flux(const state<Real>& a, const state<Real>& b, Real nx, Real ny,
               Real flux[kVars]) {
    using std::abs;
    using std::max;
    const Real pa = pressure(a), pb = pressure(b);
    const Real vna = (a.mx * nx + a.my * ny) / a.rho;
    const Real vnb = (b.mx * nx + b.my * ny) / b.rho;
    const Real smax =
        max(abs(vna) + sound_speed(a), abs(vnb) + sound_speed(b));
    const Real fa[kVars] = {a.rho * vna, a.mx * vna + pa * nx,
                            a.my * vna + pa * ny, a.mz * vna,
                            (a.e + pa) * vna};
    const Real fb[kVars] = {b.rho * vnb, b.mx * vnb + pb * nx,
                            b.my * vnb + pb * ny, b.mz * vnb,
                            (b.e + pb) * vnb};
    const Real ua[kVars] = {a.rho, a.mx, a.my, a.mz, a.e};
    const Real ub[kVars] = {b.rho, b.mx, b.my, b.mz, b.e};
    for (int k = 0; k < kVars; ++k)
        flux[k] = Real(0.5) * (fa[k] + fb[k]) - Real(0.5) * smax * (ub[k] - ua[k]);
}

/// Per-element step factor (CFL / spectral radius).
template <typename Real>
Real step_factor(const state<Real>& s) {
    using std::abs;
    const Real vmag = abs(s.mx / s.rho) + abs(s.my / s.rho);
    return Real(kCfl) / (vmag + sound_speed(s));
}

/// Accumulated flux divergence for one element.
template <typename Real>
void element_flux(const mesh& m, const Real* vars, std::size_t nel,
                  std::size_t e, Real out[kVars]) {
    const state<Real> se = load(vars, nel, e);
    for (int k = 0; k < kVars; ++k) out[k] = Real(0);
    for (int f = 0; f < kNeighbors; ++f) {
        const int nb = m.neighbors[e * kNeighbors + static_cast<std::size_t>(f)];
        const Real nx =
            Real(m.normals_x[e * kNeighbors + static_cast<std::size_t>(f)]);
        const Real ny =
            Real(m.normals_y[e * kNeighbors + static_cast<std::size_t>(f)]);
        const state<Real> sn =
            nb >= 0 ? load(vars, nel, static_cast<std::size_t>(nb))
                    : free_stream<Real>();
        Real flux[kVars];
        face_flux(se, sn, nx, ny, flux);
        for (int k = 0; k < kVars; ++k) out[k] -= flux[k];
    }
}

}  // namespace

template <typename Real>
std::vector<Real> initial_variables(const params& p) {
    const std::size_t nel = p.nel();
    std::vector<Real> v(nel * kVars);
    const state<Real> fs = free_stream<Real>();
    for (std::size_t e = 0; e < nel; ++e) {
        // Small deterministic perturbation so the flow actually evolves.
        const Real bump = Real(1) + Real(0.01) * Real((e * 2654435761u % 97)) /
                                        Real(97);
        v[e] = fs.rho * bump;
        v[nel + e] = fs.mx;
        v[2 * nel + e] = fs.my;
        v[3 * nel + e] = fs.mz;
        v[4 * nel + e] = fs.e * bump;
    }
    return v;
}

template <typename Real>
void golden(const params& p, const mesh& m, std::vector<Real>& variables) {
    // Each loop below is a pure per-element map (element e writes only its
    // own outputs and reads the previous loop's), so running it on the pool
    // leaves every element's arithmetic, and the output bits, unchanged.
    sl::thread_pool& pool = sl::thread_pool::global();
    const std::size_t nel = p.nel();
    std::vector<Real> old_vars(nel * kVars), fluxes(nel * kVars),
        sf(nel);
    for (int iter = 0; iter < p.iterations; ++iter) {
        old_vars = variables;
        pool.parallel_for(nel, [&](std::size_t e) {
            sf[e] = step_factor(load(variables, nel, e));
        });
        for (int rk = 0; rk < kRkSteps; ++rk) {
            pool.parallel_for(nel, [&](std::size_t e) {
                element_flux(m, variables.data(), nel, e,
                             &fluxes[0] + e * kVars);
            });
            const Real factor = Real(1) / Real(kRkSteps - rk);
            pool.parallel_for(nel, [&](std::size_t e) {
                for (int k = 0; k < kVars; ++k)
                    variables[static_cast<std::size_t>(k) * nel + e] =
                        old_vars[static_cast<std::size_t>(k) * nel + e] +
                        factor * sf[e] * fluxes[e * kVars + static_cast<std::size_t>(k)];
            });
        }
    }
}

template std::vector<float> initial_variables<float>(const params&);
template std::vector<double> initial_variables<double>(const params&);
template void golden<float>(const params&, const mesh&, std::vector<float>&);
template void golden<double>(const params&, const mesh&, std::vector<double>&);

namespace detail {

perf::kernel_stats stats_step_factor(const params& p, bool fp64, Variant v,
                                     const perf::device_spec& dev);
perf::kernel_stats stats_flux(const params& p, bool fp64, Variant v,
                              const perf::device_spec& dev);
perf::kernel_stats stats_time_step(const params& p, bool fp64, Variant v,
                                   const perf::device_spec& dev);
perf::kernel_stats stats_copy(const params& p, bool fp64);

}  // namespace detail

namespace {

template <typename Real>
AppResult run_impl(const RunConfig& cfg) {
    constexpr bool kFp64 = std::is_same_v<Real, double>;
    const perf::device_spec& dev = apps::resolve_device(cfg);
    const params p = params::preset(cfg.size);
    const mesh m = make_mesh(p);

    const auto oracle = reference_once([&] {
        std::vector<Real> v = initial_variables<Real>(p);
        golden(p, m, v);
        return v;
    });
    const std::vector<Real>& expected = *oracle;

    // ALTIS_OOO=1 opts into the out-of-order graph scheduler: the copy-old,
    // step-factor and (first) flux kernels of an iteration are mutually
    // independent and overlap; explicit depends_on edges carry the real
    // ordering. Default in-order execution is unchanged.
    sl::queue q(dev, runtime_for(cfg.variant), {},
                ooo_enabled() ? sl::queue_property::out_of_order
                              : sl::queue_property::in_order);
    if (dev.is_fpga())
        q.set_design(region(kFp64, cfg.variant, dev, cfg.size).all_kernels());
    // One-time context/JIT setup is excluded from the timed region (warmed up).

    const std::size_t nel = p.nel();
    const std::vector<Real> init = initial_variables<Real>(p);
    sl::buffer<Real> vars(nel * kVars), old_vars(nel * kVars),
        fluxes(nel * kVars), sf(nel);
    q.copy_to_device(vars, init.data());
    const std::size_t wg = dev.is_fpga() ? 128 : 192;
    // Pad to a work-group multiple; tail items are masked in the kernels.
    const std::size_t padded = (nel + wg - 1) / wg * wg;

    sl::event e_ts;  // last time-step (the writer of vars)
    for (int iter = 0; iter < p.iterations; ++iter) {
        sl::event e_copy = q.submit([&](sl::handler& h) {  // copy old variables
            h.depends_on(e_ts);
            auto src = h.get_access(vars, sl::access_mode::read);
            auto dst = h.get_access(old_vars, sl::access_mode::discard_write);
            h.parallel_for(
                sl::nd_range<1>(sl::range<1>(padded * kVars), sl::range<1>(wg)),
                detail::stats_copy(p, kFp64), [=](sl::nd_item<1> it) {
                    const std::size_t i = it.get_global_id(0);
                    if (i < nel * kVars) dst[i] = src[i];
                });
        });
        sl::event e_sf = q.submit([&](sl::handler& h) {  // step factor
            h.depends_on(e_ts);
            auto v = h.get_access(vars, sl::access_mode::read);
            auto s = h.get_access(sf, sl::access_mode::discard_write);
            h.parallel_for(
                sl::nd_range<1>(sl::range<1>(padded), sl::range<1>(wg)),
                detail::stats_step_factor(p, kFp64, cfg.variant, dev),
                [=](sl::nd_item<1> it) {
                    const std::size_t e = it.get_global_id(0);
                    if (e < nel)
                        s[e] = step_factor(
                            load(v.span(0, v.size()).data(), nel, e));
                });
        });
        for (int rk = 0; rk < kRkSteps; ++rk) {
            sl::event e_flux = q.submit([&](sl::handler& h) {  // compute flux
                h.depends_on(e_ts);
                auto v = h.get_access(vars, sl::access_mode::read);
                auto fl = h.get_access(fluxes, sl::access_mode::discard_write);
                const mesh* mp = &m;
                h.parallel_for(
                    sl::nd_range<1>(sl::range<1>(padded), sl::range<1>(wg)),
                    detail::stats_flux(p, kFp64, cfg.variant, dev),
                    [=](sl::nd_item<1> it) {
                        const std::size_t e = it.get_global_id(0);
                        // Neighbours are gathered from all of `v`; the
                        // element's own kVars outputs are one exact view.
                        if (e < nel)
                            element_flux(*mp, v.span(0, v.size()).data(), nel,
                                         e, fl.span(e * kVars, kVars).data());
                    });
            });
            e_ts = q.submit([&](sl::handler& h) {  // time step
                h.depends_on(e_copy);
                h.depends_on(e_sf);
                h.depends_on(e_flux);
                auto v = h.get_access(vars, sl::access_mode::read_write);
                auto ov = h.get_access(old_vars, sl::access_mode::read);
                auto fl = h.get_access(fluxes, sl::access_mode::read);
                auto s = h.get_access(sf, sl::access_mode::read);
                const Real factor = Real(1) / Real(kRkSteps - rk);
                h.parallel_for(
                    sl::nd_range<1>(sl::range<1>(padded), sl::range<1>(wg)),
                    detail::stats_time_step(p, kFp64, cfg.variant, dev),
                    [=](sl::nd_item<1> it) {
                        const std::size_t e = it.get_global_id(0);
                        if (e >= nel) return;
                        for (int k = 0; k < kVars; ++k)
                            v[static_cast<std::size_t>(k) * nel + e] =
                                ov[static_cast<std::size_t>(k) * nel + e] +
                                factor * s[e] *
                                    fl[e * kVars + static_cast<std::size_t>(k)];
                    });
            });
        }
    }
    q.wait();

    std::vector<Real> got(nel * kVars);
    q.copy_from_device(vars, got.data());
    const double err = max_rel_error<Real>(expected, got);
    require_close(err, kFp64 ? 1e-12 : 1e-4, "cfd variables");

    AppResult r;
    r.kernel_ms = q.kernel_ns() / 1e6;
    r.non_kernel_ms = q.non_kernel_ns() / 1e6;
    r.total_ms = q.sim_now_ns() / 1e6;
    r.error = err;
    return r;
}

}  // namespace

AppResult run_fp32(const RunConfig& cfg) { return run_impl<float>(cfg); }
AppResult run_fp64(const RunConfig& cfg) { return run_impl<double>(cfg); }

void register_apps() {
    register_standard_app(
        "cfd", "3D Euler solver for compressible flow, FP32",
        {Variant::cuda, Variant::sycl_base, Variant::sycl_opt,
         Variant::fpga_base, Variant::fpga_opt},
        &run_fp32);
    register_standard_app(
        "cfd_fp64", "3D Euler solver for compressible flow, FP64",
        {Variant::cuda, Variant::sycl_base, Variant::sycl_opt,
         Variant::fpga_base, Variant::fpga_opt},
        &run_fp64);
}

}  // namespace altis::apps::cfd
