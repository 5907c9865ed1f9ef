#include "apps/cfd/cfd.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <emmintrin.h>
#include <type_traits>
#include <utility>

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
/// Elements per index of the oracle's `parallel_for`; a whole number of lane
/// groups.
constexpr std::size_t kBlock = 1024;

// The flux formula below is written once, over a value type V: an SSE2
// register of 4 floats or 2 doubles (one element per lane), or a Real for the
// tail that is not a whole lane group. Kernels and oracle run it through one
// lane loop (for_lanes). Each lane runs the scalar operations in the scalar
// order, and IEEE division and square root round each lane exactly as they
// round a scalar, so every element keeps its bits. Nothing may contract to
// FMA: the build's x86-64 baseline has none.
using f32x4 = float __attribute__((vector_size(16)));
using f64x2 = double __attribute__((vector_size(16)));

template <typename V>
struct lane_traits {
    using real = V;
};
template <>
struct lane_traits<f32x4> {
    using real = float;
};
template <>
struct lane_traits<f64x2> {
    using real = double;
};
template <typename V>
using real_t = typename lane_traits<V>::real;
/// Elements per value: 1 for a Real.
template <typename V>
constexpr std::size_t kWidth = sizeof(V) / sizeof(real_t<V>);
/// The oracle's lane type for a Real.
template <typename Real>
using lanes = std::conditional_t<std::is_same_v<Real, float>, f32x4, f64x2>;

template <typename Real>
Real sqrt(Real x) {
    return std::sqrt(x);
}
inline f32x4 sqrt(f32x4 x) { return _mm_sqrt_ps(x); }
inline f64x2 sqrt(f64x2 x) { return _mm_sqrt_pd(x); }
template <typename Real>
Real abs(Real x) {
    return std::abs(x);
}
inline f32x4 abs(f32x4 x) { return _mm_andnot_ps(_mm_set1_ps(-0.0f), x); }
inline f64x2 abs(f64x2 x) { return _mm_andnot_pd(_mm_set1_pd(-0.0), x); }
/// std::max's comparison, lane by lane.
template <typename V>
V max(V a, V b) {
    return a < b ? b : a;
}

/// kWidth<V> consecutive Reals from p, unaligned.
template <typename V>
V load_lanes(const real_t<V>* p) {
    V v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

template <typename V>
void store_lanes(real_t<V>* p, V v) {
    std::memcpy(p, &v, sizeof v);
}

/// Stores the kVars values of elements e .. e + kWidth<V> - 1, one V per
/// variable, to p in the element-major layout of the flux kernel's output.
template <typename V>
void store_element_major(real_t<V>* p, const V v[kVars]) {
    real_t<V> by_var[kVars][kWidth<V>];
    std::memcpy(by_var, v, sizeof by_var);
    for (std::size_t i = 0; i < kWidth<V>; ++i)
        for (std::size_t k = 0; k < kVars; ++k) p[i * kVars + k] = by_var[k][i];
}

/// Calls f(lanes<Real>{}, e) for each lane group of elements [e, hi), then
/// f(Real{}, e) for each element of the tail that is not a whole group.
template <typename Real, typename F>
void for_lanes(std::size_t e, std::size_t hi, F&& f) {
    for (constexpr auto W = kWidth<lanes<Real>>; e + W <= hi; e += W)
        f(lanes<Real>{}, e);
    for (; e < hi; ++e) f(Real{}, e);
}

template <typename V>
struct state {
    V rho, mx, my, mz, e;
};

/// The state of elements e .. e + kWidth<V> - 1 (SoA by variable).
template <typename V>
state<V> load(const real_t<V>* v, std::size_t nel, std::size_t e) {
    return {load_lanes<V>(v + e), load_lanes<V>(v + nel + e),
            load_lanes<V>(v + 2 * nel + e), load_lanes<V>(v + 3 * nel + e),
            load_lanes<V>(v + 4 * nel + e)};
}

template <typename V>
V pressure(const state<V>& s) {
    using Real = real_t<V>;
    const V ke = (s.mx * s.mx + s.my * s.my + s.mz * s.mz) / (Real(2) * s.rho);
    return (Real(kGamma) - Real(1)) * (s.e - ke);
}

/// `p` is pressure(s).
template <typename V>
V sound_speed(const state<V>& s, V p) {
    return sqrt(real_t<V>(kGamma) * p / s.rho);
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

/// Rusanov flux through one face; ~60 FP ops including two sqrt. `pa` and
/// `ca` are a's pressure and sound speed, computed once per element.
template <typename V>
void face_flux(const state<V>& a, V pa, V ca, const state<V>& b, V nx, V ny,
               V flux[kVars]) {
    using Real = real_t<V>;
    const V pb = pressure(b);
    const V vna = (a.mx * nx + a.my * ny) / a.rho;
    const V vnb = (b.mx * nx + b.my * ny) / b.rho;
    const V smax = max(abs(vna) + ca, abs(vnb) + sound_speed(b, pb));
    const V fa[kVars] = {a.rho * vna, a.mx * vna + pa * nx,
                         a.my * vna + pa * ny, a.mz * vna, (a.e + pa) * vna};
    const V fb[kVars] = {b.rho * vnb, b.mx * vnb + pb * nx,
                         b.my * vnb + pb * ny, b.mz * vnb, (b.e + pb) * vnb};
    const V ua[kVars] = {a.rho, a.mx, a.my, a.mz, a.e};
    const V ub[kVars] = {b.rho, b.mx, b.my, b.mz, b.e};
    for (int k = 0; k < kVars; ++k)
        flux[k] = Real(0.5) * (fa[k] + fb[k]) - Real(0.5) * smax * (ub[k] - ua[k]);
}

/// Per-element step factor (CFL / spectral radius).
template <typename V>
V step_factor(const state<V>& s) {
    const V vmag = abs(s.mx / s.rho) + abs(s.my / s.rho);
    return real_t<V>(kCfl) / (vmag + sound_speed(s, pressure(s)));
}

/// The neighbours of elements e .. e + kWidth<V> - 1 through face f. When
/// they are consecutive elements, one load per variable; otherwise element
/// by element, with the free-stream state across far-field faces.
template <typename V>
state<V> neighbour(const mesh& m, const real_t<V>* vars, std::size_t nel,
                   std::size_t e, int f) {
    using Real = real_t<V>;
    constexpr std::size_t W = kWidth<V>;
    const int* nb = &m.neighbors[e * kNeighbors + static_cast<std::size_t>(f)];
    bool consecutive = nb[0] >= 0;
    for (std::size_t i = 1; i < W; ++i)
        consecutive = consecutive &&
                      nb[i * kNeighbors] == nb[0] + static_cast<int>(i);
    if (consecutive)
        return load<V>(vars, nel, static_cast<std::size_t>(nb[0]));
    Real lane[kVars][W];
    for (std::size_t i = 0; i < W; ++i) {
        const int n = nb[i * kNeighbors];
        const state<Real> s =
            n >= 0 ? load<Real>(vars, nel, static_cast<std::size_t>(n))
                   : free_stream<Real>();
        lane[0][i] = s.rho;
        lane[1][i] = s.mx;
        lane[2][i] = s.my;
        lane[3][i] = s.mz;
        lane[4][i] = s.e;
    }
    return {load_lanes<V>(lane[0]), load_lanes<V>(lane[1]),
            load_lanes<V>(lane[2]), load_lanes<V>(lane[3]),
            load_lanes<V>(lane[4])};
}

/// Face f's normal component of elements e .. e + kWidth<V> - 1.
template <typename V>
V normal(const std::vector<float>& normals, std::size_t e, int f) {
    real_t<V> lane[kWidth<V>];
    for (std::size_t i = 0; i < kWidth<V>; ++i)
        lane[i] = real_t<V>(
            normals[(e + i) * kNeighbors + static_cast<std::size_t>(f)]);
    return load_lanes<V>(lane);
}

/// Accumulated flux divergence of elements e .. e + kWidth<V> - 1.
template <typename V>
void element_flux(const mesh& m, const real_t<V>* vars, std::size_t nel,
                  std::size_t e, V out[kVars]) {
    const state<V> se = load<V>(vars, nel, e);
    const V pe = pressure(se);
    const V ce = sound_speed(se, pe);
    // Summed in locals: `out` may alias `vars` as far as the compiler knows,
    // so summing in place would store and reload it on every face.
    V sum[kVars] = {};
    for (int f = 0; f < kNeighbors; ++f) {
        V flux[kVars];
        face_flux(se, pe, ce, neighbour<V>(m, vars, nel, e, f),
                  normal<V>(m.normals_x, e, f), normal<V>(m.normals_y, e, f),
                  flux);
        for (int k = 0; k < kVars; ++k) sum[k] -= flux[k];
    }
    for (int k = 0; k < kVars; ++k) out[k] = sum[k];
}

/// One RK stage of the oracle for elements e .. e + kWidth<V> - 1: reads the
/// stage input `in`, writes `out = old + factor * sf * flux`. The first stage
/// also sets the step factors from `old`.
template <typename V>
void rk_stage(const mesh& m, const real_t<V>* old, const real_t<V>* in,
              real_t<V>* out, real_t<V>* sf, std::size_t nel, std::size_t e,
              int rk) {
    using Real = real_t<V>;
    if (rk == 0) store_lanes(sf + e, step_factor(load<V>(old, nel, e)));
    V flux[kVars];
    element_flux<V>(m, in, nel, e, flux);
    const Real factor = Real(1) / Real(kRkSteps - rk);
    const V s = load_lanes<V>(sf + e);
    for (std::size_t k = 0; k < kVars; ++k)
        store_lanes(out + k * nel + e,
                    load_lanes<V>(old + k * nel + e) + factor * s * flux[k]);
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
    // Each stage is a pure per-element map (element e writes only its own
    // outputs and reads the stage input), so running lane groups of elements
    // in pool jobs leaves every element's arithmetic, and the output bits,
    // unchanged. A stage reads one array and writes another, so a stage's
    // flux and update run in one pass.
    sl::thread_pool& pool = sl::thread_pool::global();
    const std::size_t nel = p.nel();
    std::vector<Real> old(nel * kVars), stage(nel * kVars), sf(nel);
    for (int iter = 0; iter < p.iterations; ++iter) {
        old.swap(variables);
        const Real* in = old.data();
        for (int rk = 0; rk < kRkSteps; ++rk) {
            // Alternate so that the last stage writes `variables`.
            Real* out =
                (kRkSteps - 1 - rk) % 2 == 0 ? variables.data() : stage.data();
            pool.parallel_for((nel + kBlock - 1) / kBlock, [&](std::size_t b) {
                for_lanes<Real>(
                    b * kBlock, std::min(nel, (b + 1) * kBlock),
                    [&](auto lane, std::size_t e) {
                        rk_stage<decltype(lane)>(m, old.data(), in, out,
                                                 sf.data(), nel, e, rk);
                    });
            });
            in = out;
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

template <typename Real>
void run_iterations(sl::queue& q, const params& p, const mesh& m,
                    Variant variant, sl::buffer<Real>& vars) {
    constexpr bool kFp64 = std::is_same_v<Real, double>;
    const perf::device_spec& dev = q.device();
    const std::size_t nel = p.nel();
    sl::buffer<Real> old_vars(nel * kVars), fluxes(nel * kVars), sf(nel);
    const std::size_t wg = dev.is_fpga() ? 128 : 192;
    // The launch geometry, padded to a work-group multiple, sets the
    // simulated timeline. Each work-group runs its elements [lo, hi), empty
    // past the end, through the oracle's lane loop and takes each accessor's
    // span once.
    const std::size_t padded = (nel + wg - 1) / wg * wg;
    const sl::range<1> groups(padded / wg), local(wg);
    const auto bounds = [wg](const sl::group<1>& g, std::size_t n) {
        const std::size_t lo = std::min(n, g.get_group_id(0) * wg);
        return std::pair{lo, std::min(n, lo + wg)};
    };

    sl::event e_ts;  // last time-step (the writer of vars)
    for (int iter = 0; iter < p.iterations; ++iter) {
        sl::event e_copy = q.submit([&](sl::handler& h) {  // copy old variables
            h.depends_on(e_ts);
            auto src = h.get_access(vars, sl::access_mode::read);
            auto dst = h.get_access(old_vars, sl::access_mode::discard_write);
            h.parallel_for_work_group(
                sl::range<1>(padded * kVars / wg), local,
                detail::stats_copy(p, kFp64), [=](sl::group<1> g) {
                    const auto [lo, hi] = bounds(g, nel * kVars);
                    std::copy_n(src.span(lo, hi - lo).data(), hi - lo,
                                dst.span(lo, hi - lo).data());
                });
        });
        sl::event e_sf = q.submit([&](sl::handler& h) {  // step factor
            h.depends_on(e_ts);
            auto v = h.get_access(vars, sl::access_mode::read);
            auto s = h.get_access(sf, sl::access_mode::discard_write);
            h.parallel_for_work_group(
                groups, local,
                detail::stats_step_factor(p, kFp64, variant, dev),
                [=](sl::group<1> g) {
                    const auto [lo, hi] = bounds(g, nel);
                    const Real* in = v.span(0, v.size()).data();
                    Real* out = s.span(lo, hi - lo).data();
                    for_lanes<Real>(lo, hi, [&](auto lane, std::size_t e) {
                        using V = decltype(lane);
                        store_lanes(out + (e - lo),
                                    step_factor(load<V>(in, nel, e)));
                    });
                });
        });
        for (int rk = 0; rk < kRkSteps; ++rk) {
            sl::event e_flux = q.submit([&](sl::handler& h) {  // compute flux
                h.depends_on(e_ts);
                auto v = h.get_access(vars, sl::access_mode::read);
                auto fl = h.get_access(fluxes, sl::access_mode::discard_write);
                const mesh* mp = &m;
                h.parallel_for_work_group(
                    groups, local,
                    detail::stats_flux(p, kFp64, variant, dev),
                    [=](sl::group<1> g) {
                        const auto [lo, hi] = bounds(g, nel);
                        // Neighbours are gathered from all of `v`; the
                        // group's outputs are one exact view.
                        const Real* in = v.span(0, v.size()).data();
                        Real* out =
                            fl.span(lo * kVars, (hi - lo) * kVars).data();
                        for_lanes<Real>(lo, hi, [&](auto lane, std::size_t e) {
                            using V = decltype(lane);
                            V flux[kVars];
                            element_flux<V>(*mp, in, nel, e, flux);
                            store_element_major(out + (e - lo) * kVars, flux);
                        });
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
                h.parallel_for_work_group(
                    groups, local,
                    detail::stats_time_step(p, kFp64, variant, dev),
                    [=](sl::group<1> g) {
                        const auto [lo, hi] = bounds(g, nel);
                        const std::size_t n = hi - lo;
                        const Real* f = fl.span(lo * kVars, n * kVars).data();
                        const Real* sfg = s.span(lo, n).data();
                        for (std::size_t k = 0; k < kVars; ++k) {
                            Real* out = v.span(k * nel + lo, n).data();
                            const Real* in = ov.span(k * nel + lo, n).data();
                            for (std::size_t i = 0; i < n; ++i)
                                out[i] =
                                    in[i] + factor * sfg[i] * f[i * kVars + k];
                        }
                    });
            });
        }
    }
    q.wait();
}

template void run_iterations<float>(sl::queue&, const params&, const mesh&,
                                    Variant, sl::buffer<float>&);
template void run_iterations<double>(sl::queue&, const params&, const mesh&,
                                     Variant, sl::buffer<double>&);

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

    const std::vector<Real> init = initial_variables<Real>(p);
    sl::buffer<Real> vars(p.nel() * kVars);
    q.copy_to_device(vars, init.data());
    run_iterations(q, p, m, cfg.variant, vars);

    std::vector<Real> got(p.nel() * kVars);
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
