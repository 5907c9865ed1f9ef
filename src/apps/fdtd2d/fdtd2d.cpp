#include "apps/fdtd2d/fdtd2d.hpp"

#include <utility>

#include "apps/common/verify.hpp"
#include "sycl/syclite.hpp"
#include "sycl/thread_pool.hpp"

namespace altis::apps::fdtd2d {

params params::preset(int size) {
    switch (size) {
        case 1: return {256, 256, 60};
        case 2: return {512, 512, 600};
        case 3: return {1024, 1024, 3200};
        default: throw std::invalid_argument("fdtd2d: size must be 1..3");
    }
}

fields initial_fields(const params& p) {
    fields f;
    f.ex.resize(p.cells());
    f.ey.resize(p.cells());
    f.hz.resize(p.cells());
    for (std::size_t i = 0; i < p.nx; ++i)
        for (std::size_t j = 0; j < p.ny; ++j) {
            const std::size_t idx = i * p.ny + j;
            f.ex[idx] = static_cast<float>(i * (j + 1)) / static_cast<float>(p.nx);
            f.ey[idx] =
                static_cast<float>((i + 1) * (j + 2)) / static_cast<float>(p.ny);
            f.hz[idx] =
                static_cast<float>((i + 2) * (j + 3)) / static_cast<float>(p.nx);
        }
    return f;
}

namespace {

float fict(int t) { return static_cast<float>(t); }

}  // namespace

void golden(const params& p, fields& f) {
    // Each row update writes only its own row. The ey and ex updates read
    // only hz, so they share one pooled pass; the hz update then reads the
    // finished ey and ex. Every cell's arithmetic, and the bits, match a
    // serial sweep.
    sl::thread_pool& pool = sl::thread_pool::global();
    const std::size_t nx = p.nx, ny = p.ny;
    for (int t = 0; t < p.steps; ++t) {
        for (std::size_t j = 0; j < ny; ++j) f.ey[j] = fict(t);
        pool.parallel_for(nx, [&](std::size_t i) {
            if (i > 0)
                for (std::size_t j = 0; j < ny; ++j)
                    f.ey[i * ny + j] -=
                        0.5f * (f.hz[i * ny + j] - f.hz[(i - 1) * ny + j]);
            for (std::size_t j = 1; j < ny; ++j)
                f.ex[i * ny + j] -=
                    0.5f * (f.hz[i * ny + j] - f.hz[i * ny + j - 1]);
        });
        pool.parallel_for(nx > 0 ? nx - 1 : 0, [&](std::size_t i) {
            for (std::size_t j = 0; j + 1 < ny; ++j)
                f.hz[i * ny + j] -=
                    0.7f * (f.ex[i * ny + j + 1] - f.ex[i * ny + j] +
                            f.ey[(i + 1) * ny + j] - f.ey[i * ny + j]);
        });
    }
}

namespace detail {

perf::kernel_stats stats_step(const params& p, const char* name, Variant v,
                              const perf::device_spec& dev);

}  // namespace detail

AppResult run(const RunConfig& cfg) {
    const perf::device_spec& dev = resolve_device(cfg);
    const params p = params::preset(cfg.size);

    const auto oracle = reference_once([&] {
        fields f = initial_fields(p);
        golden(p, f);
        return f;
    });
    const fields& expected = *oracle;

    const fields init = initial_fields(p);
    // ALTIS_OOO=1 opts into the out-of-order graph scheduler; default
    // in-order execution is unchanged (depends_on edges below are no-ops on
    // complete events).
    sl::queue q(dev, runtime_for(cfg.variant), {},
                ooo_enabled() ? sl::queue_property::out_of_order
                              : sl::queue_property::in_order);
    if (dev.is_fpga()) q.set_design(region(cfg.variant, dev, cfg.size).all_kernels());
    // One-time context/JIT setup is excluded from the timed region (warmed up).

    // hz is double-buffered (ping-pong): each step reads hz from one buffer
    // and writes the other, so the ey and ex updates of a step carry no
    // write conflict between each other -- under the graph scheduler they
    // run concurrently, fenced only by the previous step's hz write.
    sl::buffer<float> ex(p.cells()), ey(p.cells());
    sl::buffer<float> hz_a(p.cells()), hz_b(p.cells());
    sl::buffer<float>* hz_cur = &hz_a;
    sl::buffer<float>* hz_nxt = &hz_b;
    q.copy_to_device(ex, init.ex.data());
    q.copy_to_device(ey, init.ey.data());
    q.copy_to_device(*hz_cur, init.hz.data());

    const std::size_t wg = dev.is_fpga() ? 128 : 256;
    const std::size_t nx = p.nx, ny = p.ny;

    sl::event e_hz;  // last hz update; empty before the first step
    for (int t = 0; t < p.steps; ++t) {
        sl::buffer<float>& hzr = *hz_cur;
        sl::buffer<float>& hzw = *hz_nxt;
        sl::event e_ey = q.submit([&](sl::handler& h) {  // ey (+ source row)
            h.depends_on(e_hz);
            auto aey = h.get_access(ey, sl::access_mode::read_write);
            auto ahz = h.get_access(hzr, sl::access_mode::read);
            const int tt = t;
            h.parallel_for(
                sl::nd_range<1>(sl::range<1>(nx * ny), sl::range<1>(wg)),
                detail::stats_step(p, "fdtd_ey", cfg.variant, dev),
                [=](sl::nd_item<1> it) {
                    const std::size_t idx = it.get_global_id(0);
                    const std::size_t i = idx / ny;
                    if (i == 0)
                        aey[idx] = fict(tt);
                    else
                        aey[idx] -= 0.5f * (ahz[idx] - ahz[idx - ny]);
                });
        });
        sl::event e_ex = q.submit([&](sl::handler& h) {  // update ex
            h.depends_on(e_hz);
            auto aex = h.get_access(ex, sl::access_mode::read_write);
            auto ahz = h.get_access(hzr, sl::access_mode::read);
            h.parallel_for(
                sl::nd_range<1>(sl::range<1>(nx * ny), sl::range<1>(wg)),
                detail::stats_step(p, "fdtd_ex", cfg.variant, dev),
                [=](sl::nd_item<1> it) {
                    const std::size_t idx = it.get_global_id(0);
                    if (idx % ny != 0)
                        aex[idx] -= 0.5f * (ahz[idx] - ahz[idx - 1]);
                });
        });
        e_hz = q.submit([&](sl::handler& h) {  // update hz into the other buffer
            h.depends_on(e_ey);
            h.depends_on(e_ex);
            auto aex = h.get_access(ex, sl::access_mode::read);
            auto aey = h.get_access(ey, sl::access_mode::read);
            auto ahzr = h.get_access(hzr, sl::access_mode::read);
            auto ahzw = h.get_access(hzw, sl::access_mode::discard_write);
            h.parallel_for(
                sl::nd_range<1>(sl::range<1>(nx * ny), sl::range<1>(wg)),
                detail::stats_step(p, "fdtd_hz", cfg.variant, dev),
                [=](sl::nd_item<1> it) {
                    const std::size_t idx = it.get_global_id(0);
                    const std::size_t i = idx / ny;
                    const std::size_t j = idx % ny;
                    if (i + 1 < nx && j + 1 < ny)
                        ahzw[idx] = ahzr[idx] -
                                    0.7f * (aex[idx + 1] - aex[idx] +
                                            aey[idx + ny] - aey[idx]);
                    else
                        ahzw[idx] = ahzr[idx];  // border carries over
                });
        });
        std::swap(hz_cur, hz_nxt);
    }
    q.wait();

    std::vector<float> got(p.cells());
    q.copy_from_device(*hz_cur, got.data());
    const double err = max_rel_error<float>(expected.hz, got);
    require_close(err, 1e-4, "fdtd2d hz");

    AppResult r;
    r.kernel_ms = q.kernel_ns() / 1e6;
    r.non_kernel_ms = q.non_kernel_ns() / 1e6;
    r.total_ms = q.sim_now_ns() / 1e6;
    r.error = err;
    return r;
}

void register_app() {
    register_standard_app(
        "fdtd2d", "2D Maxwell solver (FDTD); Fig. 1 time decomposition app",
        {Variant::cuda, Variant::sycl_base, Variant::sycl_opt,
         Variant::fpga_base, Variant::fpga_opt},
        &run);
}

}  // namespace altis::apps::fdtd2d
