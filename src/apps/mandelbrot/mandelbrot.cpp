#include "apps/mandelbrot/mandelbrot.hpp"

#include <algorithm>

#include "apps/common/verify.hpp"
#include "sycl/syclite.hpp"
#include "sycl/thread_pool.hpp"

namespace altis::apps::mandelbrot {

params params::preset(int size) {
    params p;
    switch (size) {
        case 1: p.width = p.height = 512; break;
        case 2: p.width = p.height = 2048; break;
        case 3: p.width = p.height = 8192; break;
        default: throw std::invalid_argument("mandelbrot: size must be 1..3");
    }
    return p;
}

namespace {

/// Escape iteration count for one pixel; shared verbatim by the golden
/// reference and every kernel so integer outputs match exactly.
std::uint16_t escape_iters(const params& p, int px, int py) {
    const float cx =
        p.x0 + (p.x1 - p.x0) * (static_cast<float>(px) + 0.5f) /
                   static_cast<float>(p.width);
    const float cy =
        p.y0 + (p.y1 - p.y0) * (static_cast<float>(py) + 0.5f) /
                   static_cast<float>(p.height);
    float zx = 0.0f, zy = 0.0f;
    int it = 0;
    while (it < p.max_iters && zx * zx + zy * zy <= 4.0f) {
        const float nx = zx * zx - zy * zy + cx;
        zy = 2.0f * zx * zy + cy;
        zx = nx;
        ++it;
    }
    return static_cast<std::uint16_t>(std::min(it, 65535));
}

}  // namespace

void golden(const params& p, std::span<std::uint16_t> iters) {
    if (iters.size() != p.pixels())
        throw std::invalid_argument("mandelbrot::golden: bad output size");
    // Rows are independent, so they run on the pool; each pixel's value is
    // the same escape_iters call as in a serial sweep.
    sl::thread_pool::global().parallel_for(
        static_cast<std::size_t>(p.height), [&](std::size_t row) {
            const int y = static_cast<int>(row);
            for (int x = 0; x < p.width; ++x)
                iters[static_cast<std::size_t>(y) * p.width + x] =
                    escape_iters(p, x, y);
        });
}

double mean_iterations(const params& p) {
    params probe = p;
    probe.width = probe.height = 128;
    double sum = 0.0;
    for (int y = 0; y < probe.height; ++y)
        for (int x = 0; x < probe.width; ++x)
            sum += escape_iters(probe, x, y);
    return sum / static_cast<double>(probe.pixels());
}

namespace detail {

perf::kernel_stats stats_nd(const params& p, Variant v,
                            const perf::device_spec& dev);
perf::kernel_stats stats_single_task(const params& p,
                                     const perf::device_spec& dev, int size);

}  // namespace detail

namespace {

void run_nd_range(sl::queue& q, const params& p, const perf::kernel_stats& stats,
                  sl::buffer<std::uint16_t>& out, std::size_t wg) {
    q.submit([&](sl::handler& h) {
        auto acc = h.get_access(out, sl::access_mode::discard_write);
        const params cp = p;
        h.parallel_for(
            sl::nd_range<1>(sl::range<1>(cp.pixels()), sl::range<1>(wg)), stats,
            [=](sl::nd_item<1> it) {
                const std::size_t gid = it.get_global_id(0);
                const int px = static_cast<int>(gid % cp.width);
                const int py = static_cast<int>(gid / cp.width);
                acc[gid] = escape_iters(cp, px, py);
            });
    });
}

/// Single-Task rewrite: U independent escape chains interleaved so the
/// pipelined loop sustains one iteration per chain per II (the descriptor's
/// unroll factor is this interleave width).
void run_single_task(sl::queue& q, const params& p,
                     const perf::kernel_stats& stats,
                     sl::buffer<std::uint16_t>& out, int interleave) {
    q.submit([&](sl::handler& h) {
        auto acc = h.get_access(out, sl::access_mode::discard_write);
        const params cp = p;
        const int u = interleave;
        h.single_task(stats, [=]() {
            const std::size_t n = cp.pixels();
            for (std::size_t base = 0; base < n;
                 base += static_cast<std::size_t>(u)) {
                const std::size_t lanes =
                    std::min<std::size_t>(static_cast<std::size_t>(u), n - base);
                for (std::size_t lane = 0; lane < lanes; ++lane) {
                    const std::size_t gid = base + lane;
                    const int px = static_cast<int>(gid % cp.width);
                    const int py = static_cast<int>(gid / cp.width);
                    acc[gid] = escape_iters(cp, px, py);
                }
            }
        });
    });
}

}  // namespace

AppResult run(const RunConfig& cfg) {
    const perf::device_spec& dev = resolve_device(cfg);
    const params p = params::preset(cfg.size);

    const auto oracle = reference_once([&] {
        std::vector<std::uint16_t> iters(p.pixels());
        golden(p, iters);
        return iters;
    });
    const std::vector<std::uint16_t>& expected = *oracle;

    sl::queue q(dev, runtime_for(cfg.variant));
    if (dev.is_fpga()) q.set_design(region(cfg.variant, dev, cfg.size).all_kernels());
    // One-time context/JIT setup is excluded from the timed region (warmed up).

    sl::buffer<std::uint16_t> out(p.pixels());
    switch (cfg.variant) {
        case Variant::cuda:
        case Variant::sycl_base:
        case Variant::sycl_opt:
            run_nd_range(q, p, detail::stats_nd(p, cfg.variant, dev), out, 256);
            break;
        case Variant::fpga_base:
            // Sec. 4 refactor: work-group capped at 128 by the barrier rule.
            run_nd_range(q, p, detail::stats_nd(p, cfg.variant, dev), out, 128);
            break;
        case Variant::fpga_opt: {
            const auto stats = detail::stats_single_task(p, dev, cfg.size);
            run_single_task(q, p, stats, out,
                            stats.loops.empty() ? 1 : stats.loops[0].unroll);
            break;
        }
    }
    q.wait();

    std::vector<std::uint16_t> actual(p.pixels());
    q.copy_from_device(out, actual.data());

    const std::size_t bad = mismatch_count<std::uint16_t>(expected, actual);
    require_close(static_cast<double>(bad), 0.0, "mandelbrot");

    AppResult r;
    r.kernel_ms = q.kernel_ns() / 1e6;
    r.non_kernel_ms = q.non_kernel_ns() / 1e6;
    r.total_ms = q.sim_now_ns() / 1e6;
    return r;
}

void register_app() {
    register_standard_app(
        "mandelbrot", "Fractal image computation (escape iterations)",
        {Variant::cuda, Variant::sycl_base, Variant::sycl_opt,
         Variant::fpga_base, Variant::fpga_opt},
        &run);
}

}  // namespace altis::apps::mandelbrot
