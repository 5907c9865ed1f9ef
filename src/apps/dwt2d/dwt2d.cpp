#include "apps/dwt2d/dwt2d.hpp"

#include <cmath>

#include "apps/common/verify.hpp"
#include "sycl/syclite.hpp"

namespace altis::apps::dwt2d {

params params::preset(int size) {
    switch (size) {
        case 1: return {512, 512};
        case 2: return {2048, 2048};
        case 3: return {4096, 4096};
        default: throw std::invalid_argument("dwt2d: size must be 1..3");
    }
}

std::vector<float> make_image(const params& p) {
    std::vector<float> img(p.pixels());
    for (std::size_t i = 0; i < p.height; ++i)
        for (std::size_t j = 0; j < p.width; ++j)
            img[i * p.width + j] =
                std::sin(static_cast<float>(i) * 0.07f) *
                    std::cos(static_cast<float>(j) * 0.11f) * 96.0f +
                static_cast<float>((i * 31 + j * 17) % 64);
    return img;
}

namespace {

// CDF 9/7 lifting coefficients (JPEG2000 irreversible filter).
constexpr float kA1 = -1.58613434342059f;
constexpr float kA2 = -0.0529801185729f;
constexpr float kA3 = 0.8829110755309f;
constexpr float kA4 = 0.4435068520439f;
constexpr float kK = 1.1496043988602f;

/// In-place 1D CDF 9/7 forward lifting on `n` strided samples; result is
/// deinterleaved into low[0..n/2) then high[n/2..n). Shared verbatim by
/// golden and kernels.
void fdwt97_1d(float* data, std::size_t n, std::size_t stride,
               float* scratch) {
    auto at = [&](std::size_t i) -> float& { return data[i * stride]; };
    // Predict/update passes with symmetric boundary extension.
    auto left = [&](std::size_t i) { return i == 0 ? at(1) : at(i - 1); };
    auto right = [&](std::size_t i) { return i + 1 >= n ? at(n - 2) : at(i + 1); };
    for (std::size_t i = 1; i < n; i += 2) at(i) += kA1 * (left(i) + right(i));
    for (std::size_t i = 0; i < n; i += 2) at(i) += kA2 * (left(i) + right(i));
    for (std::size_t i = 1; i < n; i += 2) at(i) += kA3 * (left(i) + right(i));
    for (std::size_t i = 0; i < n; i += 2) at(i) += kA4 * (left(i) + right(i));
    for (std::size_t i = 0; i < n; ++i) {
        const float v = at(i);
        if (i % 2 == 0)
            scratch[i / 2] = v / kK;  // approximation band
        else
            scratch[n / 2 + i / 2] = v * kK;  // detail band
    }
    for (std::size_t i = 0; i < n; ++i) at(i) = scratch[i];
}

/// Exact inverse of fdwt97_1d: re-interleave, then run the lifting steps
/// backwards with negated coefficients.
void idwt97_1d(float* data, std::size_t n, std::size_t stride,
               float* scratch) {
    auto at = [&](std::size_t i) -> float& { return data[i * stride]; };
    for (std::size_t i = 0; i < n; ++i) scratch[i] = at(i);
    for (std::size_t i = 0; i < n; ++i) {
        if (i % 2 == 0)
            at(i) = scratch[i / 2] * kK;  // undo the /kK scaling
        else
            at(i) = scratch[n / 2 + i / 2] / kK;
    }
    auto left = [&](std::size_t i) { return i == 0 ? at(1) : at(i - 1); };
    auto right = [&](std::size_t i) { return i + 1 >= n ? at(n - 2) : at(i + 1); };
    for (std::size_t i = 0; i < n; i += 2) at(i) -= kA4 * (left(i) + right(i));
    for (std::size_t i = 1; i < n; i += 2) at(i) -= kA3 * (left(i) + right(i));
    for (std::size_t i = 0; i < n; i += 2) at(i) -= kA2 * (left(i) + right(i));
    for (std::size_t i = 1; i < n; i += 2) at(i) -= kA1 * (left(i) + right(i));
}

}  // namespace

void inverse(const params& p, std::vector<float>& image) {
    std::vector<float> scratch(std::max(p.width, p.height));
    // Undo levels in reverse order, smallest LL first.
    for (int level = kLevels - 1; level >= 0; --level) {
        const std::size_t w = p.width >> level;
        const std::size_t h = p.height >> level;
        for (std::size_t j = 0; j < w; ++j)  // vertical first (reverse order)
            idwt97_1d(&image[j], h, p.width, scratch.data());
        for (std::size_t i = 0; i < h; ++i)
            idwt97_1d(&image[i * p.width], w, 1, scratch.data());
    }
}

void golden(const params& p, std::vector<float>& image) {
    std::vector<float> scratch(std::max(p.width, p.height));
    std::size_t w = p.width, h = p.height;
    for (int level = 0; level < kLevels; ++level) {
        for (std::size_t i = 0; i < h; ++i)  // horizontal pass
            fdwt97_1d(&image[i * p.width], w, 1, scratch.data());
        for (std::size_t j = 0; j < w; ++j)  // vertical pass
            fdwt97_1d(&image[j], h, p.width, scratch.data());
        w /= 2;
        h /= 2;
    }
}

namespace detail {

perf::kernel_stats stats_pass(const params& p, Variant v,
                              const perf::device_spec& dev, std::size_t lines,
                              std::size_t line_len, const char* name);

}  // namespace detail

AppResult run(const RunConfig& cfg) {
    const perf::device_spec& dev = resolve_device(cfg);
    if (cfg.variant == Variant::fpga_opt)
        throw std::invalid_argument(
            "dwt2d: no optimized FPGA version exists (Sec. 5.4: the shared-"
            "memory congestion would need an algorithmic rewrite)");
    const params p = params::preset(cfg.size);

    const auto oracle = reference_once([&] {
        std::vector<float> image = make_image(p);
        golden(p, image);
        return image;
    });
    const std::vector<float>& expected = *oracle;

    sl::queue q(dev, runtime_for(cfg.variant));
    if (dev.is_fpga()) q.set_design(region(cfg.variant, dev, cfg.size).all_kernels());
    // One-time context/JIT setup is excluded from the timed region (warmed up).

    const std::vector<float> init = make_image(p);
    sl::buffer<float> img(p.pixels());
    q.copy_to_device(img, init.data());

    std::size_t w = p.width, h = p.height;
    for (int level = 0; level < kLevels; ++level) {
        q.submit([&](sl::handler& h2) {  // horizontal pass: one item per row
            auto a = h2.get_access(img, sl::access_mode::read_write);
            const std::size_t rows = h, len = w, pitch = p.width;
            h2.parallel_for_work_group(
                sl::range<1>(rows / 64 + (rows % 64 ? 1 : 0)), sl::range<1>(64),
                detail::stats_pass(p, cfg.variant, dev, rows, len, "fdwt97_h"),
                [=](sl::group<1> g) {
                    float scratch[4096];
                    g.parallel_for_work_item([&](sl::h_item<1> it) {
                        const std::size_t row =
                            g.get_group_id(0) * 64 + it.get_local_id(0);
                        if (row < rows)
                            fdwt97_1d(a.span(row * pitch, len).data(), len, 1,
                                      scratch);
                    });
                });
        });
        q.submit([&](sl::handler& h2) {  // vertical pass: one item per column
            auto a = h2.get_access(img, sl::access_mode::read_write);
            const std::size_t cols = w, len = h, pitch = p.width;
            h2.parallel_for_work_group(
                sl::range<1>(cols / 64 + (cols % 64 ? 1 : 0)), sl::range<1>(64),
                detail::stats_pass(p, cfg.variant, dev, cols, len, "fdwt97_v"),
                [=](sl::group<1> g) {
                    float scratch[4096];
                    g.parallel_for_work_item([&](sl::h_item<1> it) {
                        const std::size_t col =
                            g.get_group_id(0) * 64 + it.get_local_id(0);
                        // The strided column is recorded as its hull; the
                        // columns in between belong to this same kernel.
                        if (col < cols)
                            fdwt97_1d(a.span(col, (len - 1) * pitch + 1).data(),
                                      len, pitch, scratch);
                    });
                });
        });
        w /= 2;
        h /= 2;
    }
    q.wait();

    std::vector<float> got(p.pixels());
    q.copy_from_device(img, got.data());
    const double err = max_rel_error<float>(expected, got);
    require_close(err, 1e-4, "dwt2d");

    AppResult r;
    r.kernel_ms = q.kernel_ns() / 1e6;
    r.non_kernel_ms = q.non_kernel_ns() / 1e6;
    r.total_ms = q.sim_now_ns() / 1e6;
    r.error = err;
    return r;
}

void register_app() {
    register_standard_app(
        "dwt2d", "2D CDF 9/7 forward wavelet transform (3 levels)",
        {Variant::cuda, Variant::sycl_base, Variant::sycl_opt,
         Variant::fpga_base},
        &run);
}

}  // namespace altis::apps::dwt2d
