#include "apps/srad/srad.hpp"

#include <array>
#include <cmath>
#include <span>

#include "apps/common/verify.hpp"
#include "sycl/syclite.hpp"
#include "sycl/thread_pool.hpp"

namespace altis::apps::srad {

params params::preset(int size) {
    switch (size) {
        case 1: return {256, 256, 50, 0.5f};
        case 2: return {1024, 1024, 200, 0.5f};
        case 3: return {2048, 2048, 500, 0.5f};
        default: throw std::invalid_argument("srad: size must be 1..3");
    }
}

std::vector<float> make_image(const params& p) {
    std::vector<float> img(p.cells());
    for (std::size_t i = 0; i < p.rows; ++i)
        for (std::size_t j = 0; j < p.cols; ++j) {
            // Smooth gradient with deterministic multiplicative speckle.
            const float base =
                0.3f + 0.4f * static_cast<float>(i + j) /
                           static_cast<float>(p.rows + p.cols);
            const float speckle =
                0.8f + 0.4f * static_cast<float>((i * 7919 + j * 104729) % 1000) /
                           1000.0f;
            img[i * p.cols + j] = base * speckle;
        }
    return img;
}

namespace {

struct stats2 {
    float mean, var;
};

/// Image statistics in chunked order (matches the device reduction exactly).
/// Each chunk's float partials are independent, so they run on the pool into
/// `partials` (one slot per chunk, owned by the caller); the fold into the
/// double sums stays serial in chunk order, so the bits never depend on
/// scheduling.
stats2 image_stats_chunked(const float* img, std::size_t n, std::size_t chunk,
                           std::span<std::array<float, 2>> partials) {
    sl::thread_pool::global().parallel_for(partials.size(), [&](std::size_t c) {
        float s = 0.0f, s2 = 0.0f;  // per-chunk float accumulation
        const std::size_t c0 = c * chunk;
        const std::size_t c1 = std::min(c0 + chunk, n);
        for (std::size_t i = c0; i < c1; ++i) {
            s += img[i];
            s2 += img[i] * img[i];
        }
        partials[c] = {s, s2};
    });
    double sum = 0.0, sum2 = 0.0;
    for (const auto& [s, s2] : partials) {
        sum += s;
        sum2 += s2;
    }
    const float mean = static_cast<float>(sum / static_cast<double>(n));
    const float var =
        static_cast<float>(sum2 / static_cast<double>(n)) - mean * mean;
    return {mean, var};
}

constexpr std::size_t kChunk = 1024;

/// Whole-buffer recorded view: the stencil kernels index every array by
/// cell, so a kernel's footprint is the full image.
template <typename T>
T* whole(const sl::accessor<T>& a) {
    return a.span(0, a.size()).data();
}

/// One diffusion step; `c` and the four derivative arrays are scratch.
/// Shared verbatim between golden (pooled rows) and the device kernels.
void diffusion_coefficients(std::size_t rows, std::size_t cols, float q0sqr,
                            const float* J, float* c, float* dN, float* dS,
                            float* dW, float* dE, std::size_t i, std::size_t j) {
    const std::size_t idx = i * cols + j;
    const std::size_t in = i == 0 ? idx : idx - cols;
    const std::size_t is = i == rows - 1 ? idx : idx + cols;
    const std::size_t jw = j == 0 ? idx : idx - 1;
    const std::size_t je = j == cols - 1 ? idx : idx + 1;
    const float Jc = J[idx];
    dN[idx] = J[in] - Jc;
    dS[idx] = J[is] - Jc;
    dW[idx] = J[jw] - Jc;
    dE[idx] = J[je] - Jc;
    const float g2 = (dN[idx] * dN[idx] + dS[idx] * dS[idx] +
                      dW[idx] * dW[idx] + dE[idx] * dE[idx]) /
                     (Jc * Jc);
    const float l = (dN[idx] + dS[idx] + dW[idx] + dE[idx]) / Jc;
    const float num = (0.5f * g2) - ((1.0f / 16.0f) * (l * l));
    const float den1 = 1.0f + 0.25f * l;
    const float qsqr = num / (den1 * den1);
    const float den2 = (qsqr - q0sqr) / (q0sqr * (1.0f + q0sqr));
    float cv = 1.0f / (1.0f + den2);
    if (cv < 0.0f) cv = 0.0f;
    if (cv > 1.0f) cv = 1.0f;
    c[idx] = cv;
}

void diffusion_update(std::size_t rows, std::size_t cols, float lambda,
                      float* J, const float* c, const float* dN,
                      const float* dS, const float* dW, const float* dE,
                      std::size_t i, std::size_t j) {
    const std::size_t idx = i * cols + j;
    const float cN = c[idx];
    const float cS = i == rows - 1 ? c[idx] : c[idx + cols];
    const float cW = c[idx];
    const float cE = j == cols - 1 ? c[idx] : c[idx + 1];
    const float d =
        cN * dN[idx] + cS * dS[idx] + cW * dW[idx] + cE * dE[idx];
    J[idx] += 0.25f * lambda * d;
}

}  // namespace

void golden(const params& p, std::vector<float>& image) {
    // Both stencil passes are per-cell maps (a cell writes only its own
    // outputs and reads what the previous pass finished), so their rows run
    // on the pool with every cell's arithmetic, and the bits, unchanged.
    sl::thread_pool& pool = sl::thread_pool::global();
    std::vector<float> c(p.cells()), dN(p.cells()), dS(p.cells()),
        dW(p.cells()), dE(p.cells());
    std::vector<std::array<float, 2>> partials((p.cells() + kChunk - 1) /
                                               kChunk);
    for (int iter = 0; iter < p.iterations; ++iter) {
        const stats2 st =
            image_stats_chunked(image.data(), p.cells(), kChunk, partials);
        const float q0sqr = st.var / (st.mean * st.mean);
        pool.parallel_for(p.rows, [&](std::size_t i) {
            for (std::size_t j = 0; j < p.cols; ++j)
                diffusion_coefficients(p.rows, p.cols, q0sqr, image.data(),
                                       c.data(), dN.data(), dS.data(),
                                       dW.data(), dE.data(), i, j);
        });
        pool.parallel_for(p.rows, [&](std::size_t i) {
            for (std::size_t j = 0; j < p.cols; ++j)
                diffusion_update(p.rows, p.cols, p.lambda, image.data(),
                                 c.data(), dN.data(), dS.data(), dW.data(),
                                 dE.data(), i, j);
        });
    }
}

namespace detail {

perf::kernel_stats stats_reduce(const params& p);
perf::kernel_stats stats_srad1(const params& p, Variant v,
                               const perf::device_spec& dev);
perf::kernel_stats stats_srad2(const params& p, Variant v,
                               const perf::device_spec& dev);
perf::kernel_stats stats_srad_st(const params& p, const perf::device_spec& dev);

}  // namespace detail

AppResult run(const RunConfig& cfg) {
    const perf::device_spec& dev = resolve_device(cfg);
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
    sl::buffer<float> J(p.cells());
    q.copy_to_device(J, init.data());
    sl::buffer<float> c(p.cells()), dN(p.cells()), dS(p.cells()),
        dW(p.cells()), dE(p.cells());
    const std::size_t nchunks = (p.cells() + kChunk - 1) / kChunk;
    sl::buffer<float> partials(nchunks * 2);

    const std::size_t rows = p.rows, cols = p.cols;
    const float lambda = p.lambda;

    const bool single_task = cfg.variant == Variant::fpga_opt;
    for (int iter = 0; iter < p.iterations; ++iter) {
        // Statistics reduction (per-chunk partials; finalized on host, as in
        // the original which reduces then reads back the two scalars).
        q.submit([&](sl::handler& h) {
            auto img = h.get_access(J, sl::access_mode::read);
            auto part = h.get_access(partials, sl::access_mode::discard_write);
            const std::size_t n = p.cells();
            h.parallel_for_work_group(
                sl::range<1>(nchunks), sl::range<1>(1), detail::stats_reduce(p),
                [=](sl::group<1> g) {
                    g.parallel_for_work_item([&](sl::h_item<1>) {
                        const std::size_t c0 = g.get_group_id(0) * kChunk;
                        const std::size_t c1 = std::min(c0 + kChunk, n);
                        float s = 0.0f, s2 = 0.0f;
                        for (std::size_t x = c0; x < c1; ++x) {
                            s += img[x];
                            s2 += img[x] * img[x];
                        }
                        part[g.get_group_id(0) * 2] = s;
                        part[g.get_group_id(0) * 2 + 1] = s2;
                    });
                });
        });
        double sum = 0.0, sum2 = 0.0;
        for (std::size_t g = 0; g < nchunks; ++g) {
            sum += partials.host_data()[g * 2];
            sum2 += partials.host_data()[g * 2 + 1];
        }
        const float mean =
            static_cast<float>(sum / static_cast<double>(p.cells()));
        const float var =
            static_cast<float>(sum2 / static_cast<double>(p.cells())) -
            mean * mean;
        const float q0sqr = var / (mean * mean);
        q.annotate_transfer(8.0);  // two scalars D2H

        if (single_task) {
            // Table 3: SRAD's FPGA implementation is Single-Task -- one
            // pipelined pass per kernel with line-buffered neighbours.
            q.submit([&](sl::handler& h) {
                auto img = h.get_access(J, sl::access_mode::read);
                auto ac = h.get_access(c, sl::access_mode::discard_write);
                auto an = h.get_access(dN, sl::access_mode::discard_write);
                auto as = h.get_access(dS, sl::access_mode::discard_write);
                auto aw = h.get_access(dW, sl::access_mode::discard_write);
                auto ae = h.get_access(dE, sl::access_mode::discard_write);
                h.single_task(detail::stats_srad_st(p, dev), [=]() {
                    for (std::size_t i = 0; i < rows; ++i)
                        for (std::size_t j = 0; j < cols; ++j)
                            diffusion_coefficients(
                                rows, cols, q0sqr, whole(img), whole(ac),
                                whole(an), whole(as), whole(aw), whole(ae),
                                i, j);
                });
            });
            q.submit([&](sl::handler& h) {
                auto img = h.get_access(J, sl::access_mode::read_write);
                auto ac = h.get_access(c, sl::access_mode::read);
                auto an = h.get_access(dN, sl::access_mode::read);
                auto as = h.get_access(dS, sl::access_mode::read);
                auto aw = h.get_access(dW, sl::access_mode::read);
                auto ae = h.get_access(dE, sl::access_mode::read);
                h.single_task(detail::stats_srad_st(p, dev), [=]() {
                    for (std::size_t i = 0; i < rows; ++i)
                        for (std::size_t j = 0; j < cols; ++j)
                            diffusion_update(rows, cols, lambda, whole(img),
                                             whole(ac), whole(an), whole(as),
                                             whole(aw), whole(ae), i, j);
                });
            });
        } else {
            const std::size_t wg = dev.is_fpga() ? 64 : 256;
            q.submit([&](sl::handler& h) {
                auto img = h.get_access(J, sl::access_mode::read);
                auto ac = h.get_access(c, sl::access_mode::discard_write);
                auto an = h.get_access(dN, sl::access_mode::discard_write);
                auto as = h.get_access(dS, sl::access_mode::discard_write);
                auto aw = h.get_access(dW, sl::access_mode::discard_write);
                auto ae = h.get_access(dE, sl::access_mode::discard_write);
                h.parallel_for(
                    sl::nd_range<1>(sl::range<1>(p.cells()), sl::range<1>(wg)),
                    detail::stats_srad1(p, cfg.variant, dev),
                    [=](sl::nd_item<1> it) {
                        const std::size_t idx = it.get_global_id(0);
                        diffusion_coefficients(
                            rows, cols, q0sqr, whole(img), whole(ac),
                            whole(an), whole(as), whole(aw), whole(ae),
                            idx / cols, idx % cols);
                    });
            });
            q.submit([&](sl::handler& h) {
                auto img = h.get_access(J, sl::access_mode::read_write);
                auto ac = h.get_access(c, sl::access_mode::read);
                auto an = h.get_access(dN, sl::access_mode::read);
                auto as = h.get_access(dS, sl::access_mode::read);
                auto aw = h.get_access(dW, sl::access_mode::read);
                auto ae = h.get_access(dE, sl::access_mode::read);
                h.parallel_for(
                    sl::nd_range<1>(sl::range<1>(p.cells()), sl::range<1>(wg)),
                    detail::stats_srad2(p, cfg.variant, dev),
                    [=](sl::nd_item<1> it) {
                        const std::size_t idx = it.get_global_id(0);
                        diffusion_update(rows, cols, lambda, whole(img),
                                         whole(ac), whole(an), whole(as),
                                         whole(aw), whole(ae), idx / cols,
                                         idx % cols);
                    });
            });
        }
    }
    q.wait();

    std::vector<float> got(p.cells());
    q.copy_from_device(J, got.data());
    const double err = max_rel_error<float>(expected, got);
    require_close(err, 1e-3, "srad");

    AppResult r;
    r.kernel_ms = q.kernel_ns() / 1e6;
    r.non_kernel_ms = q.non_kernel_ns() / 1e6;
    r.total_ms = q.sim_now_ns() / 1e6;
    r.error = err;
    return r;
}

void register_app() {
    register_standard_app(
        "srad", "Speckle-reducing anisotropic diffusion (PDE denoising)",
        {Variant::cuda, Variant::sycl_base, Variant::sycl_opt,
         Variant::fpga_base, Variant::fpga_opt},
        &run);
}

}  // namespace altis::apps::srad
