#include "apps/kmeans/kmeans.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "apps/common/verify.hpp"
#include "rng/philox.hpp"
#include "sycl/syclite.hpp"
#include "sycl/thread_pool.hpp"

namespace altis::apps::kmeans {

params params::preset(int size) {
    params p;
    switch (size) {
        case 1: p = {4096, 16, 8, 150, 0xC1D2ULL}; break;
        case 2: p = {65536, 16, 8, 300, 0xC1D2ULL}; break;
        case 3: p = {262144, 16, 8, 500, 0xC1D2ULL}; break;
        default: throw std::invalid_argument("kmeans: size must be 1..3");
    }
    return p;
}

dataset make_dataset(const params& p) {
    dataset data;
    data.points.resize(p.n * p.d);
    rng::philox4x32 gen(p.seed);
    for (std::size_t i = 0; i < p.n; ++i) {
        const std::size_t blob = i % p.k;
        for (std::size_t j = 0; j < p.d; ++j) {
            const float center = static_cast<float>(blob) * 4.0f +
                                 static_cast<float>(j % 3);
            data.points[i * p.d + j] = center + (gen.next_float() - 0.5f);
        }
    }
    data.initial_centers.assign(data.points.begin(),
                                data.points.begin() +
                                    static_cast<std::ptrdiff_t>(p.k * p.d));
    return data;
}

namespace {

/// Index of the nearest center (first minimum wins) -- shared verbatim by
/// golden and all kernels so tie-breaking is identical.
int nearest_center(const float* point, const float* centers, std::size_t k,
                   std::size_t d) {
    int best = 0;
    float best_dist = std::numeric_limits<float>::max();
    for (std::size_t c = 0; c < k; ++c) {
        float dist = 0.0f;
        for (std::size_t j = 0; j < d; ++j) {
            const float diff = point[j] - centers[c * d + j];
            dist += diff * diff;
        }
        if (dist < best_dist) {
            best_dist = dist;
            best = static_cast<int>(c);
        }
    }
    return best;
}

/// Sequential accumulation pass: sums/counts in point order, then the
/// division. Shared by golden and the Single-Task path.
void accumulate_and_finalize(const params& p, const float* points,
                             const int* assignment, float* centers) {
    std::vector<float> sums(p.k * p.d, 0.0f);
    std::vector<int> counts(p.k, 0);
    for (std::size_t i = 0; i < p.n; ++i) {
        const int c = assignment[i];
        for (std::size_t j = 0; j < p.d; ++j)
            sums[static_cast<std::size_t>(c) * p.d + j] += points[i * p.d + j];
        ++counts[static_cast<std::size_t>(c)];
    }
    for (std::size_t c = 0; c < p.k; ++c) {
        if (counts[c] == 0) continue;  // keep the old center
        for (std::size_t j = 0; j < p.d; ++j)
            centers[c * p.d + j] =
                sums[c * p.d + j] / static_cast<float>(counts[c]);
    }
}

}  // namespace

clustering golden(const params& p, const dataset& data) {
    clustering out;
    out.centers = data.initial_centers;
    out.assignment.assign(p.n, 0);
    for (int iter = 0; iter < p.iterations; ++iter) {
        // The assignment is a per-point map, so it runs on the pool; the
        // accumulation stays serial in point order, so the bits match a
        // serial sweep.
        sl::thread_pool::global().parallel_for(p.n, [&](std::size_t i) {
            out.assignment[i] = nearest_center(&data.points[i * p.d],
                                               out.centers.data(), p.k, p.d);
        });
        accumulate_and_finalize(p, data.points.data(), out.assignment.data(),
                                out.centers.data());
    }
    return out;
}

namespace detail {

perf::kernel_stats stats_map_nd(const params& p, const perf::device_spec& dev);
perf::kernel_stats stats_reset_nd(const params& p);
perf::kernel_stats stats_accumulate_nd(const params& p);
perf::kernel_stats stats_finalize_nd(const params& p);
perf::kernel_stats stats_map_st(const params& p, const perf::device_spec& dev);
perf::kernel_stats stats_resetaccfin_st(const params& p,
                                        const perf::device_spec& dev);

}  // namespace detail

namespace {

/// ND-Range path (CUDA / SYCL / FPGA baseline): four kernels per iteration
/// communicating through global memory (Fig. 3a). The accumulation uses one
/// work-group per chunk with deterministic in-chunk order, then a
/// group-ordered finalize, so results are scheduling-independent.
void run_nd_iteration(sl::queue& q, const params& p, sl::buffer<float>& points,
                      sl::buffer<float>& centers, sl::buffer<int>& assignment,
                      sl::buffer<float>& partial_sums,
                      sl::buffer<int>& partial_counts, std::size_t num_chunks,
                      std::size_t chunk, const perf::device_spec& dev) {
    const std::size_t wg = dev.is_fpga() ? 64 : 256;

    q.submit([&](sl::handler& h) {  // mapCenters
        auto pts = h.get_access(points, sl::access_mode::read);
        auto ctr = h.get_access(centers, sl::access_mode::read);
        auto asg = h.get_access(assignment, sl::access_mode::discard_write);
        const params cp = p;
        h.parallel_for(sl::nd_range<1>(sl::range<1>(p.n), sl::range<1>(wg)),
                       detail::stats_map_nd(p, dev), [=](sl::nd_item<1> it) {
                           const std::size_t i = it.get_global_id(0);
                           asg[i] = nearest_center(
                               pts.span(i * cp.d, cp.d).data(),
                               ctr.span(0, cp.k * cp.d).data(), cp.k, cp.d);
                       });
    });

    q.submit([&](sl::handler& h) {  // reset partials
        auto sums = h.get_access(partial_sums, sl::access_mode::discard_write);
        auto cnts = h.get_access(partial_counts, sl::access_mode::discard_write);
        const std::size_t kd = p.k * p.d;
        h.parallel_for(
            sl::nd_range<1>(sl::range<1>(num_chunks * kd), sl::range<1>(std::min<std::size_t>(kd, 64))),
            detail::stats_reset_nd(p), [=](sl::nd_item<1> it) {
                const std::size_t i = it.get_global_id(0);
                sums[i] = 0.0f;
                if (i % kd < p.k) cnts[(i / kd) * p.k + i % kd] = 0;
            });
    });

    q.submit([&](sl::handler& h) {  // accumulate per chunk
        auto pts = h.get_access(points, sl::access_mode::read);
        auto asg = h.get_access(assignment, sl::access_mode::read);
        auto sums = h.get_access(partial_sums, sl::access_mode::read_write);
        auto cnts = h.get_access(partial_counts, sl::access_mode::read_write);
        const params cp = p;
        const std::size_t chunk_sz = chunk;
        h.parallel_for_work_group(
            sl::range<1>(num_chunks), sl::range<1>(1),
            detail::stats_accumulate_nd(p), [=](sl::group<1> g) {
                g.parallel_for_work_item([&](sl::h_item<1>) {
                    const std::size_t c0 = g.get_group_id(0) * chunk_sz;
                    const std::size_t c1 = std::min(c0 + chunk_sz, cp.n);
                    const std::size_t base_s = g.get_group_id(0) * cp.k * cp.d;
                    const std::size_t base_c = g.get_group_id(0) * cp.k;
                    for (std::size_t i = c0; i < c1; ++i) {
                        const auto c = static_cast<std::size_t>(asg[i]);
                        for (std::size_t j = 0; j < cp.d; ++j)
                            sums[base_s + c * cp.d + j] += pts[i * cp.d + j];
                        cnts[base_c + c] += 1;
                    }
                });
            });
    });

    q.submit([&](sl::handler& h) {  // finalize
        auto sums = h.get_access(partial_sums, sl::access_mode::read);
        auto cnts = h.get_access(partial_counts, sl::access_mode::read);
        auto ctr = h.get_access(centers, sl::access_mode::read_write);
        const params cp = p;
        const std::size_t chunks = num_chunks;
        h.parallel_for(sl::nd_range<1>(sl::range<1>(cp.k), sl::range<1>(1)),
                       detail::stats_finalize_nd(p), [=](sl::nd_item<1> it) {
                           const std::size_t c = it.get_global_id(0);
                           int count = 0;
                           for (std::size_t g = 0; g < chunks; ++g)
                               count += cnts[g * cp.k + c];
                           if (count == 0) return;
                           for (std::size_t j = 0; j < cp.d; ++j) {
                               float sum = 0.0f;
                               for (std::size_t g = 0; g < chunks; ++g)
                                   sum += sums[(g * cp.k + c) * cp.d + j];
                               ctr[c * cp.d + j] = sum / static_cast<float>(count);
                           }
                       });
    });
}

/// Optimized FPGA dataflow (Fig. 3b): one launch of two Single-Task kernels;
/// mapCenters is the only kernel touching global memory; mappings stream
/// through `map_pipe`, new centers feed back through `center_pipe`.
void run_dataflow(sl::queue& q, const params& p, sl::buffer<float>& points,
                  sl::buffer<float>& centers, sl::buffer<int>& assignment,
                  const perf::device_spec& dev) {
    struct mapping {
        int center;
        float coords[32];  // max feature count across presets
    };
    if (p.d > 32)
        throw std::invalid_argument("kmeans: dataflow path supports d <= 32");

    /// Mappings move in bursts of this many to amortize the pipe's counter
    /// publication (docs/PERFORMANCE.md); purely a host-side wall-clock
    /// optimization -- the declared per-round volumes and the simulated
    /// timeline are unchanged.
    constexpr std::size_t kBurst = 64;

    sl::pipe<mapping> map_pipe(256, "kmeans_map");
    sl::pipe<float> center_pipe(1024, "kmeans_center");

    // RAII guard: if either submission throws (an injected launch fault, an
    // allocation failure inside a handler), the dtor aborts the half-built
    // group so the queue is reusable instead of wedged in dataflow mode.
    sl::dataflow_guard group(q);
    q.submit([&](sl::handler& h) {  // mapCenters
        auto pts = h.get_access(points, sl::access_mode::read);
        auto ctr = h.get_access(centers, sl::access_mode::read);
        auto asg = h.get_access(assignment, sl::access_mode::discard_write);
        const params cp = p;
        auto* mp = &map_pipe;
        auto* fb = &center_pipe;
        // Declared steady-state volumes for the sanitizer's pipe lint: each
        // iteration streams n mappings out and k*d center floats back. The
        // feedback cycle is feasible because center_pipe holds a full round.
        h.writes_pipe(map_pipe, static_cast<double>(p.n), p.iterations);
        h.reads_pipe(center_pipe, static_cast<double>(p.k * p.d), p.iterations);
        h.single_task(detail::stats_map_st(p, dev), [=]() {
            std::vector<float> cur(cp.k * cp.d);
            for (std::size_t x = 0; x < cp.k * cp.d; ++x) cur[x] = ctr[x];
            std::vector<mapping> batch(kBurst);
            for (int iter = 0; iter < cp.iterations; ++iter) {
                std::size_t filled = 0;
                for (std::size_t i = 0; i < cp.n; ++i) {
                    mapping& m = batch[filled];
                    m.center = nearest_center(pts.span(i * cp.d, cp.d).data(),
                                              cur.data(), cp.k, cp.d);
                    for (std::size_t j = 0; j < cp.d; ++j)
                        m.coords[j] = pts[i * cp.d + j];
                    if (iter == cp.iterations - 1) asg[i] = m.center;
                    if (++filled == kBurst) {
                        mp->write_burst(batch.data(), filled);
                        filled = 0;
                    }
                }
                if (filled > 0) mp->write_burst(batch.data(), filled);
                // Receive the finalized centers for the next pass.
                fb->read_burst(cur.data(), cp.k * cp.d);
            }
        });
    });
    q.submit([&](sl::handler& h) {  // resetAccFin
        // Separate read and write accessors instead of one read_write: the
        // kernel only *reads* centers once up front and only *writes* them
        // once at the very end. Declaring that precisely lets the race
        // engine prove the feedback cycle safe -- the final write is
        // happens-after mapCenters' initial read through the map_pipe
        // edges, whereas a read_write accessor would make every access
        // look like a potential store.
        auto ctr_in = h.get_access(centers, sl::access_mode::read);
        auto ctr_out = h.get_access(centers, sl::access_mode::write);
        const params cp = p;
        auto* mp = &map_pipe;
        auto* fb = &center_pipe;
        h.reads_pipe(map_pipe, static_cast<double>(p.n), p.iterations);
        h.writes_pipe(center_pipe, static_cast<double>(p.k * p.d), p.iterations);
        h.single_task(detail::stats_resetaccfin_st(p, dev), [=]() {
            std::vector<float> cur(cp.k * cp.d);
            for (std::size_t x = 0; x < cp.k * cp.d; ++x) cur[x] = ctr_in[x];
            std::vector<float> sums(cp.k * cp.d);
            std::vector<int> counts(cp.k);
            std::vector<mapping> batch(kBurst);
            for (int iter = 0; iter < cp.iterations; ++iter) {
                std::fill(sums.begin(), sums.end(), 0.0f);   // reset
                std::fill(counts.begin(), counts.end(), 0);
                for (std::size_t i = 0; i < cp.n;) {         // accumulate
                    const std::size_t take = std::min(kBurst, cp.n - i);
                    mp->read_burst(batch.data(), take);
                    for (std::size_t b = 0; b < take; ++b) {
                        const mapping& m = batch[b];
                        const auto c = static_cast<std::size_t>(m.center);
                        for (std::size_t j = 0; j < cp.d; ++j)
                            sums[c * cp.d + j] += m.coords[j];
                        ++counts[c];
                    }
                    i += take;
                }
                for (std::size_t c = 0; c < cp.k; ++c) {     // finalize
                    if (counts[c] == 0) continue;
                    for (std::size_t j = 0; j < cp.d; ++j)
                        cur[c * cp.d + j] =
                            sums[c * cp.d + j] / static_cast<float>(counts[c]);
                }
                fb->write_burst(cur.data(), cp.k * cp.d);
            }
            for (std::size_t x = 0; x < cp.k * cp.d; ++x) ctr_out[x] = cur[x];
        });
    });
    group.join();
}

}  // namespace

AppResult run(const RunConfig& cfg) {
    const perf::device_spec& dev = resolve_device(cfg);
    const params p = params::preset(cfg.size);
    const dataset data = make_dataset(p);
    const auto oracle = reference_once([&] { return golden(p, data); });
    const clustering& expected = *oracle;

    sl::queue q(dev, runtime_for(cfg.variant));
    if (dev.is_fpga()) q.set_design(region(cfg.variant, dev, cfg.size).all_kernels());
    // One-time context/JIT setup is excluded from the timed region (warmed up).

    sl::buffer<float> points(p.n * p.d);
    q.copy_to_device(points, data.points.data());
    sl::buffer<float> centers(p.k * p.d);
    q.copy_to_device(centers, data.initial_centers.data());
    sl::buffer<int> assignment(p.n);

    if (cfg.variant == Variant::fpga_opt) {
        run_dataflow(q, p, points, centers, assignment, dev);
    } else {
        const std::size_t chunk = 512;
        const std::size_t num_chunks = (p.n + chunk - 1) / chunk;
        sl::buffer<float> partial_sums(num_chunks * p.k * p.d);
        sl::buffer<int> partial_counts(num_chunks * p.k);
        for (int iter = 0; iter < p.iterations; ++iter)
            run_nd_iteration(q, p, points, centers, assignment, partial_sums,
                             partial_counts, num_chunks, chunk, dev);
    }
    q.wait();

    std::vector<float> got_centers(p.k * p.d);
    q.copy_from_device(centers, got_centers.data());
    const double err = max_rel_error<float>(expected.centers, got_centers);
    require_close(err, 2e-3, "kmeans centers");

    std::vector<int> got_assignment(p.n);
    q.copy_from_device(assignment, got_assignment.data());
    const std::size_t bad =
        mismatch_count<int>(expected.assignment, got_assignment);
    require_close(static_cast<double>(bad) / static_cast<double>(p.n), 0.01,
                  "kmeans assignments");

    AppResult r;
    r.kernel_ms = q.kernel_ns() / 1e6;
    r.non_kernel_ms = q.non_kernel_ns() / 1e6;
    r.total_ms = q.sim_now_ns() / 1e6;
    r.error = err;
    return r;
}

void register_app() {
    register_standard_app(
        "kmeans", "Lloyd clustering; FPGA dataflow design with pipes (Fig. 3)",
        {Variant::cuda, Variant::sycl_base, Variant::sycl_opt,
         Variant::fpga_base, Variant::fpga_opt},
        &run);
}

}  // namespace altis::apps::kmeans
