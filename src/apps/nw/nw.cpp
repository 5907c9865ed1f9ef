#include "apps/nw/nw.hpp"

#include <algorithm>
#include <span>

#include "apps/common/verify.hpp"
#include "rng/xorwow.hpp"
#include "sycl/syclite.hpp"

namespace altis::apps::nw {

params params::preset(int size) {
    params p;
    switch (size) {
        case 1: p.n = 4096; break;
        case 2: p.n = 8192; break;
        case 3: p.n = 16384; break;
        default: throw std::invalid_argument("nw: size must be 1..3");
    }
    return p;
}

workload make_workload(const params& p) {
    workload w;
    w.seq1.resize(p.n);
    w.seq2.resize(p.n);
    rng::xorwow gen(p.seed);
    for (auto& c : w.seq1) c = static_cast<std::int8_t>(gen.next_u32() % 10);
    for (auto& c : w.seq2) c = static_cast<std::int8_t>(gen.next_u32() % 10);
    return w;
}

std::vector<int> golden(const params& p, const workload& w) {
    // The row-major recurrence, written straight into the n x n interior:
    // row i-1 of `out` is the row above, and the boundary -k*kPenalty is
    // computed inline where a neighbour falls off the interior.
    const std::size_t n = p.n;
    std::vector<int> out(n * n);
    for (std::size_t i = 0; i < n; ++i) {
        int* row = out.data() + i * n;
        const int* above = i == 0 ? nullptr : row - n;
        int diag = -static_cast<int>(i) * kPenalty;
        int left = diag - kPenalty;
        for (std::size_t j = 0; j < n; ++j) {
            const int up = above != nullptr ? above[j]
                                            : -static_cast<int>(j + 1) * kPenalty;
            left = std::max({diag + similarity(w.seq1[i], w.seq2[j]),
                             up - kPenalty, left - kPenalty});
            row[j] = left;
            diag = up;
        }
    }
    return out;
}

namespace detail {

perf::kernel_stats stats_diag(const params& p, Variant v,
                              const perf::device_spec& dev, double avg_blocks);

}  // namespace detail

namespace {

/// Processes one anti-diagonal of blocks: one work-group per block, a local
/// (kTile+1)^2 tile, and a 2*kTile-1 phase wavefront with implicit barriers.
void submit_diagonal(sl::queue& q, const params& p, sl::buffer<int>& score,
                     sl::buffer<std::int8_t>& seq1, sl::buffer<std::int8_t>& seq2,
                     std::size_t diag, std::size_t first_block,
                     std::size_t num_blocks, const perf::kernel_stats& stats) {
    q.submit([&](sl::handler& h) {
        auto s = h.get_access(score, sl::access_mode::read_write);
        auto a = h.get_access(seq1, sl::access_mode::read);
        auto b = h.get_access(seq2, sl::access_mode::read);
        const std::size_t m = p.n + 1;
        const std::size_t d = diag, fb = first_block;
        h.parallel_for_work_group(
            sl::range<1>(num_blocks), sl::range<1>(kTile), stats,
            [=](sl::group<1> g) {
                const std::size_t bi = fb + g.get_group_id(0);
                const std::size_t bj = d - bi;
                const std::size_t i0 = bi * kTile;  // tile origin in DP space
                const std::size_t j0 = bj * kTile;

                int tile[kTile + 1][kTile + 1];
                g.parallel_for_work_item([&](sl::h_item<1> it) {
                    const std::size_t tx = it.get_local_id(0);
                    // North boundary row and west boundary column.
                    tile[0][tx + 1] = s[i0 * m + (j0 + tx + 1)];
                    tile[tx + 1][0] = s[(i0 + tx + 1) * m + j0];
                    if (tx == 0) tile[0][0] = s[i0 * m + j0];
                });
                for (int phase = 0; phase < 2 * kTile - 1; ++phase) {
                    g.parallel_for_work_item([&](sl::h_item<1> it) {
                        const int tx = static_cast<int>(it.get_local_id(0));
                        const int ty = phase - tx;
                        if (ty < 0 || ty >= kTile) return;
                        const int sim =
                            similarity(a[i0 + static_cast<std::size_t>(tx)],
                                       b[j0 + static_cast<std::size_t>(ty)]);
                        const int diag_v = tile[tx][ty] + sim;
                        const int up = tile[tx][ty + 1] - kPenalty;
                        const int left = tile[tx + 1][ty] - kPenalty;
                        tile[tx + 1][ty + 1] = std::max({diag_v, up, left});
                    });
                }
                g.parallel_for_work_item([&](sl::h_item<1> it) {
                    const std::size_t tx = it.get_local_id(0);
                    for (int ty = 0; ty < kTile; ++ty)
                        s[(i0 + tx + 1) * m + j0 + static_cast<std::size_t>(ty) + 1] =
                            tile[tx + 1][ty + 1];
                });
            });
    });
}

}  // namespace

AppResult run(const RunConfig& cfg) {
    const perf::device_spec& dev = resolve_device(cfg);
    const params p = params::preset(cfg.size);
    const workload w = make_workload(p);

    sl::queue q(dev, runtime_for(cfg.variant));
    if (dev.is_fpga()) q.set_design(region(cfg.variant, dev, cfg.size).all_kernels());
    // One-time context/JIT setup is excluded from the timed region (warmed up).

    // One host staging matrix carries the DP boundary in and the scores out.
    const std::size_t m = p.n + 1;
    std::vector<int> host(m * m, 0);
    for (std::size_t i = 0; i < m; ++i) host[i * m] = -static_cast<int>(i) * kPenalty;
    for (std::size_t j = 0; j < m; ++j) host[j] = -static_cast<int>(j) * kPenalty;

    {
        // The device buffers end here, before the reference is built, so a
        // pass holds two matrices: staging + device, then staging + reference.
        sl::buffer<int> score(m * m, sl::no_init);  // the copy writes every element
        q.copy_to_device(score, host.data());
        sl::buffer<std::int8_t> seq1(p.n), seq2(p.n);
        q.copy_to_device(seq1, w.seq1.data());
        q.copy_to_device(seq2, w.seq2.data());

        const std::size_t nb = p.blocks();
        // Two-pass diagonal sweep, as in the original Altis kernels 1 and 2.
        for (std::size_t d = 0; d < 2 * nb - 1; ++d) {
            const std::size_t first = d < nb ? 0 : d - nb + 1;
            const std::size_t last = std::min(d, nb - 1);
            const std::size_t count = last - first + 1;
            submit_diagonal(q, p, score, seq1, seq2, d, first, count,
                            detail::stats_diag(p, cfg.variant, dev,
                                               static_cast<double>(count)));
        }
        q.wait();

        q.copy_from_device(score, host.data());
    }

    const auto oracle = reference_once([&] { return golden(p, w); });
    const std::span<const int> want(*oracle), got(host);
    std::size_t bad = 0;
    for (std::size_t i = 0; i < p.n; ++i)
        bad += mismatch_count(want.subspan(i * p.n, p.n),
                              got.subspan((i + 1) * m + 1, p.n));
    require_close(static_cast<double>(bad), 0.0, "nw");

    AppResult r;
    r.kernel_ms = q.kernel_ns() / 1e6;
    r.non_kernel_ms = q.non_kernel_ns() / 1e6;
    r.total_ms = q.sim_now_ns() / 1e6;
    return r;
}

void register_app() {
    register_standard_app(
        "nw", "Needleman-Wunsch DNA alignment (tiled wavefront DP)",
        {Variant::cuda, Variant::sycl_base, Variant::sycl_opt,
         Variant::fpga_base, Variant::fpga_opt},
        &run);
}

}  // namespace altis::apps::nw
