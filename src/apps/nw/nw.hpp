// NW: Needleman-Wunsch global DNA sequence alignment (Altis Level-2).
// Tiled wavefront dynamic program with heavy work-group local memory whose
// irregular access pattern the FPGA compiler can only arbitrate (paper
// Sec. 5.2 case 3: no banking, no unrolling -- timing violations), making NW
// the application that runs at ~half CPU speed on the Stratix 10 at larger
// sizes (Sec. 5.4). On GPUs it is the poster child for the compiler
// inlining-threshold fix (Sec. 3.3: up to 2x for NW).
#pragma once

#include <vector>

#include "apps/common/app.hpp"
#include "apps/common/region.hpp"

namespace altis::apps::nw {

inline constexpr int kTile = 16;
inline constexpr int kPenalty = 10;

struct params {
    std::size_t n = 1024;  ///< sequence length (multiple of kTile)
    std::uint64_t seed = 0xA11C0DEULL;

    [[nodiscard]] static params preset(int size);
    [[nodiscard]] std::size_t blocks() const {
        return n / static_cast<std::size_t>(kTile);
    }
};

struct workload {
    std::vector<std::int8_t> seq1, seq2;  ///< n each, symbols in [0,10)
};

[[nodiscard]] workload make_workload(const params& p);

/// Similarity of two symbols (match/mismatch), shared by golden and kernels.
[[nodiscard]] inline int similarity(std::int8_t a, std::int8_t b) {
    return a == b ? 5 : -3;
}

/// Host reference: the interior n x n scores of the (n+1)x(n+1) DP table,
/// row-major (the boundary row/column is implicit -i*penalty).
[[nodiscard]] std::vector<int> golden(const params& p, const workload& w);

AppResult run(const RunConfig& cfg);

[[nodiscard]] timed_region region(Variant v, const perf::device_spec& dev,
                                  int size);
[[nodiscard]] std::vector<perf::kernel_stats> fpga_design(
    const perf::device_spec& dev, int size);

inline constexpr const char* kFpgaImplLabel = "ND-Range";

void register_app();

}  // namespace altis::apps::nw
