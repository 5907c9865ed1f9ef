// thread_pool::copy contract: small copies stay one memcpy, large copies run
// as one parallel_for job of 2 MiB chunks with exact byte coverage
// (including ragged tails), metered under a metrics session. Every test runs
// on the global pool; pinned to one CPU (taskset -c 0) that pool has no
// workers, so the same tests cover the caller-only path.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "metrics/instruments.hpp"
#include "metrics/session.hpp"
#include "sycl/thread_pool.hpp"

namespace syclite {
namespace {

namespace mi = altis::metrics::instruments;

/// Each test reads the pool and copy counters of its own metrics session.
class Transfer : public ::testing::Test {
protected:
    altis::metrics::session session_{"transfer-test", {/*sample_hz=*/0.0}};
};

[[nodiscard]] std::vector<unsigned char> pattern(std::size_t n) {
    std::vector<unsigned char> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<unsigned char>(i * 131 + (i >> 9));
    return v;
}

TEST_F(Transfer, ThresholdDefaultsToFourMiB) {
    EXPECT_EQ(thread_pool::copy_threshold, std::size_t{4} * 1024 * 1024);
}

TEST_F(Transfer, SmallCopyNeverDispatchesToTheRunner) {
    const auto src = pattern(64 * 1024);
    std::vector<unsigned char> dst(src.size());
    thread_pool::global().copy(dst.data(), src.data(), src.size());
    EXPECT_EQ(dst, src);
    EXPECT_EQ(mi::pool_jobs().value(), 0u);
    EXPECT_EQ(mi::mem_parallel_copies().value(), 0u);
}

TEST_F(Transfer, LargeCopyFansOutInChunksAndIsByteExact) {
    thread_pool& pool = thread_pool::global();
    // 5 MiB + 7: above the threshold with a ragged tail chunk.
    const std::size_t bytes = (std::size_t{5} << 20) + 7;
    const auto src = pattern(bytes);
    std::vector<unsigned char> dst(bytes, 0);
    pool.copy(dst.data(), src.data(), bytes);
    EXPECT_EQ(dst, src);
    EXPECT_EQ(mi::pool_jobs().value(), 1u);
    // ceil((5 MiB + 7) / 2 MiB) = 3 chunks, claimed one at a time; a pool
    // without workers runs the whole job as one serial chunk.
    EXPECT_EQ(mi::pool_chunks().value(), pool.worker_count() == 0 ? 1u : 3u);
}

TEST_F(Transfer, ExactThresholdTakesTheParallelPath) {
    const std::size_t bytes = thread_pool::copy_threshold;
    const auto src = pattern(bytes);
    std::vector<unsigned char> dst(bytes, 0);
    thread_pool::global().copy(dst.data(), src.data(), bytes);
    EXPECT_EQ(dst, src);
    EXPECT_EQ(mi::pool_jobs().value(), 1u);
    // One byte less stays serial.
    thread_pool::global().copy(dst.data(), src.data(), bytes - 1);
    EXPECT_EQ(mi::pool_jobs().value(), 1u);
}

TEST_F(Transfer, ZeroBytesIsANoOp) {
    thread_pool::global().copy(nullptr, nullptr, 0);  // must not dereference
    EXPECT_EQ(mi::pool_jobs().value(), 0u);
}

TEST_F(Transfer, ParallelCopiesAreMeteredUnderASession) {
    const std::size_t bytes = std::size_t{4} << 20;
    const auto src = pattern(bytes);
    std::vector<unsigned char> dst(bytes, 0);
    thread_pool::global().copy(dst.data(), src.data(), bytes);
    EXPECT_EQ(mi::mem_parallel_copies().value(), 1u);
    EXPECT_EQ(mi::mem_parallel_copy_bytes().value(), bytes);
    // Below-threshold traffic is not counted as a parallel copy.
    thread_pool::global().copy(dst.data(), src.data(), 1024);
    EXPECT_EQ(mi::mem_parallel_copies().value(), 1u);
}

// Regression: destroying any pool used to switch every later copy, the
// global pool's included, to plain memcpy for the rest of the process.
TEST_F(Transfer, LocalPoolTeardownKeepsTheGlobalCopyPath) {
    thread_pool::global();
    { thread_pool local(1); }
    const std::size_t bytes = std::size_t{6} << 20;
    const auto src = pattern(bytes);
    std::vector<unsigned char> dst(bytes, 0);
    thread_pool::global().copy(dst.data(), src.data(), bytes);
    EXPECT_EQ(dst, src);
    EXPECT_EQ(mi::mem_parallel_copies().value(), 1u);
    EXPECT_EQ(mi::mem_parallel_copy_bytes().value(), bytes);
}

}  // namespace
}  // namespace syclite
