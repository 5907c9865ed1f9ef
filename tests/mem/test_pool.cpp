// altis::mem pool contract: size-class geometry, alignment, zero-size
// uniqueness, generation tagging across recycling, exact live-byte
// accounting (single-threaded and under a cross-thread free hammer),
// magazine overflow/underflow, the reuse cache, the system A/B backend, and
// debug-build header integrity checks.
#include "mem/pool.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "mem/size_class.hpp"

namespace altis::mem {
namespace {

[[nodiscard]] bool aligned64(const void* p) {
    return reinterpret_cast<std::uintptr_t>(p) % kAlignment == 0;
}

/// Restores the pooled backend even if a test body throws.
struct backend_guard {
    backend prev = current_backend();
    ~backend_guard() { set_backend(prev); }
};

TEST(SizeClass, GeometryIsMonotoneAndCovering) {
    static_assert(class_size(0) == kAlignment);
    static_assert(class_size(kSmallClasses - 1) == kSmallMax);
    for (unsigned c = 1; c < kSmallClasses; ++c)
        EXPECT_GT(class_size(c), class_size(c - 1)) << c;
    // Every request up to kSmallMax maps to a class at least as big, and to
    // the smallest such class.
    EXPECT_EQ(size_to_class(0), 0u);
    for (std::size_t n = 1; n <= kSmallMax; n += 37) {
        const unsigned c = size_to_class(n);
        EXPECT_GE(class_size(c), n) << n;
        if (c > 0) {
            EXPECT_LT(class_size(c - 1), n) << n;
        }
    }
    EXPECT_EQ(size_to_class(kSmallMax), kSmallClasses - 1);
}

TEST(SizeClass, LargeClassesArePowersOfTwo) {
    for (std::size_t n : {std::size_t{64} * 1024 + 1, std::size_t{1} << 20,
                          (std::size_t{1} << 20) + 1, std::size_t{64} << 20}) {
        const unsigned lc = large_class(n);
        const std::size_t sz = large_class_size(lc);
        EXPECT_GE(sz, n) << n;
        EXPECT_EQ(sz & (sz - 1), 0u) << "not a power of two: " << sz;
        EXPECT_LT(sz / 2, n) << "class overshoots: " << n;
    }
}

TEST(Pool, AlignmentAndUsableSize) {
    for (std::size_t n : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                          std::size_t{4096}, kSmallMax, kSmallMax + 1,
                          std::size_t{3} << 20}) {
        void* p = allocate(n);
        ASSERT_NE(p, nullptr) << n;
        EXPECT_TRUE(aligned64(p)) << n;
        EXPECT_GE(usable_size(p), n) << n;
        // The block is fully usable, not just nominally sized.
        std::memset(p, 0xAB, usable_size(p));
        deallocate(p);
    }
}

TEST(Pool, ZeroSizeAllocationsAreUniqueAndFreeable) {
    void* a = allocate(0);
    void* b = allocate(0);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_NE(a, b);  // distinct identities, like operator new
    EXPECT_TRUE(aligned64(a));
    deallocate(a);
    deallocate(b);
}

TEST(Pool, GenerationDisambiguatesARecycledAddress) {
    void* p1 = allocate(256);
    const std::uint64_t g1 = generation_of(p1);
    EXPECT_GT(g1, 0u);
    deallocate(p1);
    // Magazine LIFO: the same thread asking for the same class gets the
    // identical block back -- which is exactly why the generation exists.
    void* p2 = allocate(256);
    EXPECT_EQ(p2, p1);
    EXPECT_GT(generation_of(p2), g1);
    deallocate(p2);
}

TEST(Pool, LiveByteAccountingIsExactSingleThread) {
    const pool_stats before = stats();
    std::vector<void*> ptrs;
    std::int64_t expect_bytes = 0;
    for (std::size_t n : {std::size_t{8}, std::size_t{100}, std::size_t{2048},
                          std::size_t{1} << 20}) {
        void* p = allocate(n);
        expect_bytes += static_cast<std::int64_t>(usable_size(p));
        ptrs.push_back(p);
    }
    const pool_stats mid = stats();
    EXPECT_EQ(mid.live_bytes - before.live_bytes, expect_bytes);
    EXPECT_EQ(mid.live_blocks - before.live_blocks, 4);
    for (void* p : ptrs) deallocate(p);
    const pool_stats after = stats();
    EXPECT_EQ(after.live_bytes, before.live_bytes);
    EXPECT_EQ(after.live_blocks, before.live_blocks);
}

TEST(Pool, RefreeingAClassServesFromCachesNotTheOs) {
    // Warm: 100 blocks of one class (768 B -- a class no other test in this
    // binary touches), freed again, park in the magazine and (past the
    // shelf cap) the central depot. Re-allocation must be served from those
    // parked blocks. Carve batches stock the shelf with never-handed-out
    // spares that stay flagged fresh (they count as misses by design), so
    // the bound is one carve batch, not zero.
    constexpr int kBlocks = 100;
    constexpr std::size_t kBytes = 768;
    std::vector<void*> ptrs;
    for (int i = 0; i < kBlocks; ++i) ptrs.push_back(allocate(kBytes));
    for (void* p : ptrs) deallocate(p);
    ptrs.clear();
    const pool_stats warm = stats();
    for (int i = 0; i < kBlocks; ++i) ptrs.push_back(allocate(kBytes));
    const pool_stats after = stats();
    const std::uint64_t fresh = after.fresh_allocs - warm.fresh_allocs;
    const std::uint64_t hits = (after.magazine_hits + after.central_hits) -
                               (warm.magazine_hits + warm.central_hits);
    EXPECT_LE(fresh, 31u) << "at most the final carve batch's spares";
    EXPECT_EQ(hits + fresh, static_cast<std::uint64_t>(kBlocks));
    EXPECT_EQ(after.recycled_bytes - warm.recycled_bytes,
              hits * class_size(size_to_class(kBytes)));
    for (void* p : ptrs) deallocate(p);
}

TEST(Pool, MagazineOverflowUnloadsToTheDepotWithoutLosingBlocks) {
    // 64-byte class caps its shelf at 32 blocks; freeing 100 forces several
    // unload_half trips. Conservation is what matters: nothing leaks, and
    // the resident counter ends where it started once we drain again.
    const pool_stats before = stats();
    std::vector<void*> ptrs;
    for (int i = 0; i < 100; ++i) ptrs.push_back(allocate(64));
    for (void* p : ptrs) deallocate(p);
    EXPECT_EQ(stats().live_blocks, before.live_blocks);
    // Shelf stayed within its cap: the 64 B class never keeps > 32 around.
    ptrs.clear();
    flush_thread_magazines();
    EXPECT_EQ(stats().magazine_blocks, 0);
}

TEST(Pool, LargeBlocksRecycleThroughTheReuseCacheAndTrimEmptiesIt) {
    trim();
    const pool_stats base = stats();
    constexpr std::size_t kBig = std::size_t{8} << 20;
    void* p = allocate(kBig);
    const std::uint64_t g1 = generation_of(p);
    deallocate(p);
    const pool_stats parked = stats();
    EXPECT_GE(parked.reuse_cache_bytes - base.reuse_cache_bytes,
              static_cast<std::int64_t>(kBig));
    void* p2 = allocate(kBig);
    EXPECT_EQ(p2, p) << "back-to-back large request must hit the cache";
    EXPECT_GT(generation_of(p2), g1);
    EXPECT_EQ(stats().reuse_hits, base.reuse_hits + 1);
    deallocate(p2);
    trim();
    EXPECT_LE(stats().reuse_cache_bytes, base.reuse_cache_bytes);
}

TEST(Pool, SystemBackendRoutesFreesByHeader) {
    backend_guard restore;
    set_backend(backend::system);
    void* p = allocate(1000);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(aligned64(p));
    EXPECT_EQ(usable_size(p), 1000u);
    EXPECT_GT(generation_of(p), 0u);
    // Free after switching back: the header, not the mode flag, must route
    // the release to ::operator delete.
    set_backend(backend::pooled);
    const pool_stats before = stats();
    deallocate(p);
    EXPECT_EQ(stats().live_blocks, before.live_blocks - 1);
}

TEST(Pool, ZeroSizeWorksOnTheSystemBackendToo) {
    backend_guard restore;
    set_backend(backend::system);
    void* a = allocate(0);
    void* b = allocate(0);
    ASSERT_NE(a, nullptr);
    EXPECT_NE(a, b);
    deallocate(a);
    deallocate(b);
}

// Cross-thread free hammer: allocations migrate between threads through a
// shared pile, so frees constantly land on a different magazine than the one
// that allocated. Exact conservation must survive. (TSan CI runs this suite;
// the test also guards the lock-free depot push/pop pairing.)
TEST(Pool, ConcurrentHammerConservesEveryByte) {
    const pool_stats before = stats();
    constexpr int kThreads = 4;
    constexpr int kIters = 4000;
    std::mutex mu;
    std::vector<void*> pile;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            std::uint32_t rng = 0x9E3779B9u * static_cast<std::uint32_t>(t + 1);
            const auto next = [&rng] {
                rng ^= rng << 13;
                rng ^= rng >> 17;
                rng ^= rng << 5;
                return rng;
            };
            for (int i = 0; i < kIters; ++i) {
                const std::size_t bytes = next() % (128 * 1024);  // both tiers
                void* p = allocate(bytes);
                std::memset(p, t, bytes < 64 ? bytes : 64);
                void* victim = nullptr;
                {
                    std::lock_guard lock(mu);
                    pile.push_back(p);
                    if (pile.size() > 64 || (next() & 1u) != 0u) {
                        const std::size_t at = next() % pile.size();
                        victim = pile[at];
                        pile[at] = pile.back();
                        pile.pop_back();
                    }
                }
                if (victim != nullptr) deallocate(victim);
            }
            // Worker magazines flush at thread exit via the TLS destructor.
        });
    for (auto& th : threads) th.join();
    for (void* p : pile) deallocate(p);
    const pool_stats after = stats();
    EXPECT_EQ(after.live_bytes, before.live_bytes);
    EXPECT_EQ(after.live_blocks, before.live_blocks);
}

#ifndef NDEBUG
TEST(PoolDeathTest, DoubleFreeAssertsInDebug) {
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    void* p = allocate(128);
    deallocate(p);
    EXPECT_DEATH(deallocate(p), "double free");
    // The block is already parked; do not touch it again.
}

TEST(PoolDeathTest, ForeignPointerAssertsInDebug) {
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    alignas(64) static char fake[256] = {};
    EXPECT_DEATH(deallocate(fake + 64), "never +allocated|magic mismatch");
}
#endif

}  // namespace
}  // namespace altis::mem
