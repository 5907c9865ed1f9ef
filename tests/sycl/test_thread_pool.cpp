#include "sycl/thread_pool.hpp"

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <numeric>
#include <thread>
#include <vector>

#include "metrics/session.hpp"

namespace syclite {
namespace {

TEST(ThreadPool, CoversAllIndicesExactlyOnce) {
    thread_pool pool(3);
    constexpr std::size_t kN = 100000;
    std::vector<std::atomic<int>> hits(kN);
    pool.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, ZeroIterationsIsNoop) {
    thread_pool pool(2);
    bool called = false;
    pool.parallel_for(0, [&](std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ThreadPool, WorksWithZeroWorkers) {
    // 0 means one worker fewer than the usable CPUs: caller-only on 1-core
    // hosts, real workers elsewhere, so the sum must be atomic.
    thread_pool pool(0);
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(100, [&](std::size_t i) {
        sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 4950u);
}

TEST(ThreadPool, SizesItselfFromTheAffinityMask) {
    // A thread pinned to one CPU gets a caller-only pool, however many CPUs
    // the host has. Only this thread's mask is narrowed, and it is restored.
    cpu_set_t saved;
    ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
    int cpu = 0;
    while (!CPU_ISSET(cpu, &saved)) ++cpu;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    unsigned workers = 0;
    std::vector<int> hits(1000, 0);
    {
        thread_pool pool(0);
        workers = pool.worker_count();
        pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
    }
    ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
    EXPECT_EQ(workers, 0u);
    EXPECT_EQ(std::count(hits.begin(), hits.end(), 1),
              static_cast<std::ptrdiff_t>(hits.size()));
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
    thread_pool pool(2);
    std::atomic<long> total{0};
    for (int round = 0; round < 50; ++round)
        pool.parallel_for(1000, [&](std::size_t) { total.fetch_add(1); });
    EXPECT_EQ(total.load(), 50000);
}

TEST(ThreadPool, GlobalPoolSingleton) {
    EXPECT_EQ(&thread_pool::global(), &thread_pool::global());
}

// Exit order: workers woken by ~thread_pool at exit, after a metered job,
// must leave without touching anything static destruction already ended.
// The instrument catalog is constant-initialized and never destroyed, so
// even a late idle-time update is safe.
TEST(ThreadPool, ExitAfterAMeteredJobIsClean) {
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    for (int run = 0; run < 10; ++run)
        EXPECT_EXIT(
            {
                thread_pool& pool = thread_pool::global();
                {
                    altis::metrics::session s("exit-order", {0.0});
                    std::atomic<std::size_t> sum{0};
                    pool.parallel_for(1000, [&](std::size_t i) {
                        sum.fetch_add(i, std::memory_order_relaxed);
                    });
                }
                std::exit(0);
            },
            ::testing::ExitedWithCode(0), "");
}

/// The dataflow shape: several worker threads issue parallel_for jobs to one
/// shared pool *concurrently*. Every job must cover exactly its own index
/// space even while the pool's workers drift between jobs.
TEST(ThreadPool, ConcurrentJobsFromManySubmitters) {
    thread_pool pool(4);
    constexpr int kSubmitters = 6;
    constexpr std::size_t kN = 20000;
    constexpr int kRounds = 10;
    std::vector<std::vector<std::atomic<int>>> hits(kSubmitters);
    for (auto& h : hits) h = std::vector<std::atomic<int>>(kN);
    std::vector<std::thread> submitters;
    submitters.reserve(kSubmitters);
    for (int t = 0; t < kSubmitters; ++t)
        submitters.emplace_back([&pool, &hits, t] {
            for (int round = 0; round < kRounds; ++round)
                pool.parallel_for(kN, [&hits, t](std::size_t i) {
                    hits[static_cast<std::size_t>(t)][i].fetch_add(
                        1, std::memory_order_relaxed);
                });
        });
    for (auto& s : submitters) s.join();
    for (int t = 0; t < kSubmitters; ++t)
        for (std::size_t i = 0; i < kN; ++i)
            ASSERT_EQ(hits[static_cast<std::size_t>(t)][i].load(), kRounds)
                << "submitter " << t << " index " << i;
}

/// Jobs of very different sizes must not starve each other: a long job and
/// many short jobs run together and all complete.
TEST(ThreadPool, MixedSizeConcurrentJobsAllComplete) {
    thread_pool pool(3);
    std::atomic<long> long_sum{0};
    std::atomic<int> short_jobs_done{0};
    std::thread long_submitter([&] {
        pool.parallel_for(1 << 18, [&](std::size_t) {
            long_sum.fetch_add(1, std::memory_order_relaxed);
        });
    });
    std::thread short_submitter([&] {
        for (int j = 0; j < 200; ++j) {
            std::atomic<int> count{0};
            pool.parallel_for(16, [&](std::size_t) {
                count.fetch_add(1, std::memory_order_relaxed);
            });
            ASSERT_EQ(count.load(), 16);
            short_jobs_done.fetch_add(1);
        }
    });
    long_submitter.join();
    short_submitter.join();
    EXPECT_EQ(long_sum.load(), 1 << 18);
    EXPECT_EQ(short_jobs_done.load(), 200);
}

}  // namespace
}  // namespace syclite
