#include "sycl/thread_pool.hpp"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>

#include "metrics/instruments.hpp"
#include "resilience/cancel.hpp"

namespace syclite {

namespace {

/// Nanoseconds since an arbitrary epoch; used to meter busy/idle stretches.
[[nodiscard]] std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/// CPUs the calling thread may run on: its affinity mask, so a run pinned
/// with taskset sizes its pool to the CPUs it got. Falls back to
/// hardware_concurrency() if the mask cannot be read.
[[nodiscard]] unsigned usable_cpus() {
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof(mask), &mask) == 0)
        return static_cast<unsigned>(CPU_COUNT(&mask));
    return std::thread::hardware_concurrency();
}

/// copy()'s chunk: big enough that per-chunk scheduling cost is noise
/// against the memcpy, small enough that a 64 MiB copy still spreads across
/// every worker.
constexpr std::size_t kCopyChunkBytes = std::size_t{2} * 1024 * 1024;

}  // namespace

thread_pool::thread_pool(unsigned threads) {
    unsigned n = threads;
    if (n == 0) {
        const unsigned cpus = usable_cpus();
        n = cpus > 1 ? cpus - 1 : 0;
    }
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers_.emplace_back([this] { worker_loop(); });
}

thread_pool::~thread_pool() {
    {
        std::lock_guard lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto& t : workers_) t.join();
}

void thread_pool::run_job(job& j) {
    // Chunked self-scheduling: amortizes the atomic across iterations while
    // staying balanced for irregular per-index costs. Busy time covers the
    // whole claim-and-execute stretch for every participant, submitting
    // thread included, so the metric is meaningful even on a pool with zero
    // workers.
    altis::analyze::shadow::actor_scope actor(j.actor);
    const bool metered = altis::metrics::collecting();
    const std::uint64_t t0 = metered ? now_ns() : 0;
    std::uint64_t chunks = 0;
    for (;;) {
        // Observe cooperative cancellation between chunks: workers must not
        // throw (they would terminate the pool), so they simply stop
        // claiming work; the submitting thread raises after the drain in
        // parallel_for.
        if (altis::resilience::cancellation_requested()) break;
        const std::size_t begin = j.next.fetch_add(j.chunk);
        if (begin >= j.n) break;
        const std::size_t end = std::min(begin + j.chunk, j.n);
        for (std::size_t i = begin; i < end; ++i) j.fn(i);
        ++chunks;
    }
    // The worker's coalesced shadow accesses reach the store before the job
    // retires, while the job's actor still waits for the drain.
    altis::analyze::shadow::on_job_end();
    if (metered) {
        namespace mi = altis::metrics::instruments;
        mi::pool_worker_busy_ns().add(now_ns() - t0);
        mi::pool_chunks().add(chunks);
    }
}

thread_pool::job* thread_pool::pick_job() {
    for (job* j : jobs_)
        if (j->next.load(std::memory_order_relaxed) < j->n) return j;
    return nullptr;
}

void thread_pool::worker_loop() {
    for (;;) {
        job* j = nullptr;
        {
            const bool meter_idle = altis::metrics::collecting();
            const std::uint64_t idle_from = meter_idle ? now_ns() : 0;
            std::unique_lock lock(mutex_);
            wake_.wait(lock, [&] {
                return stop_ || !tasks_.empty() ||
                       (j = pick_job()) != nullptr;
            });
            // Leave before metering: a stopping pool has no idle stretch
            // left to report.
            if (stop_) return;
            if (meter_idle)
                altis::metrics::instruments::pool_worker_idle_ns().add(
                    now_ns() - idle_from);
            if (!tasks_.empty()) {
                // Tasks drain ahead of jobs: a posted graph dispatch usually
                // *produces* the parallel_for work the jobs path then shares.
                detail::small_function<void()> task =
                    std::move(tasks_.front());
                tasks_.pop_front();
                lock.unlock();
                task();
                continue;
            }
            // Joining under the lock pairs with retirement in parallel_for:
            // once the submitter removes its job from jobs_, no new worker
            // can raise active_workers, so draining to zero is final.
            j->active_workers.fetch_add(1, std::memory_order_relaxed);
        }
        // Capture the gauge decision once so the add/sub always pairs even
        // if a metrics session starts or stops while the job runs.
        const bool meter_active = altis::metrics::collecting();
        if (meter_active)
            altis::metrics::instruments::pool_active_workers().add(1);
        run_job(*j);
        if (meter_active)
            altis::metrics::instruments::pool_active_workers().sub(1);
        {
            std::lock_guard lock(mutex_);
            if (j->active_workers.fetch_sub(1, std::memory_order_relaxed) == 1)
                done_.notify_all();
        }
    }
}

void thread_pool::post(detail::small_function<void()> task) {
    {
        std::lock_guard lock(mutex_);
        if (stop_) return;
        tasks_.push_back(std::move(task));
    }
    wake_.notify_one();
}

void thread_pool::parallel_for(std::size_t n,
                               detail::function_ref<void(std::size_t)> fn) {
    if (n == 0) return;
    if (altis::metrics::collecting())
        altis::metrics::instruments::pool_jobs().add();
    if (workers_.empty() || n == 1) {
        // Serial fallback still meters busy time: on single-core hosts the
        // global pool has no workers and this is the only execution path.
        const bool metered = altis::metrics::collecting();
        const std::uint64_t t0 = metered ? now_ns() : 0;
        for (std::size_t i = 0; i < n; ++i) {
            // Masked so the disabled-token fast path costs one relaxed load
            // per 1024 iterations, not per iteration.
            if ((i & 1023u) == 0u) altis::resilience::checkpoint();
            fn(i);
        }
        if (metered) {
            namespace mi = altis::metrics::instruments;
            mi::pool_worker_busy_ns().add(now_ns() - t0);
            mi::pool_chunks().add();
        }
        return;
    }
    job j(fn, n, std::max<std::size_t>(1, n / ((workers_.size() + 1) * 8)),
          altis::analyze::shadow::current_actor());
    {
        std::lock_guard lock(mutex_);
        jobs_.push_back(&j);
    }
    wake_.notify_all();
    run_job(j);
    {
        // Retire the job, then wait for workers that joined it to drain
        // before j (on our stack) dies.
        std::unique_lock lock(mutex_);
        jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &j));
        done_.wait(lock, [&] {
            return j.active_workers.load(std::memory_order_relaxed) == 0;
        });
    }
    // Workers bailed silently on cancellation; raise it here on the
    // submitting thread, after the job is retired and nobody references the
    // stack-allocated state anymore.
    altis::resilience::checkpoint();
}

void thread_pool::copy(void* dst, const void* src, std::size_t bytes) {
    if (bytes == 0) return;
    if (bytes < copy_threshold) {
        std::memcpy(dst, src, bytes);
        return;
    }
    auto* d = static_cast<char*>(dst);
    const auto* s = static_cast<const char*>(src);
    parallel_for((bytes + kCopyChunkBytes - 1) / kCopyChunkBytes,
                 [&](std::size_t i) {
                     const std::size_t off = i * kCopyChunkBytes;
                     std::memcpy(d + off, s + off,
                                 std::min(kCopyChunkBytes, bytes - off));
                 });
    if (altis::metrics::collecting()) {
        namespace mi = altis::metrics::instruments;
        mi::mem_parallel_copies().add();
        mi::mem_parallel_copy_bytes().add(bytes);
    }
}

thread_pool& thread_pool::global() {
    static thread_pool pool;
    return pool;
}

}  // namespace syclite
