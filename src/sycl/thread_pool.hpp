// Minimal work-sharing thread pool used to execute work-groups, and the
// chunks of large host copies, in parallel.
//
// Jobs are concurrent: each parallel_for publishes its own job onto a work
// list and every pool worker self-schedules chunks from whichever published
// jobs still have work, so N dataflow kernels issuing ND-Range launches at
// once share the workers instead of queueing behind a submission lock
// (docs/PERFORMANCE.md). The calling thread always participates in its own
// job, so progress never depends on a worker being free.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "analyze/shadow.hpp"
#include "sycl/small_function.hpp"

namespace syclite {

class thread_pool {
public:
    /// `threads` counts the workers in addition to the calling thread;
    /// 0 requests one fewer than the CPUs in the calling thread's affinity
    /// mask (sched_getaffinity), or than hardware_concurrency() if the mask
    /// cannot be read.
    explicit thread_pool(unsigned threads = 0);
    ~thread_pool();

    thread_pool(const thread_pool&) = delete;
    thread_pool& operator=(const thread_pool&) = delete;

    /// Runs fn(i) for i in [0, n); blocks until complete. The calling thread
    /// participates. fn must be safe to call concurrently for distinct i.
    /// Safe to call from multiple threads, and concurrent calls execute
    /// concurrently -- dataflow groups with ND-Range members rely on this.
    /// fn is borrowed, not owned (it outlives the call by construction), so
    /// submission allocates nothing.
    void parallel_for(std::size_t n, detail::function_ref<void(std::size_t)> fn);

    /// Copies below this many bytes (4 MiB) stay one memcpy.
    static constexpr std::size_t copy_threshold = std::size_t{4} * 1024 * 1024;

    /// memcpy behind buffer copy-in/write-back and queue transfers: from
    /// copy_threshold up, 2 MiB chunks run as one parallel_for job. Ranges
    /// must not overlap (cudaMemcpy semantics). Wall-clock only: the
    /// simulated PCIe charge is the caller's.
    void copy(void* dst, const void* src, std::size_t bytes);

    /// Fire-and-forget task for a worker thread (the graph scheduler posts
    /// ready-node dispatches this way). Tasks interleave with parallel_for
    /// jobs on the same workers. Posting after shutdown began silently drops
    /// the task -- graph joins run ready nodes inline, so nothing is lost.
    /// Tasks must not throw.
    void post(detail::small_function<void()> task);

    [[nodiscard]] unsigned worker_count() const {
        return static_cast<unsigned>(workers_.size());
    }

    /// Process-wide pool shared by all queues.
    static thread_pool& global();

private:
    void worker_loop();

    struct job {
        job(detail::function_ref<void(std::size_t)> f, std::size_t count,
            std::size_t chunk_size, int actor_id)
            : fn(f), n(count), chunk(chunk_size), actor(actor_id) {}

        detail::function_ref<void(std::size_t)> fn;
        std::size_t n;
        std::size_t chunk;
        /// Shadow actor of the submitting kernel, propagated to every worker
        /// that claims chunks (-1 outside a sanitize session: no rebinding).
        int actor;
        /// next and active_workers sit on separate cache lines: next is
        /// hammered by every participant's fetch_add while active_workers
        /// only changes on join/leave, and sharing a line would put that
        /// contention on the scheduling path of every chunk.
        alignas(64) std::atomic<std::size_t> next{0};
        alignas(64) std::atomic<std::size_t> active_workers{0};
    };

    static void run_job(job& j);
    /// Returns the first published job with unclaimed work, else nullptr.
    /// Caller must hold mutex_.
    [[nodiscard]] job* pick_job();

    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    /// Jobs with possibly-unclaimed work; publication and retirement happen
    /// under mutex_, claiming chunks is lock-free via job::next.
    std::vector<job*> jobs_;
    /// One-shot tasks from post(); drained FIFO by workers, ahead of jobs.
    std::deque<detail::small_function<void()>> tasks_;
    bool stop_ = false;
};

}  // namespace syclite
