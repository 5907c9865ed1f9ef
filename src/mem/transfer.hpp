// Transfer fast path: large host<->device copies and buffer init copies fan
// out through the syclite thread pool as chunked parallel memcpy jobs
// (docs/PERFORMANCE.md "Memory subsystem"). The layer is wall-clock only --
// the simulated PCIe timeline (queue::annotate_transfer) is charged exactly
// as before, independent of how the functional bytes move.
//
// altis::mem sits below the syclite runtime, so it cannot call the thread
// pool directly; the pool installs itself as the parallel runner when the
// first thread_pool (or queue) is constructed. Without a runner -- or below
// the threshold -- copy_bytes degrades to one memcpy.
#pragma once

#include <cstddef>

namespace altis::mem {

/// Runs fn(ctx, i) for i in [0, n), possibly in parallel; must not return
/// until every invocation completed.
using parallel_runner = void (*)(std::size_t n, void (*fn)(void*, std::size_t),
                                 void* ctx);

/// Installs (or clears, with nullptr) the process-wide runner. Idempotent;
/// called by syclite::thread_pool's constructor. Does not return until every
/// copy_bytes call in flight through the *previous* runner has completed, so
/// disarming the bridge before pool teardown cannot race an async graph
/// transfer node still copying through it.
void set_parallel_runner(parallel_runner r);
[[nodiscard]] parallel_runner parallel_runner_installed();

/// Copies below this many bytes (4 MiB) stay a single memcpy.
[[nodiscard]] constexpr std::size_t parallel_copy_threshold() {
    return std::size_t{4} * 1024 * 1024;
}

/// memcpy with the parallel fast path: chunks of 2 MiB are claimed by pool
/// workers when `bytes` reaches the threshold and a runner is installed.
/// Ranges must not overlap (cudaMemcpy semantics, like the copy_to_device /
/// copy_from_device calls this backs).
void copy_bytes(void* dst, const void* src, std::size_t bytes);

}  // namespace altis::mem
