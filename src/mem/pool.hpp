// altis::mem -- pooled, thread-cached memory subsystem backing syclite USM
// allocations and buffer<T> storage (docs/PERFORMANCE.md "Memory
// subsystem"). The paper's fig2/4/5 sweeps re-run each app across many
// device configurations, re-allocating the same buffers only to free them
// milliseconds later; this layer turns those round trips into magazine and
// reuse-cache hits instead of OS traffic.
//
// Architecture:
//   * small allocations (<= 64 KiB) are size-classed (size_class.hpp) and
//     served from per-thread magazines -- plain singly-linked shelves, no
//     atomics on the hot path -- refilled from lock-free central free lists
//     (Treiber LIFO with whole-list pop, so there is no ABA window), which
//     are themselves replenished by carving 64-byte-aligned blocks out of
//     256 KiB slabs;
//   * large allocations round up to a power-of-two class and round-trip
//     through a bounded reuse cache, so back-to-back sweep configurations
//     recycle identical allocations instead of re-faulting fresh pages;
//   * every block carries a 64-byte header with an origin magic (pool vs.
//     system) and a generation tag bumped on each hand-out -- the sanitizer
//     records it with USM alloc/free nodes so pool recycling cannot alias
//     two logical allocations onto one fingerprint.
//
// The subsystem is wall-clock only: it changes how fast host memory is
// produced, never what the simulated timeline or ResultDatabase reports.
#pragma once

#include <cstddef>
#include <cstdint>

namespace altis::mem {

/// Allocation backend. `pooled` is the default; `system` routes every
/// request straight to ::operator new (the pre-pool behavior) -- kept so
/// benchmarks and tests can A/B the pool against the path it replaced.
enum class backend { pooled, system };

void set_backend(backend b);
[[nodiscard]] backend current_backend();

/// Allocates `bytes` of 64-byte-aligned storage (never nullptr; throws
/// std::bad_alloc on exhaustion). Zero-byte requests return a unique,
/// freeable pointer. Blocks must be released with deallocate() -- the
/// header routes the free to whichever path allocated it.
[[nodiscard]] void* allocate(std::size_t bytes);

/// Releases a block from allocate(). nullptr is a no-op. Debug builds
/// assert the block's origin header is intact (double free, foreign
/// pointer, header corruption).
void deallocate(void* p) noexcept;

/// Usable payload bytes of a live block (>= the requested size).
[[nodiscard]] std::size_t usable_size(const void* p);

/// Generation tag stamped when the block was handed out; monotone across
/// the process, so a recycled address still names a unique logical
/// allocation. 0 for nullptr.
[[nodiscard]] std::uint64_t generation_of(const void* p);

/// Point-in-time pool statistics (relaxed-atomic reads; exact once
/// concurrent operations have drained).
struct pool_stats {
    std::uint64_t magazine_hits = 0;   ///< served from the thread magazine
    std::uint64_t central_hits = 0;    ///< magazine refilled from a free list
    std::uint64_t reuse_hits = 0;      ///< large block from the reuse cache
    std::uint64_t fresh_allocs = 0;    ///< had to touch the OS (slab or large)
    std::uint64_t recycled_bytes = 0;  ///< payload bytes served from any cache
    std::int64_t magazine_blocks = 0;  ///< blocks resident in thread magazines
    std::int64_t reuse_cache_bytes = 0;  ///< bytes parked in the reuse cache
    std::int64_t live_bytes = 0;         ///< payload bytes handed out, not freed
    std::int64_t live_blocks = 0;
};

[[nodiscard]] pool_stats stats();

/// Returns large reuse-cache blocks to the OS (slab memory stays reserved).
/// Tests use this to pin cache accounting; apps never need it.
void trim();

/// Flushes the calling thread's magazines into the central free lists.
/// Happens automatically at thread exit; exposed for tests.
void flush_thread_magazines();

}  // namespace altis::mem
