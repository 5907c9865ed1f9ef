// Catalog of the runtime's wall-clock instruments. Every metric the
// functional substrate emits is declared once, in ALTIS_METRICS_CATALOG
// below, so the name, help text and type that reach the Prometheus/JSON
// exports (and the table in docs/OBSERVABILITY.md) cannot drift from the
// instrumentation sites.
//
// The catalog is fixed: its instruments are members of one statically
// allocated, constant-initialized instrument_set, and each accessor returns
// its member by reference -- nothing registers at run time, so every
// snapshot and export lists all instruments, at 0 where nothing happened.
// Call sites must still gate on metrics::collecting() first: the clock
// reads that usually feed the instruments are not free.
#pragma once

#include <functional>
#include <span>
#include <string>

#include "metrics/metrics.hpp"

namespace altis::metrics {

enum class instrument_kind { counter, gauge, watermark, histogram };

[[nodiscard]] const char* to_string(instrument_kind k);

// X(type, accessor, Prometheus name, help), one entry per instrument, in
// export order.
#define ALTIS_METRICS_CATALOG(X)                                              \
    /* ---- syclite::queue ---- */                                            \
    X(counter, queue_submissions, "syclite_queue_submissions_total",          \
      "Kernel submissions accepted by syclite::queue (sequential and "        \
      "dataflow)")                                                            \
    X(histogram, queue_submit_latency_ns, "syclite_queue_submit_latency_ns",  \
      "Wall-clock ns from submit() entry to functional completion of the "    \
      "command group")                                                        \
    X(gauge, queue_inflight_kernels, "syclite_queue_inflight_kernels",        \
      "Kernels currently executing on the functional substrate")              \
    X(counter, queue_waits, "syclite_queue_waits_total",                      \
      "queue::wait() synchronizations")                                       \
    X(counter, queue_async_errors, "syclite_queue_async_errors_total",        \
      "Errors captured for asynchronous delivery (handler installed) or "     \
      "raised from kernel execution")                                         \
    X(counter, queue_dataflow_groups, "syclite_queue_dataflow_groups_total",  \
      "Dataflow groups launched via end_dataflow()")                          \
    /* ---- syclite::thread_pool ---- */                                      \
    X(counter, pool_worker_busy_ns, "syclite_pool_worker_busy_ns",            \
      "Wall-clock ns pool workers spent executing job chunks")                \
    X(counter, pool_worker_idle_ns, "syclite_pool_worker_idle_ns",            \
      "Wall-clock ns pool workers spent parked waiting for work")             \
    X(counter, pool_jobs, "syclite_pool_jobs_total",                          \
      "parallel_for jobs published to the pool")                              \
    X(counter, pool_chunks, "syclite_pool_chunks_total",                      \
      "Work chunks self-scheduled by job participants (submitter and "        \
      "workers)")                                                             \
    X(gauge, pool_active_workers, "syclite_pool_active_workers",              \
      "Pool workers currently executing a job (excludes the submitting "      \
      "thread)")                                                              \
    /* ---- syclite::pipe ---- */                                             \
    X(watermark, pipe_occupancy_hwm, "syclite_pipe_occupancy_hwm",            \
      "High-water mark of buffered elements across all pipes")                \
    X(counter, pipe_items, "syclite_pipe_items_total",                        \
      "Elements moved through pipes (writes; element and burst APIs)")        \
    X(histogram, pipe_burst_items, "syclite_pipe_burst_items",                \
      "Span length per write_burst/read_burst call")                          \
    X(counter, pipe_blocked_write_ns, "syclite_pipe_blocked_write_ns",        \
      "Wall-clock ns producers spent waiting for ring space")                 \
    X(counter, pipe_blocked_read_ns, "syclite_pipe_blocked_read_ns",          \
      "Wall-clock ns consumers spent waiting for ring data")                  \
    X(counter, pipe_parks, "syclite_pipe_parks_total",                        \
      "Times a pipe endpoint exhausted its spin/yield budget and parked on "  \
      "the condvar")                                                          \
    X(counter, pipe_wakes, "syclite_pipe_wakes_total",                        \
      "Dekker-handshake notifications sent to a parked peer")                 \
    /* ---- allocators (USM + buffers) ---- */                                \
    X(gauge, usm_live_bytes, "syclite_usm_live_bytes",                        \
      "Bytes currently allocated through USM")                                \
    X(watermark, usm_peak_bytes, "syclite_usm_peak_bytes",                    \
      "Peak USM bytes live at once")                                          \
    X(counter, usm_allocs, "syclite_usm_allocs_total",                        \
      "USM allocations (malloc_host/device/shared)")                          \
    X(counter, usm_frees, "syclite_usm_frees_total", "USM frees")             \
    X(gauge, buffer_live_bytes, "syclite_buffer_live_bytes",                  \
      "Bytes currently held by live syclite::buffer objects")                 \
    X(watermark, buffer_peak_bytes, "syclite_buffer_peak_bytes",              \
      "Peak buffer bytes live at once")                                       \
    X(counter, buffer_allocs, "syclite_buffer_allocs_total",                  \
      "syclite::buffer constructions")                                        \
    /* ---- altis::mem ---- */                                                \
    X(counter, mem_pool_hits, "altis_mem_pool_hits_total",                    \
      "Allocations served from a pool cache (thread magazine, central free "  \
      "list or large-object reuse cache)")                                    \
    X(counter, mem_pool_misses, "altis_mem_pool_misses_total",                \
      "Allocations that needed fresh OS memory (slab carve or large "         \
      "object)")                                                              \
    X(counter, mem_recycled_bytes, "altis_mem_recycled_bytes_total",          \
      "Payload bytes served from pool caches instead of the OS")              \
    X(gauge, mem_magazine_blocks, "altis_mem_magazine_blocks",                \
      "Blocks currently cached in per-thread magazines (re-seeded from "      \
      "the pool at session start)")                                           \
    X(gauge, mem_reuse_cache_bytes, "altis_mem_reuse_cache_bytes",            \
      "Bytes currently parked in the large-object reuse cache")               \
    X(counter, mem_parallel_copies, "altis_mem_parallel_copies_total",        \
      "Transfers that took the chunked parallel-memcpy fast path")            \
    X(counter, mem_parallel_copy_bytes, "altis_mem_parallel_copy_bytes_total", \
      "Bytes moved by the parallel-memcpy fast path")                         \
    /* ---- syclite::graph (out-of-order DAG scheduler) ---- */               \
    X(counter, sched_nodes, "altis_sched_nodes_total",                        \
      "Command nodes (kernels and transfers) enqueued on out-of-order "       \
      "graph schedulers")                                                     \
    X(counter, sched_edges, "altis_sched_edges_total",                        \
      "Dependency edges resolved at enqueue (explicit depends_on plus "       \
      "accessor/USM-implied RAW/WAR/WAW conflicts)")                          \
    X(watermark, sched_ready_depth, "altis_sched_ready_depth",                \
      "High-water mark of dependency-free nodes waiting for a dispatch "      \
      "slot")                                                                 \
    X(histogram, sched_dispatch_latency_ns, "altis_sched_dispatch_latency_ns", \
      "Wall-clock ns from a node becoming ready to a worker (or joining "     \
      "host) starting it")                                                    \
    X(histogram, sched_overlap_pct, "altis_sched_overlap_pct",                \
      "Per-join overlap ratio: summed modeled node time over the graph "      \
      "region's makespan, in percent (100 = fully serial, higher = "          \
      "overlapped)")                                                          \
    X(counter, sched_cancelled_nodes, "altis_sched_cancelled_nodes_total",    \
      "Graph nodes cancelled at their dispatch checkpoint (deadline or "      \
      "explicit cancellation) before running")                                \
    /* ---- altis::sanitize ---- */                                           \
    X(counter, sanitize_shadow_intervals,                                     \
      "altis_sanitize_shadow_intervals_total",                                \
      "Observed-access intervals flushed into the sanitize shadow store, "    \
      "after thread-local coalescing")                                        \
    X(counter, sanitize_race_checks, "altis_sanitize_race_checks_total",      \
      "Happens-before queries evaluated by the ALS-R1 race pass")             \
    /* ---- altis::fault ---- */                                              \
    X(counter, fault_retries, "altis_fault_retries_total",                    \
      "Retries performed by fault::run_guarded after retryable faults")       \
    X(counter, fault_backoff_ns, "altis_fault_backoff_ns_total",              \
      "Accounted (simulated) exponential-backoff ns across retries")          \
    X(counter, fault_failures, "altis_fault_failures_total",                  \
      "run_guarded outcomes that exhausted retries or hit non-retryable "     \
      "errors")                                                               \
    /* ---- altis::resilience ---- */                                         \
    X(counter, resilience_deadline_misses, "resilience_deadline_misses_total", \
      "Configurations cancelled because they overran --deadline-ms")          \
    X(counter, resilience_quarantined, "resilience_quarantined_total",        \
      "Configurations skipped by an open circuit breaker")                    \
    X(counter, resilience_replays, "resilience_replayed_total",               \
      "Configurations replayed from a --resume journal instead of re-run")    \
    X(histogram, resilience_cancel_latency_ns, "resilience_cancel_latency_ns", \
      "Wall-clock ns from the cancellation being due (deadline expiry or "    \
      "cancel()) to a checkpoint raising it")

/// Every catalog instrument, one member each.
struct instrument_set {
#define ALTIS_METRICS_MEMBER(type, fn, name, help) type fn;
    ALTIS_METRICS_CATALOG(ALTIS_METRICS_MEMBER)
#undef ALTIS_METRICS_MEMBER
};

namespace detail {

/// Constant-initialized and trivially destructible: live before any static
/// constructor runs and after every static destructor, so the global pool's
/// workers can meter into it while the process exits.
constinit inline instrument_set g_instruments;

}  // namespace detail

/// Descriptor of one catalog instrument; exporters walk these. Exactly one
/// of the four instrument pointers is set, matching `kind`.
struct instrument_info {
    std::string name;  ///< Prometheus metric name (snake_case, unit-suffixed)
    std::string help;  ///< one-line description for # HELP / JSON
    instrument_kind kind = instrument_kind::counter;

    counter* ctr = nullptr;
    gauge* gge = nullptr;
    watermark* wmk = nullptr;
    histogram* hst = nullptr;
};

/// The whole catalog, in declaration order.
[[nodiscard]] std::span<const instrument_info> catalog();

/// Zeroes every catalog instrument and the USM ledger and bumps the
/// collection epoch (session start: one process may host several sessions
/// in sequence and each reports its own interval), then runs the reset
/// hooks.
void reset_all();

/// Registers fn to run at the end of every reset_all(). Subsystems whose
/// backing state outlives a session (the altis::mem pool caches) re-seed
/// their level gauges here, so a session starting mid-process observes the
/// true resident level instead of draining it negative.
void add_reset_hook(std::function<void()> fn);

namespace instruments {

#define ALTIS_METRICS_ACCESSOR(type, fn, name, help) \
    inline type& fn() { return detail::g_instruments.fn; }
ALTIS_METRICS_CATALOG(ALTIS_METRICS_ACCESSOR)
#undef ALTIS_METRICS_ACCESSOR

}  // namespace instruments

}  // namespace altis::metrics
