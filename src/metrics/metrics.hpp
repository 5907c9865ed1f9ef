// Wall-clock telemetry primitives (altis::metrics). Everything in this file
// is lock-free and built for the functional runtime's hot paths: counters,
// gauges and log-bucketed histograms are sharded per thread across
// cache-line-padded cells (the same padding discipline as pipe.hpp), updated
// with relaxed atomics, and aggregated only on read. Instruments are always
// compiled in; collection is gated by one process-wide flag so the disabled
// path costs a single relaxed load and a predictable branch -- the same
// discipline fault::maybe_inject() and the accessor counting switch follow.
//
// Unlike altis::trace (which records the *simulated* clock), these measure
// the real execution engine: wall-clock nanoseconds, real queue/pool/pipe
// traffic. docs/OBSERVABILITY.md has the metric catalog.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace altis::metrics {

namespace detail {

/// Process-wide collection switch; flipped by metrics::session (session.hpp).
/// Instrument updates are skipped entirely while false.
inline std::atomic<bool> g_enabled{false};

/// Session generation, bumped by reset_all() (instruments.hpp) at session start.
/// Long-lived objects (buffers) remember the epoch that metered their
/// allocation and only reverse it against the same epoch, so an object that
/// straddles two sessions cannot drive the second session's gauges negative.
inline std::atomic<std::uint64_t> g_epoch{0};

/// Shard count: power of two, small enough that aggregate-on-read stays
/// cheap, large enough that the suite's thread population (pool workers +
/// dataflow kernels + samplers) rarely collides on a cell.
inline constexpr unsigned kShards = 16;

/// Stable per-thread shard slot: threads take the next ticket on first use,
/// so the first kShards threads get private cells and later threads wrap.
[[nodiscard]] inline unsigned shard_index() {
    static std::atomic<unsigned> next{0};
    thread_local const unsigned idx =
        next.fetch_add(1, std::memory_order_relaxed) & (kShards - 1);
    return idx;
}

/// One counter cell per cache line so concurrent writers on different shards
/// never bounce a line between cores.
struct alignas(64) padded_u64 {
    std::atomic<std::uint64_t> v{0};
};

struct alignas(64) padded_i64 {
    std::atomic<std::int64_t> v{0};
};

}  // namespace detail

/// True while a metrics::session is active. Instrumentation sites guard on
/// this before touching any instrument or the clock.
[[nodiscard]] inline bool collecting() {
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Generation of the current collection interval; see detail::g_epoch.
[[nodiscard]] inline std::uint64_t collection_epoch() {
    return detail::g_epoch.load(std::memory_order_relaxed);
}

/// Monotonic event count. add() is one relaxed fetch_add on the caller's
/// shard; value() sums the shards (reads may be torn across shards, which is
/// fine for telemetry: every added quantum is counted exactly once).
class counter {
public:
    void add(std::uint64_t v = 1) {
        shards_[detail::shard_index()].v.fetch_add(v,
                                                   std::memory_order_relaxed);
    }

    [[nodiscard]] std::uint64_t value() const {
        std::uint64_t total = 0;
        for (const auto& s : shards_)
            total += s.v.load(std::memory_order_relaxed);
        return total;
    }

    void reset() {
        for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
    }

private:
    std::array<detail::padded_u64, detail::kShards> shards_;
};

/// Signed level (live bytes, in-flight kernels): add/sub on the caller's
/// shard, value() sums. The sum is exact once every in-flight update has
/// landed; transient reads can be momentarily negative under contention and
/// are clamped by readers that need a level (the sampler reports the raw
/// signed sum so bugs stay visible).
class gauge {
public:
    void add(std::int64_t v) {
        shards_[detail::shard_index()].v.fetch_add(v,
                                                   std::memory_order_relaxed);
    }
    void sub(std::int64_t v) { add(-v); }

    [[nodiscard]] std::int64_t value() const {
        std::int64_t total = 0;
        for (const auto& s : shards_)
            total += s.v.load(std::memory_order_relaxed);
        return total;
    }

    void reset() {
        for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
    }

private:
    std::array<detail::padded_i64, detail::kShards> shards_;
};

/// High-water mark (pipe occupancy, peak live bytes). record() is a load
/// plus a CAS loop only when the mark actually rises; steady-state traffic
/// below the mark pays one relaxed load.
class watermark {
public:
    void record(std::uint64_t v) {
        std::uint64_t cur = max_.load(std::memory_order_relaxed);
        while (v > cur &&
               !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed))
            ;
    }

    [[nodiscard]] std::uint64_t value() const {
        return max_.load(std::memory_order_relaxed);
    }

    void reset() { max_.store(0, std::memory_order_relaxed); }

private:
    alignas(64) std::atomic<std::uint64_t> max_{0};
};

/// Log-bucketed histogram: bucket i counts values whose bit width is i, so
/// bucket 0 holds {0} and bucket i>=1 holds [2^(i-1), 2^i). Each shard owns
/// a private bucket array plus a running sum; record() is two relaxed
/// fetch_adds with no boundary search (std::bit_width is a single
/// instruction). Aggregation sums shard-by-shard, so total count and sum are
/// exact after writers quiesce -- the hammer test in tests/metrics/ asserts
/// both identities.
class histogram {
public:
    /// 0..64 bit widths of a uint64_t value.
    static constexpr int kBuckets = 65;

    void record(std::uint64_t v) {
        shard& s = shards_[detail::shard_index()];
        s.buckets[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
        s.sum.fetch_add(v, std::memory_order_relaxed);
    }

    [[nodiscard]] static int bucket_of(std::uint64_t v) {
        return std::bit_width(v);
    }
    /// Inclusive upper bound of bucket i (2^i - 1); used by the Prometheus
    /// exposition's `le` labels.
    [[nodiscard]] static std::uint64_t bucket_bound(int i) {
        return i >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << i) - 1;
    }

    struct snapshot {
        std::array<std::uint64_t, kBuckets> buckets{};
        std::uint64_t count = 0;
        std::uint64_t sum = 0;
    };

    [[nodiscard]] snapshot aggregate() const {
        snapshot out;
        for (const shard& s : shards_) {
            for (int b = 0; b < kBuckets; ++b) {
                const std::uint64_t n =
                    s.buckets[b].load(std::memory_order_relaxed);
                out.buckets[static_cast<std::size_t>(b)] += n;
                out.count += n;
            }
            out.sum += s.sum.load(std::memory_order_relaxed);
        }
        return out;
    }

    void reset() {
        for (shard& s : shards_) {
            for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
            s.sum.store(0, std::memory_order_relaxed);
        }
    }

private:
    /// The bucket array spans several cache lines; aligning the shard keeps
    /// two shards from splitting a line at their boundary.
    struct alignas(64) shard {
        std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
        std::atomic<std::uint64_t> sum{0};
    };

    std::array<shard, detail::kShards> shards_;
};

}  // namespace altis::metrics
