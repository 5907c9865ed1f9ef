// Buffers and accessors. Buffers own host-side storage (this reproduction
// executes functionally on the host; device residency is simulated by the
// perf models). Under a sanitize session accessors record every element
// access and span() view in the shadow store; the CleanApps tests check the
// byte counts declared in kernel_stats descriptors against that observed
// footprint (DESIGN.md Sec. 4).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <type_traits>

#include "analyze/probe.hpp"
#include "analyze/shadow.hpp"
#include "fault/inject.hpp"
#include "mem/pool.hpp"
#include "metrics/instruments.hpp"
#include "sycl/thread_pool.hpp"

namespace syclite {

enum class access_mode { read, write, read_write, discard_write };

/// Property tag mirroring sycl::no_init: the buffer's storage is left
/// uninitialized because the first kernel touching it writes every element
/// (discard_write). Only meaningful for trivial element types; non-trivial
/// types are always constructed.
struct no_init_t {};
inline constexpr no_init_t no_init{};

struct use_host_ptr_t {};
inline constexpr use_host_ptr_t use_host_ptr{};

template <typename T>
class buffer;
class handler;

/// Lightweight view into a buffer, handed out by handler::get_access.
/// Copyable into kernels by value, like a SYCL accessor. Under an active
/// sanitize session the handler binds the command group's lifetime token,
/// and every element access and span() probes it (rule ALS-H3: an accessor
/// must not outlive its command group); without a session the token is null
/// and the probe is a single never-taken branch.
template <typename T>
class accessor {
public:
    accessor() = default;

    T& operator[](std::size_t i) const {
        if (token_ != nullptr) {
            // Both probes live behind the token: it is only bound while a
            // sanitize session is active, so the untracked hot path stays
            // one never-taken branch. operator[] cannot see whether the
            // caller loads or stores, so the access-mode decides: any
            // writable mode records a write.
            altis::analyze::probe::accessor_use(token_, ptr_);
            altis::analyze::shadow::on_accessor_access(
                ptr_, i * sizeof(T), sizeof(T),
                mode_ != access_mode::read);
        }
        return ptr_[i];
    }

    /// The recorded view: elements [lo, lo+n) as one contiguous span, the
    /// only way a kernel takes a pointer into the buffer. Under a session it
    /// probes the lifetime token and records the whole range once, in the
    /// accessor's mode, so the shadow sees every byte the kernel may touch
    /// through the span; without one it is the same never-taken branch as
    /// operator[].
    [[nodiscard]] std::span<T> span(std::size_t lo, std::size_t n) const {
        if (token_ != nullptr) record_view(lo, n);
        return {ptr_ + lo, n};
    }

    [[nodiscard]] std::size_t size() const { return count_; }
    [[nodiscard]] access_mode mode() const { return mode_; }

private:
    friend class buffer<T>;
    friend class handler;
    accessor(T* ptr, std::size_t count, access_mode mode)
        : ptr_(ptr), count_(count), mode_(mode) {}

    /// span()'s sanitize path, kept out of line: inlined six times into an
    /// srad work-item it cost 40 % more CPU on the unobserved run.
    [[gnu::cold, gnu::noinline]] void record_view(std::size_t lo,
                                                  std::size_t n) const {
        if (n == 0) return;
        altis::analyze::probe::accessor_use(token_, ptr_);
        altis::analyze::shadow::on_accessor_access(
            ptr_, lo * sizeof(T), n * sizeof(T), mode_ != access_mode::read);
    }

    void bind_lifetime(const altis::analyze::probe::cg_token* token) {
        token_ = token;
    }

    T* ptr_ = nullptr;
    std::size_t count_ = 0;
    access_mode mode_ = access_mode::read_write;
    const altis::analyze::probe::cg_token* token_ = nullptr;
};

namespace detail {

/// Injection point shared by every buffer constructor: `alloc:buffer@N`
/// fails the Nth buffer allocation with a retryable alloc_fault.
inline std::size_t checked_buffer_count(std::size_t count, std::size_t elem) {
    altis::fault::maybe_inject(altis::fault::op_kind::alloc, "buffer",
                               std::to_string(count * elem) + " bytes");
    return count;
}

/// Whether freshly allocated storage is value-initialized or left raw.
enum class fill { value, none };

}  // namespace detail

/// Buffer storage is an owned 64-byte-aligned span from the altis::mem pool
/// (docs/PERFORMANCE.md "Memory subsystem") rather than a std::vector<T>:
/// sweep re-runs recycle the identical block instead of round-tripping the
/// OS, and discard_write workloads can skip the value-initialization pass a
/// vector would force with the `no_init` tag. The default constructors keep
/// the vector's observable zero/value-init semantics.
template <typename T>
class buffer {
public:
    /// Device-only buffer; elements are value-initialized (all-zero for
    /// trivial T), matching the std::vector storage this replaced.
    explicit buffer(std::size_t count) : buffer(count, detail::fill::value) {}

    /// Device-only buffer with uninitialized storage: the discard_write /
    /// no-init fast path. Trivial element types skip the zero-fill pass
    /// entirely; non-trivial types are default-constructed regardless.
    buffer(std::size_t count, no_init_t) : buffer(count, detail::fill::none) {}

    /// Copy-in from host data; no write-back.
    buffer(const T* src, std::size_t count) : buffer(count, detail::fill::none) {
        copy_in(src);
    }

    /// Copy-in from host data; contents are written back to `src` when the
    /// buffer is destroyed (SYCL host-pointer semantics).
    buffer(T* src, std::size_t count, use_host_ptr_t)
        : buffer(count, detail::fill::none) {
        copy_in(src);
        writeback_ = src;
    }

    ~buffer() {
        // Only the use_host_ptr constructor sets writeback_, and its
        // copy_in already required a device-copyable T.
        if (writeback_ != nullptr && count_ > 0)
            thread_pool::global().copy(writeback_, data_, byte_size());
        if constexpr (!std::is_trivially_destructible_v<T>)
            std::destroy(data_, data_ + count_);
        // Reverse the live-bytes charge only against the session that made
        // it: a buffer outliving its session (or straddling two) must not
        // drag the next session's gauge negative.
        if (metered_bytes_ != 0 && altis::metrics::collecting() &&
            altis::metrics::collection_epoch() == metered_epoch_)
            altis::metrics::instruments::buffer_live_bytes().sub(
                static_cast<std::int64_t>(metered_bytes_));
        altis::mem::deallocate(data_);
    }

    buffer(const buffer&) = delete;
    buffer& operator=(const buffer&) = delete;
    buffer(buffer&&) = delete;
    buffer& operator=(buffer&&) = delete;

    [[nodiscard]] std::size_t size() const { return count_; }
    [[nodiscard]] std::size_t byte_size() const { return count_ * sizeof(T); }

    /// Host-side view (valid because storage is host memory). Non-null even
    /// for zero-size buffers (the pool hands out a unique block).
    [[nodiscard]] T* host_data() { return data_; }
    [[nodiscard]] const T* host_data() const { return data_; }

    [[nodiscard]] accessor<T> access(access_mode mode) {
        return accessor<T>(data_, count_, mode);
    }

private:
    buffer(std::size_t count, detail::fill f)
        : count_(detail::checked_buffer_count(count, sizeof(T))),
          data_(static_cast<T*>(altis::mem::allocate(count_ * sizeof(T)))) {
        if constexpr (std::is_trivially_default_constructible_v<T> &&
                      std::is_trivially_copyable_v<T>) {
            if (f == detail::fill::value && count_ > 0)
                std::memset(static_cast<void*>(data_), 0, count_ * sizeof(T));
        } else {
            // Non-trivial T: uninitialized storage is never handed out.
            std::uninitialized_value_construct(data_, data_ + count_);
        }
        meter_alloc();
    }

    /// Copy-in moves raw bytes through thread_pool::copy, which fans large
    /// spans out across the pool as chunked parallel memcpy jobs.
    void copy_in(const T* src) {
        static_assert(std::is_trivially_copyable_v<T>,
                      "host data copied into a buffer must be device-copyable "
                      "(trivially copyable, as SYCL 2020 requires)");
        if (count_ > 0) thread_pool::global().copy(data_, src, byte_size());
    }

    void meter_alloc() {
        if (!altis::metrics::collecting()) return;
        namespace mi = altis::metrics::instruments;
        metered_bytes_ = byte_size();
        metered_epoch_ = altis::metrics::collection_epoch();
        mi::buffer_allocs().add();
        mi::buffer_live_bytes().add(static_cast<std::int64_t>(metered_bytes_));
        const std::int64_t live = mi::buffer_live_bytes().value();
        if (live > 0)
            mi::buffer_peak_bytes().record(static_cast<std::uint64_t>(live));
    }

    std::size_t count_ = 0;
    T* data_ = nullptr;
    T* writeback_ = nullptr;
    /// Bytes charged to the live-bytes gauge at construction (0 when metrics
    /// were off), and the session epoch the charge belongs to.
    std::uint64_t metered_bytes_ = 0;
    std::uint64_t metered_epoch_ = 0;
};

}  // namespace syclite
