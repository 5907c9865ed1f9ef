// Unified Shared Memory emulation. The paper's FPGA boards (BittWare 520N,
// DE10-Agilex) do not support USM: sycl::malloc_host queries return nullptr
// (Sec. 3.2.1), which forced the authors to strip USM from Altis-SYCL. We
// reproduce exactly that observable behaviour so the migration story is
// testable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>

#include "core/command_stream.hpp"
#include "fault/inject.hpp"
#include "mem/pool.hpp"
#include "sycl/queue.hpp"

namespace syclite {

enum class usm_alloc_kind { host, device, shared };

[[nodiscard]] inline const char* to_string(usm_alloc_kind k) {
    switch (k) {
        case usm_alloc_kind::host: return "usm_host";
        case usm_alloc_kind::device: return "usm_device";
        case usm_alloc_kind::shared: return "usm_shared";
    }
    return "usm";
}

template <typename T>
[[nodiscard]] T* usm_malloc(std::size_t count, const queue& q,
                            usm_alloc_kind kind) {
    // Injection point: `alloc:usm*@N` makes the Nth USM allocation fail
    // (throwing alloc_fault -- the retryable out-of-resources analogue).
    altis::fault::maybe_inject(altis::fault::op_kind::alloc, to_string(kind),
                               std::to_string(count * sizeof(T)) + " bytes");
    if (!q.device().usm_supported) return nullptr;
    // Pool-backed: the altis::mem size-class allocator recycles the block
    // the next sweep configuration will ask for again (64-byte aligned, as
    // ::operator new(std::align_val_t{64}) was before). A zero-count request
    // still yields a unique, freeable pointer (smallest size class), so the
    // alloc/free pairing stays observable to the ledger and the sanitizer.
    T* p = static_cast<T*>(altis::mem::allocate(count * sizeof(T)));
    // One usm_alloc event: the sanitizer's USM liveness tracking (ALS-H4)
    // pairs it with usm_free and the ranges kernels declare via
    // handler::uses_usm; metrics meters the live bytes. The generation tag
    // keeps a recycled address from aliasing two logical allocations onto
    // one fingerprint.
    if (altis::stream::wanted(altis::stream::kind::usm_alloc))
        altis::stream::emit({.what = altis::stream::kind::usm_alloc,
                             .base = p,
                             .bytes = static_cast<double>(count * sizeof(T)),
                             .generation = altis::mem::generation_of(p)});
    return p;
}

template <typename T>
[[nodiscard]] T* malloc_host(std::size_t count, const queue& q) {
    return usm_malloc<T>(count, q, usm_alloc_kind::host);
}
template <typename T>
[[nodiscard]] T* malloc_device(std::size_t count, const queue& q) {
    return usm_malloc<T>(count, q, usm_alloc_kind::device);
}
template <typename T>
[[nodiscard]] T* malloc_shared(std::size_t count, const queue& q) {
    return usm_malloc<T>(count, q, usm_alloc_kind::shared);
}

inline void usm_free(void* ptr, const queue& /*q*/) {
    if (ptr != nullptr && altis::stream::wanted(altis::stream::kind::usm_free))
        altis::stream::emit({.what = altis::stream::kind::usm_free,
                             .base = ptr,
                             .generation = altis::mem::generation_of(ptr)});
    // Routed by the block header to whichever path allocated it (pool size
    // class, large reuse cache, or the system fallback backend); debug
    // builds assert on mismatched or double frees.
    altis::mem::deallocate(ptr);
}

/// mem_advise advice values. The valid set is device-dependent (the DPCT
/// warning the paper discusses): advising a device that does not support the
/// hint is an error the runtime reports.
enum class mem_advice { read_mostly, preferred_location, accessed_by };

inline void mem_advise(const queue& q, const void* ptr, std::size_t /*bytes*/,
                       mem_advice advice) {
    if (ptr == nullptr)
        throw std::invalid_argument("mem_advise: null allocation");
    if (!q.device().usm_supported)
        throw std::runtime_error("mem_advise: device has no USM support");
    // GPUs accept all three hints; the CPU runtime only accepts read_mostly
    // (others are device-placement hints that have no meaning on host).
    if (q.device().kind == perf::device_kind::cpu &&
        advice != mem_advice::read_mostly)
        throw std::runtime_error(
            "mem_advise: advice not supported on this device");
}

}  // namespace syclite
