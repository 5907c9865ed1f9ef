// Pointer -> size ledger backing the USM live-bytes gauge. usm_free() takes
// only a pointer (SYCL free semantics), so the allocation site records the
// byte count here and the free site looks it up. Mutex-guarded: USM
// allocation already pays ::operator new, so a lock on this cold path is
// invisible; the kernel hot paths never touch the ledger.
//
// metrics::reset_all() clears the ledger at session start, so a session can
// never subtract bytes some earlier session accounted for.
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>

namespace altis::metrics {

class alloc_ledger {
public:
    static alloc_ledger& instance() {
        static alloc_ledger l;
        return l;
    }

    void on_alloc(const void* p, std::uint64_t bytes) {
        if (p == nullptr) return;
        std::lock_guard lock(mutex_);
        bytes_[p] = bytes;
    }

    /// Removes the entry for `p` and returns its size; 0 when the pointer
    /// was not allocated under the current session (allocated before the
    /// session started, or after a reset).
    [[nodiscard]] std::uint64_t on_free(const void* p) {
        std::lock_guard lock(mutex_);
        const auto it = bytes_.find(p);
        if (it == bytes_.end()) return 0;
        const std::uint64_t n = it->second;
        bytes_.erase(it);
        return n;
    }

    void clear() {
        std::lock_guard lock(mutex_);
        bytes_.clear();
    }

private:
    alloc_ledger() = default;

    std::mutex mutex_;
    std::unordered_map<const void*, std::uint64_t> bytes_;
};

}  // namespace altis::metrics
