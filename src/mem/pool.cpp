#include "mem/pool.hpp"

#include <atomic>
#include <cassert>
#include <mutex>
#include <new>

#include "mem/size_class.hpp"
#include "metrics/instruments.hpp"

namespace altis::mem {

namespace {

// Block origin magics. A block's header keeps its magic for its whole
// lifetime except while parked in a cache (kMagicFreed), which is what lets
// deallocate() route frees to the path that allocated -- and lets debug
// builds catch double frees and foreign pointers instead of corrupting a
// free list.
constexpr std::uint32_t kMagicPooled = 0xA17150ACu;
constexpr std::uint32_t kMagicSystem = 0xA1715051u;
constexpr std::uint32_t kMagicFreed = 0xDEADA175u;

constexpr std::uint32_t kFlagFresh = 1u;  ///< never recycled yet
constexpr std::uint32_t kFlagLarge = 2u;  ///< cls indexes the large classes

/// 64 bytes in front of every payload, keeping the payload itself 64-byte
/// aligned. `next` links the block through magazine shelves, central free
/// lists and the reuse cache while it is parked.
struct alignas(kAlignment) block_header {
    std::uint32_t magic = 0;
    std::uint32_t cls = 0;
    std::uint32_t flags = 0;
    std::uint32_t pad = 0;
    std::uint64_t payload = 0;  ///< usable bytes behind the header
    std::uint64_t generation = 0;
    block_header* next = nullptr;
};
static_assert(sizeof(block_header) == kAlignment,
              "header must preserve payload alignment");

[[nodiscard]] void* payload_of(block_header* h) { return h + 1; }
[[nodiscard]] block_header* header_of(void* p) {
    return static_cast<block_header*>(p) - 1;
}
[[nodiscard]] const block_header* header_of(const void* p) {
    return static_cast<const block_header*>(p) - 1;
}

/// Lock-free LIFO. Push links under a CAS loop (safe: only the new head's
/// next is written); consumers take the *whole* list with one exchange, so
/// no pop ever dereferences a node another thread may concurrently pop --
/// the construction has no ABA window by design.
class free_list {
public:
    void push_chain(block_header* first, block_header* last) {
        block_header* h = head_.load(std::memory_order_relaxed);
        do {
            last->next = h;
        } while (!head_.compare_exchange_weak(h, first,
                                              std::memory_order_release,
                                              std::memory_order_relaxed));
    }
    void push(block_header* b) { push_chain(b, b); }

    [[nodiscard]] block_header* pop_all() {
        return head_.exchange(nullptr, std::memory_order_acquire);
    }

private:
    alignas(64) std::atomic<block_header*> head_{nullptr};
};

/// Per-thread magazine shelf capacity: deeper for tiny classes (the churny
/// ones), shallow for 64 KiB blocks so one idle thread cannot strand
/// megabytes.
[[nodiscard]] constexpr unsigned mag_cap(unsigned cls) {
    const std::size_t per = 32768 / class_size(cls);
    return per < 4 ? 4u : (per > 32 ? 32u : static_cast<unsigned>(per));
}

constexpr std::size_t kSlabBytes = 256 * 1024;
constexpr std::int64_t kReuseCacheCapBytes = 256ll * 1024 * 1024;

std::atomic<std::uint64_t> g_generation{0};  // NOLINT(cppcoreguidelines-avoid-non-const-global-variables)

class central;
central& instance();

/// Thread-local cache: one singly-linked shelf per small class. No atomics
/// on push/pop; blocks migrate between threads only through the central
/// free lists. The destructor flushes every shelf, so short-lived threads
/// (pool workers, dataflow kernels) return their cache when they exit.
struct magazine {
    struct shelf {
        block_header* top = nullptr;
        unsigned count = 0;
    };
    shelf shelves[kSmallClasses];

    ~magazine();
};

class central {
public:
    central() {
        // Re-seed the level gauges after every metrics reset: the pool's
        // caches survive across metrics sessions, so a session must start
        // from the true resident level or draining a pre-session cache
        // would drive the gauge negative.
        altis::metrics::add_reset_hook([this] {
            namespace mi = altis::metrics::instruments;
            mi::mem_magazine_blocks().add(
                magazine_blocks_.load(std::memory_order_relaxed));
            mi::mem_reuse_cache_bytes().add(
                reuse_cache_bytes_.load(std::memory_order_relaxed));
        });
    }

    void* alloc_small(std::size_t bytes, magazine& mag) {
        const unsigned cls = size_to_class(bytes);
        magazine::shelf& sh = mag.shelves[cls];
        block_header* h = sh.top;
        if (h != nullptr) {
            sh.top = h->next;
            --sh.count;
            note_magazine_blocks(-1);
            note_serve(h, /*from_magazine=*/true);
        } else {
            h = refill(cls, sh);
        }
        return hand_out(h);
    }

    void free_small(block_header* h, magazine& mag) {
        const unsigned cls = h->cls;
        take_back(h);
        magazine::shelf& sh = mag.shelves[cls];
        h->next = sh.top;
        sh.top = h;
        ++sh.count;
        note_magazine_blocks(+1);
        const unsigned cap = mag_cap(cls);
        if (sh.count > cap) unload_half(cls, sh);
    }

    void* alloc_large(std::size_t bytes) {
        const unsigned lc = large_class(bytes);
        const std::size_t sz = large_class_size(lc);
        block_header* h = reuse_cache_[lc].pop_all();
        if (h != nullptr) {
            if (h->next != nullptr) {
                block_header* first = h->next;
                block_header* last = first;
                while (last->next != nullptr) last = last->next;
                reuse_cache_[lc].push_chain(first, last);
            }
            reuse_cache_bytes_.fetch_sub(static_cast<std::int64_t>(sz),
                                         std::memory_order_relaxed);
            if (altis::metrics::collecting())
                altis::metrics::instruments::mem_reuse_cache_bytes().sub(
                    static_cast<std::int64_t>(sz));
            reuse_hits_.fetch_add(1, std::memory_order_relaxed);
            note_serve(h, /*from_magazine=*/false, /*count_hit=*/false);
        } else {
            h = os_alloc(sz, kFlagLarge | kFlagFresh, lc);
            note_serve(h, /*from_magazine=*/false, /*count_hit=*/false);
        }
        return hand_out(h);
    }

    void free_large(block_header* h) {
        const std::size_t sz = h->payload;
        take_back(h);
        const std::int64_t now =
            reuse_cache_bytes_.fetch_add(static_cast<std::int64_t>(sz),
                                         std::memory_order_relaxed) +
            static_cast<std::int64_t>(sz);
        if (now > kReuseCacheCapBytes) {
            reuse_cache_bytes_.fetch_sub(static_cast<std::int64_t>(sz),
                                         std::memory_order_relaxed);
            ::operator delete(h, std::align_val_t{kAlignment});
            return;
        }
        if (altis::metrics::collecting())
            altis::metrics::instruments::mem_reuse_cache_bytes().add(
                static_cast<std::int64_t>(sz));
        reuse_cache_[h->cls].push(h);
    }

    void* alloc_system(std::size_t bytes) {
        block_header* h = os_alloc(bytes, 0, 0);
        h->magic = kMagicFreed;  // hand_out flips it; os_alloc leaves freed
        void* p = hand_out(h);
        header_of(p)->magic = kMagicSystem;
        return p;
    }

    void free_system(block_header* h) {
        take_back(h);
        ::operator delete(h, std::align_val_t{kAlignment});
    }

    void flush(magazine& mag) {
        for (unsigned cls = 0; cls < kSmallClasses; ++cls) {
            magazine::shelf& sh = mag.shelves[cls];
            if (sh.top == nullptr) continue;
            block_header* last = sh.top;
            while (last->next != nullptr) last = last->next;
            depot_[cls].push_chain(sh.top, last);
            note_magazine_blocks(-static_cast<std::int64_t>(sh.count));
            sh.top = nullptr;
            sh.count = 0;
        }
    }

    void trim() {
        for (unsigned lc = 0; lc < kLargeClasses; ++lc) {
            block_header* h = reuse_cache_[lc].pop_all();
            while (h != nullptr) {
                block_header* next = h->next;
                const auto sz = static_cast<std::int64_t>(h->payload);
                reuse_cache_bytes_.fetch_sub(sz, std::memory_order_relaxed);
                if (altis::metrics::collecting())
                    altis::metrics::instruments::mem_reuse_cache_bytes().sub(
                        sz);
                ::operator delete(h, std::align_val_t{kAlignment});
                h = next;
            }
        }
    }

    [[nodiscard]] pool_stats snapshot() const {
        pool_stats s;
        s.magazine_hits = magazine_hits_.load(std::memory_order_relaxed);
        s.central_hits = central_hits_.load(std::memory_order_relaxed);
        s.reuse_hits = reuse_hits_.load(std::memory_order_relaxed);
        s.fresh_allocs = fresh_allocs_.load(std::memory_order_relaxed);
        s.recycled_bytes = recycled_bytes_.load(std::memory_order_relaxed);
        s.magazine_blocks = magazine_blocks_.load(std::memory_order_relaxed);
        s.reuse_cache_bytes =
            reuse_cache_bytes_.load(std::memory_order_relaxed);
        s.live_bytes = live_bytes_.load(std::memory_order_relaxed);
        s.live_blocks = live_blocks_.load(std::memory_order_relaxed);
        return s;
    }

private:
    /// Stamps the block live and hands its payload out. Hit/miss accounting
    /// keys off kFlagFresh: a block that never round-tripped through a free
    /// is a miss no matter which cache it sat in.
    void* hand_out(block_header* h) {
        h->magic = kMagicPooled;
        h->generation =
            g_generation.fetch_add(1, std::memory_order_relaxed) + 1;
        live_bytes_.fetch_add(static_cast<std::int64_t>(h->payload),
                              std::memory_order_relaxed);
        live_blocks_.fetch_add(1, std::memory_order_relaxed);
        return payload_of(h);
    }

    void take_back(block_header* h) {
        assert(h->magic == kMagicPooled || h->magic == kMagicSystem);
        h->magic = kMagicFreed;
        live_bytes_.fetch_sub(static_cast<std::int64_t>(h->payload),
                              std::memory_order_relaxed);
        live_blocks_.fetch_sub(1, std::memory_order_relaxed);
    }

    void note_serve(block_header* h, bool from_magazine,
                    bool count_hit = true) {
        const bool metered = altis::metrics::collecting();
        namespace mi = altis::metrics::instruments;
        if ((h->flags & kFlagFresh) != 0u) {
            h->flags &= ~kFlagFresh;
            fresh_allocs_.fetch_add(1, std::memory_order_relaxed);
            if (metered) mi::mem_pool_misses().add();
            return;
        }
        if (count_hit) {
            if (from_magazine)
                magazine_hits_.fetch_add(1, std::memory_order_relaxed);
            else
                central_hits_.fetch_add(1, std::memory_order_relaxed);
        }
        recycled_bytes_.fetch_add(h->payload, std::memory_order_relaxed);
        if (metered) {
            mi::mem_pool_hits().add();
            mi::mem_recycled_bytes().add(h->payload);
        }
    }

    void note_magazine_blocks(std::int64_t delta) {
        magazine_blocks_.fetch_add(delta, std::memory_order_relaxed);
        if (altis::metrics::collecting())
            altis::metrics::instruments::mem_magazine_blocks().add(delta);
    }

    /// Refills an empty shelf: adopt the central free list's whole chain
    /// (the common, lock-free case), else carve fresh blocks from a slab.
    block_header* refill(unsigned cls, magazine::shelf& sh) {
        block_header* chain = depot_[cls].pop_all();
        if (chain != nullptr) {
            block_header* take = chain;
            chain = chain->next;
            const unsigned keep = mag_cap(cls);
            while (chain != nullptr && sh.count < keep) {
                block_header* b = chain;
                chain = chain->next;
                b->next = sh.top;
                sh.top = b;
                ++sh.count;
            }
            note_magazine_blocks(static_cast<std::int64_t>(sh.count));
            if (chain != nullptr) {
                block_header* last = chain;
                while (last->next != nullptr) last = last->next;
                depot_[cls].push_chain(chain, last);
            }
            note_serve(take, /*from_magazine=*/false);
            return take;
        }
        return carve(cls, sh);
    }

    /// Carves a batch of blocks out of the slab cursor (mutex-guarded; cold
    /// path). The first block is returned, the rest stock the shelf.
    block_header* carve(unsigned cls, magazine::shelf& sh) {
        const std::size_t stride = sizeof(block_header) + class_size(cls);
        block_header* first = nullptr;
        unsigned stocked = 0;
        {
            std::lock_guard lock(slab_mutex_);
            if (slab_left_ < stride) {
                slab_cursor_ = static_cast<char*>(::operator new(
                    kSlabBytes, std::align_val_t{kAlignment}));
                slab_left_ = kSlabBytes;
            }
            unsigned batch = mag_cap(cls);
            while (batch > 0 && slab_left_ >= stride) {
                auto* h = new (slab_cursor_) block_header;
                slab_cursor_ += stride;
                slab_left_ -= stride;
                h->magic = kMagicFreed;
                h->cls = cls;
                h->flags = kFlagFresh;
                h->payload = class_size(cls);
                if (first == nullptr) {
                    first = h;
                } else {
                    h->next = sh.top;
                    sh.top = h;
                    ++sh.count;
                    ++stocked;
                }
                --batch;
            }
        }
        note_magazine_blocks(stocked);
        note_serve(first, /*from_magazine=*/false);
        return first;
    }

    void unload_half(unsigned cls, magazine::shelf& sh) {
        const unsigned move = sh.count / 2;
        block_header* first = sh.top;
        block_header* last = first;
        for (unsigned i = 1; i < move; ++i) last = last->next;
        sh.top = last->next;
        sh.count -= move;
        last->next = nullptr;
        depot_[cls].push_chain(first, last);
        note_magazine_blocks(-static_cast<std::int64_t>(move));
    }

    [[nodiscard]] static block_header* os_alloc(std::size_t payload,
                                                std::uint32_t flags,
                                                unsigned cls) {
        auto* h = new (::operator new(sizeof(block_header) + payload,
                                      std::align_val_t{kAlignment}))
            block_header;
        h->magic = kMagicFreed;
        h->cls = cls;
        h->flags = flags;
        h->payload = payload;
        return h;
    }

    free_list depot_[kSmallClasses];
    free_list reuse_cache_[kLargeClasses];

    std::mutex slab_mutex_;
    char* slab_cursor_ = nullptr;
    std::size_t slab_left_ = 0;

    std::atomic<std::uint64_t> magazine_hits_{0};
    std::atomic<std::uint64_t> central_hits_{0};
    std::atomic<std::uint64_t> reuse_hits_{0};
    std::atomic<std::uint64_t> fresh_allocs_{0};
    std::atomic<std::uint64_t> recycled_bytes_{0};
    std::atomic<std::int64_t> magazine_blocks_{0};
    std::atomic<std::int64_t> reuse_cache_bytes_{0};
    std::atomic<std::int64_t> live_bytes_{0};
    std::atomic<std::int64_t> live_blocks_{0};
};

/// Leaked singleton: thread-local magazines flush into the central lists at
/// thread exit, which may run after static destructors would have torn a
/// normal static down.
central& instance() {
    static central* c = new central;  // NOLINT(cppcoreguidelines-owning-memory)
    return *c;
}

magazine::~magazine() { instance().flush(*this); }

magazine& tl_magazine() {
    thread_local magazine mag;
    return mag;
}

std::atomic<int>& backend_flag() {
    static std::atomic<int> b{0};
    return b;
}

}  // namespace

void set_backend(backend b) {
    backend_flag().store(b == backend::system ? 1 : 0,
                         std::memory_order_relaxed);
}

backend current_backend() {
    return backend_flag().load(std::memory_order_relaxed) == 1
               ? backend::system
               : backend::pooled;
}

void* allocate(std::size_t bytes) {
    central& c = instance();
    if (current_backend() == backend::system) return c.alloc_system(bytes);
    if (bytes <= kSmallMax) return c.alloc_small(bytes, tl_magazine());
    return c.alloc_large(bytes);
}

void deallocate(void* p) noexcept {
    if (p == nullptr) return;
    block_header* h = header_of(p);
    central& c = instance();
    switch (h->magic) {
        case kMagicPooled:
            if ((h->flags & kFlagLarge) != 0u)
                c.free_large(h);
            else
                c.free_small(h, tl_magazine());
            return;
        case kMagicSystem:
            c.free_system(h);
            return;
        case kMagicFreed:
            assert(false && "altis::mem: double free");
            return;
        default:
            // Foreign pointer or trampled header: freeing through either
            // path could corrupt a cache, so release builds leak the block.
            assert(false && "altis::mem: free of a pointer the pool never "
                            "allocated (header magic mismatch)");
            return;
    }
}

std::size_t usable_size(const void* p) {
    if (p == nullptr) return 0;
    const block_header* h = header_of(p);
    assert(h->magic == kMagicPooled || h->magic == kMagicSystem);
    return h->payload;
}

std::uint64_t generation_of(const void* p) {
    if (p == nullptr) return 0;
    const block_header* h = header_of(p);
    assert(h->magic == kMagicPooled || h->magic == kMagicSystem);
    return h->generation;
}

pool_stats stats() { return instance().snapshot(); }

void trim() { instance().trim(); }

void flush_thread_magazines() { instance().flush(tl_magazine()); }

}  // namespace altis::mem
