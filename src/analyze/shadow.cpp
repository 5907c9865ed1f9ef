#include "analyze/shadow.hpp"

#include <algorithm>
#include <array>
#include <sstream>
#include <tuple>
#include <unordered_set>

#include "metrics/instruments.hpp"

namespace altis::analyze::shadow {

namespace detail {

namespace {

/// One open coalescing run: an access stream by one actor into one base
/// pointer, still growing. lo/hi are absolute byte addresses.
struct run {
    const void* base = nullptr;
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    int actor = kNoActor;
    bool write = false;
    bool open = false;
};

bool by_lo(const byte_range& a, const byte_range& b) { return a.lo < b.lo; }

/// Merges overlapping and adjacent ranges of `r` from index `from` on;
/// r must be sorted by lo, with r[0, from] already merged.
void coalesce(std::vector<byte_range>& r, std::size_t from) {
    if (r.size() <= from + 1) return;
    std::size_t last = from;
    for (std::size_t i = from + 1; i < r.size(); ++i) {
        if (r[i].lo <= r[last].hi) {
            r[last].hi = std::max(r[last].hi, r[i].hi);
        } else {
            r[++last] = r[i];
        }
    }
    r.resize(last + 1);
}

/// Exact union of one thread's closed runs for one (actor, mode). Appends
/// (or extends the last range in place); sorting and merging is deferred
/// until the vector has doubled since it was last normalized, so memory
/// stays within twice the union and inserts stay amortized O(log n).
class range_union {
public:
    void add(std::uint64_t lo, std::uint64_t hi) {
        if (lo >= hi) return;
        if (!r_.empty()) {
            byte_range& b = r_.back();
            if (lo <= b.hi && hi >= b.lo) {
                b.lo = std::min(b.lo, lo);
                b.hi = std::max(b.hi, hi);
                return;
            }
        }
        r_.push_back({lo, hi});
        if (r_.size() >= 2 * normalized_ + 64) normalize();
    }

    /// Sorted, disjoint, non-adjacent ranges.
    [[nodiscard]] std::span<const byte_range> normalized() {
        normalize();
        return r_;
    }

private:
    void normalize() {
        std::sort(r_.begin(), r_.end(), by_lo);
        coalesce(r_, 0);
        normalized_ = r_.size();
    }

    std::vector<byte_range> r_;
    std::size_t normalized_ = 0;
};

/// Closed runs of one (actor, mode) waiting for the next flush.
struct pending {
    int actor = kNoActor;
    bool write = false;
    range_union ranges;
};

}  // namespace

/// Per-thread run table plus the unions its closed runs join. Kernels
/// typically alternate between a handful of accessors, so a small
/// direct-mapped table with round-robin eviction keeps the hot path to a
/// linear scan of 6 entries.
struct thread_runs {
    store* owner = nullptr;
    std::array<run, 6> runs{};
    unsigned next_evict = 0;
    std::vector<pending> unions;  ///< few: one per (actor, mode) since flush
};

namespace {

/// Registry of every thread's run table, so store::finalize() can close
/// runs left open by threads that are parked (not dead) when the session
/// ends. Reading another thread's table from finalize() is ordered by
/// construction: finalize only runs after every kernel of the session
/// completed, and kernel completion synchronizes with the host through the
/// pool's job-drain mutex (or the dataflow thread join).
std::mutex g_reg_mu;  // NOLINT(cppcoreguidelines-avoid-non-const-global-variables)
std::vector<thread_runs*> g_registry;  // NOLINT(cppcoreguidelines-avoid-non-const-global-variables)
std::unordered_set<store*> g_live_stores;  // NOLINT(cppcoreguidelines-avoid-non-const-global-variables)

/// Owns the thread's run table and deregisters it when the thread dies
/// (flushing anything that still belongs to a live store).
struct tls_holder {
    thread_runs tr;
    tls_holder() {
        std::lock_guard lock(g_reg_mu);
        g_registry.push_back(&tr);
    }
    ~tls_holder();
};

thread_local tls_holder t_storage;  // NOLINT(cppcoreguidelines-avoid-non-const-global-variables)

/// Moves a closed run into its (actor, mode) union; no lock.
void close_run(thread_runs& tr, const run& r) {
    for (pending& p : tr.unions) {
        if (p.actor != r.actor || p.write != r.write) continue;
        p.ranges.add(r.lo, r.hi);
        return;
    }
    tr.unions.push_back({r.actor, r.write, {}});
    tr.unions.back().ranges.add(r.lo, r.hi);
}

}  // namespace

}  // namespace detail

// ---- store ----------------------------------------------------------------

store::store() {
    actor_clock_.emplace_back();  // actor 0: the host
    actor_clock_[0].tick(kHostActor);
    clock_id_.push_back(-1);
    actor_name_.emplace_back("host");
    {
        std::lock_guard lock(detail::g_reg_mu);
        detail::g_live_stores.insert(this);
    }
}

store::~store() {
    finalize();
    std::lock_guard lock(detail::g_reg_mu);
    detail::g_live_stores.erase(this);
}

int store::new_actor() {
    std::lock_guard lock(mu_);
    const int actor = static_cast<int>(actor_clock_.size());
    actor_clock_.emplace_back();
    clock_id_.push_back(-1);
    actor_name_.emplace_back("kernel #" + std::to_string(actor));
    return actor;
}

void store::name_actor(int actor, const std::string& kernel) {
    std::lock_guard lock(mu_);
    if (actor > 0 && actor < static_cast<int>(actor_name_.size()))
        actor_name_[actor] = kernel;
}

std::uint32_t store::intern_locked(int actor) {
    if (clock_id_[actor] >= 0) return static_cast<std::uint32_t>(clock_id_[actor]);
    clocks_.push_back(actor_clock_[actor]);
    clock_id_[actor] = static_cast<int>(clocks_.size()) - 1;
    return static_cast<std::uint32_t>(clock_id_[actor]);
}

void store::add_locked(int actor, bool write,
                       std::span<const byte_range> ranges) {
    if (ranges.empty() || actor < 0 ||
        actor >= static_cast<int>(actor_clock_.size()))
        return;
    std::vector<byte_range>& u = unions_[{actor, write, intern_locked(actor)}];
    const std::size_t mid = u.size();
    u.insert(u.end(), ranges.begin(), ranges.end());
    std::size_t from = mid > 0 ? mid - 1 : 0;
    if (mid > 0 && u[mid].lo < u[mid - 1].lo) {
        std::inplace_merge(u.begin(),
                           u.begin() + static_cast<std::ptrdiff_t>(mid),
                           u.end(), detail::by_lo);
        from = 0;
    }
    detail::coalesce(u, from);
    detail::g_intervals_flushed.fetch_add(ranges.size(),
                                          std::memory_order_relaxed);
    if (altis::metrics::collecting())
        altis::metrics::instruments::sanitize_shadow_intervals().add(
            ranges.size());
}

namespace detail {

/// Closes every open run of `tr` that belongs to `s` into the thread's
/// unions, then merges the unions into the store under one lock. Caller
/// guarantees the table is quiescent (same thread, or the session-teardown
/// ordering above).
void flush_table(thread_runs& tr, store* s) {
    if (tr.owner != s) return;
    for (run& r : tr.runs) {
        if (!r.open) continue;
        close_run(tr, r);
        r.open = false;
    }
    if (tr.unions.empty()) return;
    {
        std::lock_guard lock(s->mu_);
        for (pending& p : tr.unions)
            s->add_locked(p.actor, p.write, p.ranges.normalized());
    }
    tr.unions.clear();
}

/// Flushes the calling thread for `s` -- the prelude to every clock event
/// and the end of every pool job, preserving the "accesses flush under the
/// clock they ran under" invariant (header comment).
void flush_thread(store* s) { flush_table(t_storage.tr, s); }

tls_holder::~tls_holder() {  // NOLINT(modernize-use-equals-default)
    std::lock_guard lock(g_reg_mu);
    if (tr.owner != nullptr && g_live_stores.count(tr.owner) > 0)
        flush_table(tr, tr.owner);
    g_registry.erase(std::remove(g_registry.begin(), g_registry.end(), &tr),
                     g_registry.end());
}

void record(store* s, const void* base, std::size_t off, std::size_t len,
            bool write) {
    thread_runs& tr = t_storage.tr;
    if (tr.owner != s) {
        // First touch under a (possibly new) session: settle any runs still
        // owned by a previous store, then adopt the current one.
        std::lock_guard lock(g_reg_mu);
        if (tr.owner != nullptr && g_live_stores.count(tr.owner) > 0)
            flush_table(tr, tr.owner);
        for (run& r : tr.runs) r.open = false;
        tr.unions.clear();
        tr.owner = s;
    }
    const int actor = tl_actor;
    const auto b = reinterpret_cast<std::uint64_t>(base);
    const std::uint64_t lo = b + off;
    const std::uint64_t hi = lo + len;
    // Extend any open run of this (base, actor, mode) that the access
    // touches; a disjoint access opens a run of its own, so streams at two
    // offsets of one buffer (a stencil's idx and idx - ny) each keep a run.
    for (run& r : tr.runs) {
        if (!r.open || r.base != base || r.write != write || r.actor != actor)
            continue;
        if (lo <= r.hi && hi >= r.lo) {  // overlaps, extends or is covered
            r.lo = std::min(r.lo, lo);
            r.hi = std::max(r.hi, hi);
            return;
        }
    }
    for (run& r : tr.runs) {
        if (r.open) continue;
        r = {base, lo, hi, actor, write, true};
        return;
    }
    run& victim = tr.runs[tr.next_evict++ % tr.runs.size()];
    close_run(tr, victim);
    victim = {base, lo, hi, actor, write, true};
}

void set_current_store(store* s) {
    g_store.store(s, std::memory_order_release);
}

}  // namespace detail

void store::start(int actor, std::span<const int> after) {
    detail::flush_thread(this);
    std::lock_guard lock(mu_);
    if (actor <= 0 || actor >= static_cast<int>(actor_clock_.size())) return;
    vector_clock& k = actor_clock_[actor];
    k.join(actor_clock_[kHostActor]);  // host clock *before* its tick
    // Every command in `after` completes before this one runs, so what it
    // did -- even what it has not flushed yet, stamped with a clock no newer
    // than read here -- happens-before this command.
    for (const int a : after)
        if (a > 0 && a < static_cast<int>(actor_clock_.size()))
            k.join(actor_clock_[a]);
    k.tick(static_cast<std::size_t>(actor));
    dirty_locked(actor);
    actor_clock_[kHostActor].tick(kHostActor);
    dirty_locked(kHostActor);
}

void store::join_host(std::span<const int> actors) {
    detail::flush_thread(this);
    std::lock_guard lock(mu_);
    for (const int a : actors)
        if (a > 0 && a < static_cast<int>(actor_clock_.size()))
            actor_clock_[kHostActor].join(actor_clock_[a]);
    actor_clock_[kHostActor].tick(kHostActor);
    dirty_locked(kHostActor);
}

void store::on_transfer(int actor, const void* base, std::size_t bytes,
                        bool write) {
    detail::flush_thread(this);
    std::lock_guard lock(mu_);
    const auto lo = reinterpret_cast<std::uint64_t>(base);
    const byte_range r{lo, lo + bytes};
    if (r.lo < r.hi) add_locked(actor, write, {&r, 1});
}

void store::register_region(const void* base, std::size_t bytes) {
    if (bytes == 0) return;
    std::lock_guard lock(mu_);
    const auto lo = reinterpret_cast<std::uint64_t>(base);
    for (region& r : regions_) {
        if (r.lo != lo) continue;
        r.hi = std::max(r.hi, lo + bytes);
        return;
    }
    regions_.push_back({lo, lo + bytes, static_cast<int>(regions_.size())});
}

void store::finalize() {
    std::lock_guard reg_lock(detail::g_reg_mu);
    if (detail::g_live_stores.count(this) == 0) return;
    for (detail::thread_runs* tr : detail::g_registry)
        detail::flush_table(*tr, this);
    std::lock_guard lock(mu_);
    finalized_ = true;
}

// ---- pipe hooks -----------------------------------------------------------

void on_pipe_publish(const void* pipe, const char* name, std::uint64_t from,
                     std::uint64_t to) {
    store* s = detail::g_store.load(std::memory_order_acquire);
    if (s == nullptr || to <= from) return;
    detail::flush_thread(s);
    const int actor = detail::tl_actor;
    std::lock_guard lock(s->mu_);
    if (actor < 0 || actor >= static_cast<int>(s->actor_clock_.size())) return;
    pipe_log& log = s->pipes_[pipe];
    if (log.name.empty()) log.name = name;
    log.producer = actor;
    // Snapshot first (covers everything produced so far), then tick so the
    // producer's next accesses are distinguishable from this publication.
    log.pubs.push_back({to, s->intern_locked(actor)});
    s->actor_clock_[actor].tick(static_cast<std::size_t>(actor));
    s->dirty_locked(actor);
}

void on_pipe_consume(const void* pipe, const char* name, std::uint64_t from,
                     std::uint64_t to) {
    store* s = detail::g_store.load(std::memory_order_acquire);
    if (s == nullptr || to <= from) return;
    detail::flush_thread(s);
    const int actor = detail::tl_actor;
    std::lock_guard lock(s->mu_);
    if (actor < 0 || actor >= static_cast<int>(s->actor_clock_.size())) return;
    pipe_log& log = s->pipes_[pipe];
    if (log.name.empty()) log.name = name;
    log.consumer = actor;
    log.recvs.push_back({from, to});
    // Join the earliest publication covering the last consumed item:
    // producer clocks are monotone, so that one snapshot dominates every
    // earlier publication this receive also drew from.
    const pipe_pub* covering = nullptr;
    for (const pipe_pub& p : log.pubs) {
        if (p.upto >= to) {
            covering = &p;
            break;
        }
    }
    if (covering == nullptr && !log.pubs.empty()) covering = &log.pubs.back();
    if (covering != nullptr) {
        s->actor_clock_[actor].join(s->clocks_[covering->clock]);
        // Fully consumed publications can never be the covering snapshot of
        // a later receive; drop them to bound memory on long streams.
        while (!log.pubs.empty() && log.pubs.front().upto <= to)
            log.pubs.pop_front();
    }
    s->actor_clock_[actor].tick(static_cast<std::size_t>(actor));
    s->dirty_locked(actor);
}

// ---- analysis-side --------------------------------------------------------

std::vector<interval> store::merged_intervals() const {
    std::lock_guard lock(mu_);
    // k-way merge over the per-stamp unions, each already sorted by lo.
    struct cursor {
        const byte_range* at;
        const byte_range* end;
        const stamp* key;
    };
    std::vector<cursor> heap;
    std::size_t total = 0;
    for (const auto& [key, ranges] : unions_) {
        if (ranges.empty()) continue;
        heap.push_back({ranges.data(), ranges.data() + ranges.size(), &key});
        total += ranges.size();
    }
    const auto later = [](const cursor& a, const cursor& b) {
        return std::tie(a.at->lo, a.at->hi, a.key->actor, a.key->write,
                        a.key->clock) > std::tie(b.at->lo, b.at->hi,
                                                 b.key->actor, b.key->write,
                                                 b.key->clock);
    };
    std::make_heap(heap.begin(), heap.end(), later);
    std::vector<interval> out;
    out.reserve(total);
    while (!heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), later);
        cursor& c = heap.back();
        out.push_back({c.at->lo, c.at->hi, c.key->actor, c.key->write,
                       c.key->clock});
        if (++c.at == c.end)
            heap.pop_back();
        else
            std::push_heap(heap.begin(), heap.end(), later);
    }
    return out;
}

const std::string& store::actor_name(int actor) const {
    std::lock_guard lock(mu_);
    static const std::string unknown = "?";
    if (actor < 0 || actor >= static_cast<int>(actor_name_.size()))
        return unknown;
    return actor_name_[actor];
}

std::string store::label_range(std::uint64_t lo, std::uint64_t hi) const {
    std::lock_guard lock(mu_);
    for (const region& r : regions_) {
        if (lo < r.lo || lo >= r.hi) continue;
        return "mem#" + std::to_string(r.ordinal) + "[" +
               std::to_string(lo - r.lo) + ".." + std::to_string(hi - r.lo) +
               ")";
    }
    std::ostringstream os;  // wild range: raw (run-dependent) fallback
    os << "0x" << std::hex << lo << "+" << std::dec << (hi - lo) << "B";
    return os.str();
}

std::size_t store::interval_count() const {
    std::lock_guard lock(mu_);
    std::size_t n = 0;
    for (const auto& [key, ranges] : unions_) n += ranges.size();
    return n;
}

}  // namespace altis::analyze::shadow
