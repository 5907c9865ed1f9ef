// Seeded race corpus for the happens-before engine: every racy shape must
// surface its exact ALS-R*/ALS-D1 rule id, every ordered shape must stay
// silent, and with no session active the shadow hooks must do nothing at
// all. Racing accesses are *observed* (observe_read/observe_write) or taken
// as views (accessor::span), never performed, so the corpus itself is clean
// under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analyze/sanitize.hpp"
#include "analyze/shadow.hpp"
#include "apps/common/app.hpp"
#include "core/registry.hpp"
#include "core/result_database.hpp"
#include "metrics/instruments.hpp"
#include "metrics/session.hpp"
#include "support/fnv1a.hpp"
#include "sycl/syclite.hpp"

namespace altis::analyze {
namespace {

perf::kernel_stats named(const char* n) {
    perf::kernel_stats k;
    k.name = n;
    return k;
}

bool has_rule(const report& r, const std::string& id) {
    for (const finding& f : r.findings())
        if (f.rule == id) return true;
    return false;
}

std::string render(const report& r) {
    std::ostringstream os;
    r.render_text(os);
    return os.str();
}

// ---- ALS-R1: unordered overlapping accesses -------------------------------

TEST(Races, R1FiresOnConcurrentUnorderedWrites) {
    recorder rec;
    {
        recorder::scope scope(rec);
        syclite::queue q("xeon_6128");
        syclite::buffer<int> shared(16);
        int* p = shared.host_data();
        syclite::dataflow_guard g(q);
        // Two concurrent kernels, no pipe between them: their observed
        // writes to the same bytes have no happens-before edge either way.
        q.submit([&](syclite::handler& h) {
            auto a = h.get_access(shared, syclite::access_mode::write);
            (void)a;
            h.single_task(named("writer_a"), [p] {
                shadow::observe_write(p, 16 * sizeof(int));
            });
        });
        q.submit([&](syclite::handler& h) {
            auto a = h.get_access(shared, syclite::access_mode::write);
            (void)a;
            h.single_task(named("writer_b"), [p] {
                shadow::observe_write(p, 16 * sizeof(int));
            });
        });
        (void)g.join();
    }
    const report r = run_all(rec);
    ASSERT_TRUE(has_rule(r, "ALS-R1")) << render(r);
    for (const finding& f : r.findings()) {
        if (f.rule != "ALS-R1") continue;
        EXPECT_EQ(f.kernel, "writer_a, writer_b");
        // Labels are region-relative, never raw pointers.
        EXPECT_EQ(f.object.rfind("mem#", 0), 0u) << f.object;
    }
}

TEST(Races, R1SilentWhenAPipeOrdersTheAccesses) {
    recorder rec;
    {
        recorder::scope scope(rec);
        syclite::queue q("xeon_6128");
        syclite::buffer<int> shared(16);
        int* p = shared.host_data();
        syclite::pipe<int> ch(8, "order");
        syclite::dataflow_guard g(q);
        // Same overlap, but the consumer only touches the bytes after
        // receiving the token the producer sent *after* writing them: the
        // pipe edge orders the pair (the Fig. 3 feedback pattern).
        q.submit([&](syclite::handler& h) {
            auto a = h.get_access(shared, syclite::access_mode::write);
            (void)a;
            h.writes_pipe(ch, 1.0, 1.0);
            h.single_task(named("producer"), [p, &ch] {
                shadow::observe_write(p, 16 * sizeof(int));
                ch.write(1);
            });
        });
        q.submit([&](syclite::handler& h) {
            auto a = h.get_access(shared, syclite::access_mode::read);
            (void)a;
            h.reads_pipe(ch, 1.0, 1.0);
            h.single_task(named("consumer"), [p, &ch] {
                (void)ch.read();
                shadow::observe_read(p, 16 * sizeof(int));
            });
        });
        (void)g.join();
    }
    const report r = run_all(rec);
    EXPECT_FALSE(has_rule(r, "ALS-R1")) << render(r);
}

/// Two concurrent dataflow writers of one buffer, no pipe between them, each
/// taking the view [lo, lo+8) of its own accessor. The views are the
/// recorded accesses; nothing is written through them, so an overlapping
/// pair stays clean under TSan.
report unpiped_span_writers(std::size_t lo_a, std::size_t lo_b) {
    recorder rec;
    {
        recorder::scope scope(rec);
        syclite::queue q("xeon_6128");
        syclite::buffer<int> shared(16);
        syclite::dataflow_guard g(q);
        const std::pair<const char*, std::size_t> writers[] = {
            {"span_a", lo_a}, {"span_b", lo_b}};
        for (const auto& w : writers) {
            q.submit([&](syclite::handler& h) {
                auto a = h.get_access(shared, syclite::access_mode::write);
                h.single_task(named(w.first), [a, lo = w.second] {
                    (void)a.span(lo, 8);
                });
            });
        }
        (void)g.join();
    }
    return run_all(rec);
}

TEST(Races, R1FiresOnOverlappingSpansBeyondElementZero) {
    // [4, 12) and [8, 16) overlap on [8, 12). `&a[4]` / `&a[8]` would
    // record one element each, which are disjoint: only the views expose
    // the overlap.
    const report r = unpiped_span_writers(4, 8);
    ASSERT_TRUE(has_rule(r, "ALS-R1")) << render(r);
    for (const finding& f : r.findings()) {
        if (f.rule == "ALS-R1") {
            EXPECT_EQ(f.kernel, "span_a, span_b");
        }
    }
}

TEST(Races, R1SilentForDisjointSpansOfOneBuffer) {
    // Both kernels declare the whole buffer but touch disjoint halves: no
    // finding, although the declared ranges overlap.
    const report r = unpiped_span_writers(0, 8);
    EXPECT_TRUE(r.empty()) << render(r);
}

TEST(Races, R1SilentAcrossSequentialSubmissions) {
    // Plain: real element writes through the accessor, same bytes. Piped:
    // the first kernel publishes a token before writing, and the second
    // reads it before reading -- the pipe ticks of the first kernel must not
    // hide its later write from the in-order edge.
    for (const bool piped : {false, true}) {
        recorder rec;
        {
            recorder::scope scope(rec);
            syclite::queue q("xeon_6128");
            syclite::buffer<int> buf(16);
            syclite::pipe<int> ch(8, "seq_token");
            q.submit([&](syclite::handler& h) {
                auto a = h.get_access(buf, syclite::access_mode::read_write);
                if (piped) h.writes_pipe(ch, 1.0, 1.0);
                h.single_task(named("seq_producer"), [a, &ch, piped] {
                    if (piped) ch.write(1);
                    for (std::size_t i = 0; i < 16; ++i) a[i] = 1;
                });
            });
            q.submit([&](syclite::handler& h) {
                auto a = h.get_access(buf, syclite::access_mode::read_write);
                if (piped) h.reads_pipe(ch, 1.0, 1.0);
                h.single_task(named("seq_consumer"), [a, &ch, piped] {
                    if (piped) (void)ch.read();
                    for (std::size_t i = 0; i < 16; ++i) a[i] = a[i] + 1;
                });
            });
            q.wait();
        }
        // An in-order queue orders each submission after everything the
        // previous one did.
        const report r = run_all(rec);
        EXPECT_FALSE(has_rule(r, "ALS-R1"))
            << "piped=" << piped << "\n" << render(r);
        EXPECT_FALSE(has_rule(r, "ALS-D1"))
            << "piped=" << piped << "\n" << render(r);
    }
}

TEST(Races, R1FiresOnHostCopyRacingADeviceWrite) {
    recorder rec;
    std::vector<int> host(16, 0);
    {
        recorder::scope scope(rec);
        syclite::queue q("xeon_6128");
        syclite::buffer<int> buf(16);
        q.submit([&](syclite::handler& h) {
            auto a = h.get_access(buf, syclite::access_mode::write);
            h.single_task(named("dirtier"), [a] {
                for (std::size_t i = 0; i < 16; ++i) a[i] = 7;
            });
        });
        q.copy_from_device(buf, host.data());  // missing q.wait()
    }
    EXPECT_TRUE(has_rule(run_all(rec), "ALS-R1"));
}

TEST(Races, R1SilentWhenTheHostWaitsBeforeCopying) {
    // Piped: the kernel writes a pipe item before the buffer, so the buffer
    // write happens after the kernel's clock ticked past its start.
    for (const bool piped : {false, true}) {
        recorder rec;
        std::vector<int> host(16, 0);
        {
            recorder::scope scope(rec);
            syclite::queue q("xeon_6128");
            syclite::buffer<int> buf(16);
            syclite::pipe<int> ch(8, "wait_token");
            q.submit([&](syclite::handler& h) {
                auto a = h.get_access(buf, syclite::access_mode::write);
                if (piped) h.writes_pipe(ch, 1.0, 1.0);
                h.single_task(named("dirtier"), [a, &ch, piped] {
                    if (piped) ch.write(1);
                    for (std::size_t i = 0; i < 16; ++i) a[i] = 7;
                });
            });
            q.wait();
            q.copy_from_device(buf, host.data());
        }
        const report r = run_all(rec);
        EXPECT_FALSE(has_rule(r, "ALS-R1"))
            << "piped=" << piped << "\n" << render(r);
    }
}

TEST(Races, R1SilentAfterADataflowGroupJoin) {
    recorder rec;
    std::vector<int> host(16, 0);
    {
        recorder::scope scope(rec);
        syclite::queue q("xeon_6128");
        syclite::buffer<int> buf(16);
        {
            syclite::dataflow_guard g(q);
            q.submit([&](syclite::handler& h) {
                auto a = h.get_access(buf, syclite::access_mode::write);
                h.single_task(named("grouped"), [a] {
                    for (std::size_t i = 0; i < 16; ++i) a[i] = 3;
                });
            });
            (void)g.join();
        }
        // end_dataflow() joined the worker thread: no wait() needed.
        q.copy_from_device(buf, host.data());
    }
    const report r = run_all(rec);
    EXPECT_FALSE(has_rule(r, "ALS-R1")) << render(r);
}

// ---- ALS-R2: round-skewed pipe receives -----------------------------------

void run_skew(recorder& rec, std::size_t first_burst, std::size_t second_burst) {
    recorder::scope scope(rec);
    syclite::queue q("xeon_6128");
    syclite::pipe<int> ch(8, "skew");
    // The consumer starts reading only once both rounds are in the pipe, so
    // each read_burst drains its whole span in one receive: which receives
    // straddle a round boundary does not depend on how the two kernel
    // threads happen to interleave.
    std::atomic<bool> produced{false};
    syclite::dataflow_guard g(q);
    q.submit([&](syclite::handler& h) {
        h.writes_pipe(ch, 4.0, 2.0);  // 4 items per round, 2 rounds
        h.single_task(named("skew_producer"), [&ch, &produced] {
            const int items[8] = {0, 1, 2, 3, 4, 5, 6, 7};
            ch.write_burst(items, 4);
            ch.write_burst(items + 4, 4);
            produced.store(true, std::memory_order_release);
        });
    });
    q.submit([&](syclite::handler& h) {
        h.reads_pipe(ch, 4.0, 2.0);
        h.single_task(named("skew_consumer"), [&ch, &produced, first_burst,
                                               second_burst] {
            while (!produced.load(std::memory_order_acquire))
                std::this_thread::yield();
            int sink[8] = {};
            ch.read_burst(sink, first_burst);
            ch.read_burst(sink, second_burst);
        });
    });
    (void)g.join();
}

TEST(Races, R2FiresOnARoundStraddlingReceive) {
    recorder rec;
    // Reads of 3 then 5: the second receive covers items [3, 8), mixing the
    // tail of round 0 with all of round 1.
    run_skew(rec, 3, 5);
    const report r = run_all(rec);
    ASSERT_TRUE(has_rule(r, "ALS-R2")) << render(r);
    for (const finding& f : r.findings()) {
        if (f.rule != "ALS-R2") continue;
        EXPECT_EQ(f.kernel, "skew_consumer");
        EXPECT_EQ(f.object, "skew");
    }
}

TEST(Races, R2SilentWhenBurstsAlignWithRounds) {
    recorder rec;
    run_skew(rec, 4, 4);
    const report r = run_all(rec);
    EXPECT_FALSE(has_rule(r, "ALS-R2")) << render(r);
}

// ---- ALS-D1: declaration drift --------------------------------------------

TEST(Races, D1FiresOnAnAccessOutsideEveryDeclaredRange) {
    static int undeclared[16];
    recorder rec;
    {
        recorder::scope scope(rec);
        syclite::queue q("xeon_6128");
        syclite::buffer<int> buf(16);
        q.submit([&](syclite::handler& h) {
            auto a = h.get_access(buf, syclite::access_mode::write);
            h.single_task(named("drifter"), [a] {
                a[0] = 1;  // declared: fine
                shadow::observe_write(undeclared, sizeof(undeclared));
            });
        });
        q.wait();
    }
    const report r = run_all(rec);
    ASSERT_TRUE(has_rule(r, "ALS-D1")) << render(r);
    for (const finding& f : r.findings()) {
        if (f.rule == "ALS-D1") {
            EXPECT_EQ(f.kernel, "drifter");
        }
    }
}

TEST(Races, D1FiresOnAViewBeyondTheAccessorRange) {
    recorder rec;
    {
        recorder::scope scope(rec);
        syclite::queue q("xeon_6128");
        syclite::buffer<int> buf(16);
        q.submit([&](syclite::handler& h) {
            auto a = h.get_access(buf, syclite::access_mode::read);
            // span() does not check bounds, as operator[] does not; the
            // recorded view [16, 24) lies past the declared 16 elements.
            h.single_task(named("overreader"), [a] { (void)a.span(16, 8); });
        });
        q.wait();
    }
    const report r = run_all(rec);
    ASSERT_TRUE(has_rule(r, "ALS-D1")) << render(r);
    for (const finding& f : r.findings()) {
        if (f.rule == "ALS-D1") {
            EXPECT_EQ(f.kernel, "overreader");
        }
    }
}

TEST(Races, D1SilentWhenUsmIsDeclared) {
    recorder rec;
    {
        recorder::scope scope(rec);
        syclite::queue q("xeon_6128");
        int* p = syclite::malloc_shared<int>(16, q);
        ASSERT_NE(p, nullptr);
        q.submit([&](syclite::handler& h) {
            h.uses_usm(p, 16 * sizeof(int), syclite::access_mode::read_write);
            h.single_task(named("usm_user"), [p] {
                shadow::observe_write(p, 16 * sizeof(int));
            });
        });
        q.wait();
        syclite::usm_free(p, q);
    }
    const report r = run_all(rec);
    EXPECT_FALSE(has_rule(r, "ALS-D1")) << render(r);
}

// ---- Fig. 3: the kmeans center-feedback cycle is proven safe --------------

TEST(Races, KmeansDataflowFeedbackIsRaceFree) {
    apps::register_all_apps();
    const AppInfo* app = Registry::instance().find("kmeans");
    ASSERT_NE(app, nullptr);
    RunConfig cfg;
    cfg.size = 1;
    cfg.passes = 1;
    cfg.variant = Variant::fpga_opt;
    cfg.device = "stratix_10";
    recorder rec;
    {
        recorder::scope scope(rec);
        ResultDatabase db;
        ASSERT_NO_THROW(app->run(cfg, db));
    }
    // mapCenters reads the centers buffer that resetAccFin rewrites each
    // iteration; the pipe edges order every such pair (paper Fig. 3), and
    // the engine must prove it rather than assume it.
    const report r = run_all(rec);
    EXPECT_TRUE(r.empty()) << render(r);
    // The proof rests on observed accesses actually being captured.
    EXPECT_GT(rec.shadow().interval_count(), 0u);
}

// ---- zero-overhead contract -----------------------------------------------

TEST(Races, ShadowHooksAreInertWithoutASession) {
    ASSERT_EQ(recorder::current(), nullptr);
    EXPECT_FALSE(shadow::tracking());
    const std::uint64_t before =
        shadow::detail::g_intervals_flushed.load(std::memory_order_relaxed);
    syclite::queue q("xeon_6128");
    syclite::buffer<int> buf(256);
    q.submit([&](syclite::handler& h) {
        auto a = h.get_access(buf, syclite::access_mode::read_write);
        h.single_task(named("untracked"), [a] {
            for (std::size_t i = 0; i < 256; ++i) a[i] = static_cast<int>(i);
            shadow::observe_write(a.span(0, 256).data(), 256 * sizeof(int));
        });
    });
    q.wait();
    // No session: not one interval may have been logged anywhere, no matter
    // how many accessor elements were dereferenced.
    EXPECT_EQ(shadow::detail::g_intervals_flushed.load(
                  std::memory_order_relaxed),
              before);
}

// ---- ALS-R1 under the out-of-order graph scheduler ------------------------

TEST(Races, R1FiresWhenDeclaredDisjointOooKernelsOverlapInPractice) {
    recorder rec;
    {
        recorder::scope scope(rec);
        syclite::queue q("xeon_6128",
                         syclite::queue_property::out_of_order);
        int* p = syclite::malloc_shared<int>(32, q);
        ASSERT_NE(p, nullptr);
        // Each kernel *declares* its own half -- no implied edge, so the
        // graph runs them unordered -- but both *observe* writes to the
        // full range: a lying declaration the happens-before engine must
        // catch precisely because it derives HB from graph edges, not
        // submission order.
        q.submit([&](syclite::handler& h) {
            h.uses_usm(p, 16 * sizeof(int), syclite::access_mode::write);
            h.single_task(named("half_lo"), [p] {
                shadow::observe_write(p, 32 * sizeof(int));
            });
        });
        q.submit([&](syclite::handler& h) {
            h.uses_usm(p + 16, 16 * sizeof(int), syclite::access_mode::write);
            h.single_task(named("half_hi"), [p] {
                shadow::observe_write(p, 32 * sizeof(int));
            });
        });
        q.wait();
        syclite::usm_free(p, q);
    }
    const report r = run_all(rec);
    EXPECT_TRUE(has_rule(r, "ALS-R1")) << render(r);
}

TEST(Races, R1SilentWhenAGraphEdgeOrdersTheOooKernels) {
    recorder rec;
    {
        recorder::scope scope(rec);
        syclite::queue q("xeon_6128",
                         syclite::queue_property::out_of_order);
        int* p = syclite::malloc_shared<int>(32, q);
        ASSERT_NE(p, nullptr);
        // Same lying declarations, but an explicit depends_on edge orders
        // the pair: HB derived from the graph covers the overlap.
        syclite::event first = q.submit([&](syclite::handler& h) {
            h.uses_usm(p, 16 * sizeof(int), syclite::access_mode::write);
            h.single_task(named("half_lo"), [p] {
                shadow::observe_write(p, 32 * sizeof(int));
            });
        });
        q.submit([&](syclite::handler& h) {
            h.depends_on(first);
            h.uses_usm(p + 16, 16 * sizeof(int), syclite::access_mode::write);
            h.single_task(named("half_hi"), [p] {
                shadow::observe_write(p, 32 * sizeof(int));
            });
        });
        q.wait();
        syclite::usm_free(p, q);
    }
    const report r = run_all(rec);
    EXPECT_FALSE(has_rule(r, "ALS-R1")) << render(r);
}

TEST(Races, R1SilentForImpliedAccessorEdgesOnAnOooQueue) {
    recorder rec;
    {
        recorder::scope scope(rec);
        syclite::queue q("xeon_6128",
                         syclite::queue_property::out_of_order);
        syclite::buffer<int> buf(16);
        for (int k = 0; k < 2; ++k) {
            q.submit([&](syclite::handler& h) {
                auto a =
                    h.get_access(buf, syclite::access_mode::read_write);
                h.single_task(named(k == 0 ? "first" : "second"), [a] {
                    for (std::size_t i = 0; i < 16; ++i) a[i] = 1;
                });
            });
        }
        q.wait();
    }
    // The declared read_write ranges conflict, so the scheduler inserted a
    // WAW edge -- the same real element writes that are ordered by queue
    // chaining in the in-order variant of this test are ordered by the
    // graph here.
    const report r = run_all(rec);
    EXPECT_FALSE(has_rule(r, "ALS-R1")) << render(r);
    EXPECT_FALSE(has_rule(r, "ALS-D1")) << render(r);
}

// ---- determinism ----------------------------------------------------------

TEST(Races, FindingsAndJsonAreByteStableAcrossRuns) {
    std::string first;
    for (int run = 0; run < 2; ++run) {
        recorder rec;
        run_skew(rec, 3, 5);
        const report r = run_all(rec);
        std::ostringstream os;
        r.render_json(os);
        if (run == 0) {
            first = os.str();
            EXPECT_NE(first.find("ALS-R2"), std::string::npos);
        } else {
            EXPECT_EQ(first, os.str());
        }
    }
}

// ---- pinned race-engine output --------------------------------------------

/// The canonical interval set, one line per interval: region-relative
/// label, actor name, mode. A wild range's raw-pointer label is reduced to
/// its length, and the lines are sorted, so the rendering depends neither on
/// ASLR nor on where the allocator placed each region.
std::string render_intervals(const shadow::store& s,
                             const std::vector<shadow::interval>& ivs) {
    std::vector<std::string> lines;
    lines.reserve(ivs.size());
    for (const shadow::interval& iv : ivs) {
        std::string label = s.label_range(iv.lo, iv.hi);
        if (label.rfind("mem#", 0) != 0)
            label = "wild+" + std::to_string(iv.hi - iv.lo) + "B";
        lines.push_back(label + ' ' + s.actor_name(iv.actor) + ' ' +
                        (iv.write ? "write" : "read") + '\n');
    }
    std::sort(lines.begin(), lines.end());
    std::string out;
    for (const std::string& line : lines) out += line;
    return out;
}

TEST(Races, CanonicalIntervalSetAndCheckCountArePinned) {
    apps::register_all_apps();
    metrics::session msession("race_pin", metrics::session::config{0.0});
    recorder rec;
    {
        recorder::scope scope(rec);
        for (const char* name : {"fdtd2d", "kmeans", "where"}) {
            const AppInfo* app = Registry::instance().find(name);
            ASSERT_NE(app, nullptr) << name;
            RunConfig cfg;
            cfg.size = 1;
            cfg.passes = 1;
            cfg.variant = Variant::sycl_opt;
            cfg.device = "xeon_6128";
            ResultDatabase db;
            ASSERT_NO_THROW(app->run(cfg, db)) << name;
        }
        // The seeded ALS-R1 shape: two unordered dataflow writers.
        syclite::queue q("xeon_6128");
        syclite::buffer<int> shared(16);
        int* p = shared.host_data();
        {
            syclite::dataflow_guard g(q);
            for (const char* writer : {"pin_writer_a", "pin_writer_b"}) {
                q.submit([&](syclite::handler& h) {
                    auto a = h.get_access(shared, syclite::access_mode::write);
                    (void)a;
                    h.single_task(named(writer), [p] {
                        shadow::observe_write(p, 16 * sizeof(int));
                    });
                });
            }
            (void)g.join();
        }
        // The seeded ALS-D1 shape: a write outside every declared range.
        static int undeclared[16];
        syclite::buffer<int> buf(16);
        q.submit([&](syclite::handler& h) {
            auto a = h.get_access(buf, syclite::access_mode::write);
            h.single_task(named("pin_drifter"), [a] {
                a[0] = 1;
                shadow::observe_write(undeclared, sizeof(undeclared));
            });
        });
        q.wait();
    }
    const report r = run_all(rec);
    EXPECT_TRUE(has_rule(r, "ALS-R1")) << render(r);
    EXPECT_TRUE(has_rule(r, "ALS-D1")) << render(r);
    const std::vector<shadow::interval> ivs = rec.shadow().merged_intervals();
    const std::string text = render_intervals(rec.shadow(), ivs);
    EXPECT_EQ(ivs.size(), 426838u);
    EXPECT_EQ(support::fnv1a(std::span<const char>(text)),
              1947443977176107454ULL);
    EXPECT_EQ(metrics::instruments::sanitize_race_checks().value(),
              7597363u);
}

// ---- capture-time coalescing ---------------------------------------------

TEST(Races, PooledSweepStoresOneIntervalPerAccessorAndMode) {
    constexpr std::size_t n = std::size_t{1} << 20;
    recorder rec;
    {
        recorder::scope scope(rec);
        syclite::queue q("xeon_6128");
        syclite::buffer<int> in(n);
        syclite::buffer<int> out(n);
        q.submit([&](syclite::handler& h) {
            auto src = h.get_access(in, syclite::access_mode::read);
            auto dst = h.get_access(out, syclite::access_mode::write);
            h.parallel_for(
                syclite::nd_range<1>(syclite::range<1>(n),
                                     syclite::range<1>(256)),
                named("sweep"), [=](syclite::nd_item<1> it) {
                    const std::size_t i = it.get_global_id(0);
                    dst[i] = src[i];
                });
        });
        q.wait();
    }
    rec.shadow().finalize();
    // However the global pool chunked the sweep, each worker's pieces join
    // its thread-local union and the store's per-stamp union: one read of
    // `in`, one write of `out`.
    EXPECT_EQ(rec.shadow().interval_count(), 2u);
    const std::vector<shadow::interval> ivs = rec.shadow().merged_intervals();
    ASSERT_EQ(ivs.size(), 2u);
    EXPECT_NE(ivs[0].write, ivs[1].write);
    for (const shadow::interval& iv : ivs) {
        EXPECT_EQ(iv.hi - iv.lo, n * sizeof(int));
        EXPECT_EQ(rec.shadow().actor_name(iv.actor), "sweep");
    }
    const report r = run_all(rec);
    EXPECT_TRUE(r.empty()) << render(r);
}

TEST(Races, InterleavedStreamsIntoOneBufferStoreTwoIntervals) {
    // A stencil's two reads of one buffer, a[i] and a[i + gap], interleave:
    // each stream keeps its own run, and both reach the store exactly.
    constexpr std::size_t n = 256;
    constexpr std::size_t gap = 512;
    recorder rec;
    {
        recorder::scope scope(rec);
        syclite::queue q("xeon_6128");
        syclite::buffer<int> in(gap + n);
        q.submit([&](syclite::handler& h) {
            auto a = h.get_access(in, syclite::access_mode::read);
            h.single_task(named("two_streams"), [a] {
                for (std::size_t i = 0; i < n; ++i) {
                    (void)a[i];
                    (void)a[i + gap];
                }
            });
        });
        q.wait();
    }
    rec.shadow().finalize();
    const std::vector<shadow::interval> ivs = rec.shadow().merged_intervals();
    ASSERT_EQ(ivs.size(), 2u);
    EXPECT_EQ(ivs[0].hi - ivs[0].lo, n * sizeof(int));
    EXPECT_EQ(ivs[1].hi - ivs[1].lo, n * sizeof(int));
    EXPECT_EQ(ivs[1].lo - ivs[0].lo, gap * sizeof(int));
    for (const shadow::interval& iv : ivs) {
        EXPECT_FALSE(iv.write);
        EXPECT_EQ(rec.shadow().actor_name(iv.actor), "two_streams");
    }
}

}  // namespace
}  // namespace altis::analyze
