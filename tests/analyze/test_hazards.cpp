// Seeded hazard corpus: each known-bad shape must surface its exact rule id,
// and the matching clean shape must not. The functional cases drive real
// syclite queues under a recorder -- the same capture path `--sanitize` uses.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/sanitize.hpp"
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

// The H1/H2 shapes, checked on the bytes the kernels touch: the
// happens-before engine (ALS-R1) decides them, not a declared-range rule.

TEST(Hazards, H1UnpipedConflictInDataflowGroup) {
    recorder rec;
    {
        recorder::scope scope(rec);
        syclite::queue q("xeon_6128");
        syclite::buffer<int> shared(64);
        syclite::dataflow_guard g(q);
        // Two concurrent kernels each take a write view of all of `shared`
        // and no pipe connects them: nothing sequences their rounds. The
        // views are recorded; nothing is written through them, so the test
        // itself stays clean under TSan.
        for (const char* writer : {"writer_a", "writer_b"}) {
            q.submit([&](syclite::handler& h) {
                auto a = h.get_access(shared, syclite::access_mode::write);
                h.single_task(named(writer), [a] { (void)a.span(0, 64); });
            });
        }
        (void)g.join();
    }
    const report r = run_all(rec);
    EXPECT_TRUE(has_rule(r, "ALS-R1")) << render(r);
}

TEST(Hazards, H1SuppressedWhenPipeConnectsTheKernels) {
    recorder rec;
    {
        recorder::scope scope(rec);
        syclite::queue q("xeon_6128");
        syclite::buffer<int> shared(64);
        syclite::pipe<int> ch(8, "ch");
        syclite::dataflow_guard g(q);
        // The consumer touches `shared` only after receiving the token the
        // producer sent once its writes were done: the pipe orders them.
        q.submit([&](syclite::handler& h) {
            auto a = h.get_access(shared, syclite::access_mode::write);
            h.writes_pipe(ch, 1.0, 1.0);
            h.single_task(named("producer"), [a, &ch] {
                for (std::size_t i = 0; i < 64; ++i) a[i] = 1;
                ch.write(1);
            });
        });
        q.submit([&](syclite::handler& h) {
            auto a = h.get_access(shared, syclite::access_mode::read_write);
            h.reads_pipe(ch, 1.0, 1.0);
            h.single_task(named("consumer"), [a, &ch] {
                (void)ch.read();
                for (std::size_t i = 0; i < 64; ++i) a[i] += 1;
            });
        });
        (void)g.join();
    }
    const report r = run_all(rec);
    EXPECT_FALSE(has_rule(r, "ALS-R1")) << render(r);
}

TEST(Hazards, H2HostReadOfDeviceDirtyMemory) {
    recorder rec;
    std::vector<int> host(64, 0);
    {
        recorder::scope scope(rec);
        syclite::queue q("xeon_6128");
        syclite::buffer<int> buf(64);
        q.submit([&](syclite::handler& h) {
            auto a = h.get_access(buf, syclite::access_mode::write);
            h.single_task(named("dirtier"), [a] {
                for (std::size_t i = 0; i < 64; ++i) a[i] = 7;
            });
        });
        q.copy_from_device(buf, host.data());  // missing q.wait()
    }
    const report r = run_all(rec);
    EXPECT_TRUE(has_rule(r, "ALS-R1")) << render(r);
}

TEST(Hazards, H2CleanWithInterveningWait) {
    recorder rec;
    std::vector<int> host(64, 0);
    {
        recorder::scope scope(rec);
        syclite::queue q("xeon_6128");
        syclite::buffer<int> buf(64);
        q.submit([&](syclite::handler& h) {
            auto a = h.get_access(buf, syclite::access_mode::write);
            h.single_task(named("dirtier"), [a] {
                for (std::size_t i = 0; i < 64; ++i) a[i] = 7;
            });
        });
        q.wait();
        q.copy_from_device(buf, host.data());
    }
    const report r = run_all(rec);
    EXPECT_FALSE(has_rule(r, "ALS-R1")) << render(r);
    EXPECT_FALSE(has_rule(r, "ALS-L5")) << render(r);
}

// The PR 2 particlefilter regression, reduced: an accessor created inside a
// command group dereferenced after the group completed.
TEST(Hazards, H3AccessorOutlivesItsCommandGroup) {
    recorder rec;
    {
        recorder::scope scope(rec);
        syclite::queue q("xeon_6128");
        syclite::buffer<int> buf(16);
        syclite::accessor<int> leaked;
        q.submit([&](syclite::handler& h) {
            leaked = h.get_access(buf, syclite::access_mode::read_write);
            h.single_task(named("escapee"), [&] { leaked[0] = 7; });
        });
        q.wait();
        (void)leaked[0];  // stale: the group already retired
    }
    const report r = run_all(rec);
    EXPECT_TRUE(has_rule(r, "ALS-H3"));
    for (const finding& f : r.findings()) {
        if (f.rule == "ALS-H3") {
            EXPECT_EQ(f.kernel, "escapee");
        }
    }
}

TEST(Hazards, H3SilentWhileTheGroupIsLive) {
    recorder rec;
    {
        recorder::scope scope(rec);
        syclite::queue q("xeon_6128");
        syclite::buffer<int> buf(16);
        q.submit([&](syclite::handler& h) {
            auto a = h.get_access(buf, syclite::access_mode::read_write);
            h.single_task(named("inside"), [=] { a[0] = 1; });
        });
        q.wait();
    }
    EXPECT_FALSE(has_rule(run_all(rec), "ALS-H3"));
}

TEST(Hazards, H4UseAfterFreeOfUsm) {
    recorder rec;
    {
        recorder::scope scope(rec);
        syclite::queue q("xeon_6128");
        int* p = syclite::malloc_shared<int>(32, q);
        ASSERT_NE(p, nullptr);
        // Keep the address as an integer: the declaration below is *meant*
        // to name a freed range (never dereferenced), and going through
        // uintptr_t keeps compilers' use-after-free heuristics quiet.
        const auto addr = reinterpret_cast<std::uintptr_t>(p);
        syclite::usm_free(p, q);
        q.submit([&](syclite::handler& h) {
            h.uses_usm(reinterpret_cast<const void*>(addr), 32 * sizeof(int),
                       syclite::access_mode::read);
            h.single_task(named("stale_user"), [] {});
        });
        q.wait();
    }
    const report r = run_all(rec);
    ASSERT_TRUE(has_rule(r, "ALS-H4"));
    for (const finding& f : r.findings()) {
        if (f.rule == "ALS-H4") {
            EXPECT_NE(f.message.find("already freed"), std::string::npos);
        }
    }
}

TEST(Hazards, H4DoubleFreeOnHandBuiltGraph) {
    const void* fake = reinterpret_cast<const void*>(0x1000);
    command_graph g;
    node alloc;
    alloc.kind = node_kind::usm_alloc;
    alloc.queue = 0;
    alloc.accesses = {{fake, 128, access::read_write, mem_kind::usm}};
    node free1 = alloc;
    free1.kind = node_kind::usm_free;
    node free2 = free1;
    g.nodes = {alloc, free1, free2};

    report r;
    lint_hazards(g, r);
    ASSERT_TRUE(has_rule(r, "ALS-H4"));
    EXPECT_NE(r.findings().front().message.find("double free"),
              std::string::npos);
}

TEST(Hazards, H4GenerationsDisambiguateARecycledAddress) {
    // The altis::mem pool recycles addresses, so two logical allocations can
    // share one base. The generation tag must keep their findings apart:
    // same base, different generation -> different fingerprint.
    const void* base = reinterpret_cast<const void*>(0x2000);
    const auto double_free_graph = [&](std::uint64_t gen) {
        command_graph g;
        node alloc;
        alloc.kind = node_kind::usm_alloc;
        alloc.queue = 0;
        alloc.accesses = {{base, 128, access::read_write, mem_kind::usm, gen}};
        node free1 = alloc;
        free1.kind = node_kind::usm_free;
        node free2 = free1;
        g.nodes = {alloc, free1, free2};
        return g;
    };
    report r1;
    lint_hazards(double_free_graph(7), r1);
    report r2;
    lint_hazards(double_free_graph(8), r2);
    ASSERT_TRUE(has_rule(r1, "ALS-H4"));
    ASSERT_TRUE(has_rule(r2, "ALS-H4"));
    const finding& f1 = r1.findings().front();
    const finding& f2 = r2.findings().front();
    EXPECT_NE(f1.object.find("#g7"), std::string::npos) << f1.object;
    EXPECT_NE(fingerprint(f1), fingerprint(f2));
    // Untagged graphs (generation 0, the hand-built default) keep their
    // historical labels -- no suffix.
    report r0;
    lint_hazards(double_free_graph(0), r0);
    EXPECT_EQ(r0.findings().front().object.find("#g"), std::string::npos);
}

TEST(Hazards, H4CleanWhileAllocationIsLive) {
    recorder rec;
    {
        recorder::scope scope(rec);
        syclite::queue q("xeon_6128");
        int* p = syclite::malloc_shared<int>(32, q);
        ASSERT_NE(p, nullptr);
        q.submit([&](syclite::handler& h) {
            h.uses_usm(p, 32 * sizeof(int), syclite::access_mode::read_write);
            h.single_task(named("live_user"), [&] { p[0] = 3; });
        });
        q.wait();
        syclite::usm_free(p, q);
    }
    EXPECT_FALSE(has_rule(run_all(rec), "ALS-H4"));
}

TEST(Hazards, L5RedundantBackToBackWait) {
    recorder rec;
    {
        recorder::scope scope(rec);
        syclite::queue q("xeon_6128");
        syclite::buffer<int> buf(8);
        q.submit([&](syclite::handler& h) {
            auto a = h.get_access(buf, syclite::access_mode::write);
            (void)a;
            h.single_task(named("work"), [] {});
        });
        q.wait();
        q.wait();  // nothing happened in between
    }
    EXPECT_TRUE(has_rule(run_all(rec), "ALS-L5"));
}

TEST(Hazards, L5OooJoinWithNoPendingEdgesFiresWithEventHint) {
    recorder rec;
    {
        recorder::scope scope(rec);
        syclite::queue q("xeon_6128",
                         syclite::queue_property::out_of_order);
        syclite::buffer<int> buf(8);
        q.submit([&](syclite::handler& h) {
            auto a = h.get_access(buf, syclite::access_mode::write);
            (void)a;
            h.single_task(named("work"), [] {});
        });
        q.wait();
        q.wait();  // graph join with zero incoming edges
    }
    const report r = run_all(rec);
    ASSERT_TRUE(has_rule(r, "ALS-L5")) << render(r);
    // The graph variant of the rule names the targeted alternative.
    EXPECT_NE(render(r).find("event::wait()"), std::string::npos)
        << render(r);
}

TEST(Hazards, L5SilentForOooJoinsThatOrderedWork) {
    recorder rec;
    {
        recorder::scope scope(rec);
        syclite::queue q("xeon_6128",
                         syclite::queue_property::out_of_order);
        syclite::buffer<int> buf(8);
        for (int round = 0; round < 2; ++round) {
            q.submit([&](syclite::handler& h) {
                auto a = h.get_access(buf, syclite::access_mode::write);
                (void)a;
                h.single_task(named("work"), [] {});
            });
            q.wait();  // each join has one pending command
        }
    }
    EXPECT_FALSE(has_rule(run_all(rec), "ALS-L5"));
}

TEST(Hazards, PassiveWithoutRecorder) {
    // No recorder current: the runtime must not capture (or crash).
    syclite::queue q("xeon_6128");
    syclite::buffer<int> buf(8);
    q.submit([&](syclite::handler& h) {
        auto a = h.get_access(buf, syclite::access_mode::write);
        h.single_task(named("untracked"), [=] { a[0] = 1; });
    });
    q.wait();
    EXPECT_EQ(recorder::current(), nullptr);
}

}  // namespace
}  // namespace altis::analyze
