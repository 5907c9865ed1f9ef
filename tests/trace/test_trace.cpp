// Span model, session bookkeeping and queue emission: ordering/nesting on
// the simulated clock, dataflow overlap, and agreement between the trace's
// aggregates and the queue's own two-counter decomposition.
#include "trace/session.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "apps/common/region.hpp"
#include "apps/kmeans/kmeans.hpp"
#include "sycl/syclite.hpp"

namespace altis::trace {
namespace {

perf::kernel_stats named_stats(const char* name) {
    perf::kernel_stats k;
    k.name = name;
    k.fp32_ops = 4.0;
    k.bytes_read = 8.0;
    k.bytes_written = 4.0;
    return k;
}

TEST(Session, RegionsNestAndRecordOnClose) {
    session s("t");
    s.begin_region("outer", 0.0);
    s.begin_region("inner", 10.0);
    EXPECT_EQ(s.open_regions(), 2);
    s.end_region(50.0);  // closes inner
    s.end_region(100.0);
    ASSERT_EQ(s.spans().size(), 2u);
    EXPECT_EQ(s.spans()[0].name, "inner");
    EXPECT_EQ(s.spans()[1].name, "outer");
    // Nesting on the clock: inner is contained in outer.
    EXPECT_GE(s.spans()[0].start_ns, s.spans()[1].start_ns);
    EXPECT_LE(s.spans()[0].end_ns, s.spans()[1].end_ns);
    EXPECT_THROW(s.end_region(0.0), std::logic_error);
}

TEST(Session, CurrentIsScoped) {
    EXPECT_EQ(session::current(), nullptr);
    {
        session a("a");
        session::scope sa(a);
        EXPECT_EQ(session::current(), &a);
        {
            session b("b");
            session::scope sb(b);
            EXPECT_EQ(session::current(), &b);
        }
        EXPECT_EQ(session::current(), &a);
    }
    EXPECT_EQ(session::current(), nullptr);
}

TEST(QueueTrace, KernelSpansAreNamedOrderedAndSumToKernelNs) {
    session s("t");
    session::scope scope(s);
    syclite::queue q("rtx_2080");
    syclite::buffer<int> b(256);
    for (const char* name : {"alpha", "beta", "alpha"}) {
        q.submit([&](syclite::handler& h) {
            auto acc = h.get_access(b, syclite::access_mode::discard_write);
            h.parallel_for(syclite::nd_range<1>(syclite::range<1>(256),
                                                syclite::range<1>(64)),
                           named_stats(name), [=](syclite::nd_item<1> it) {
                               acc[it.get_global_id(0)] = 1;
                           });
        });
    }
    q.wait();

    ASSERT_EQ(s.device(), &q.device());
    std::vector<std::string> kernel_names;
    double prev_end = 0.0;
    for (const auto& sp : s.spans()) {
        // Main-lane spans tile the simulated clock without gaps or overlap.
        EXPECT_NEAR(sp.start_ns, prev_end, 1e-9);
        EXPECT_GE(sp.end_ns, sp.start_ns);
        prev_end = sp.end_ns;
        if (sp.kind == span_kind::kernel) kernel_names.push_back(sp.name);
    }
    EXPECT_EQ(kernel_names, (std::vector<std::string>{"alpha", "beta", "alpha"}));
    EXPECT_NEAR(s.kernel_ns(), q.kernel_ns(), 1e-9);
    EXPECT_NEAR(s.non_kernel_ns(), q.non_kernel_ns(), 1e-9);
    EXPECT_NEAR(s.last_end_ns(), q.sim_now_ns(), 1e-9);
}

TEST(QueueTrace, KernelSpanCarriesModelCounters) {
    session s("t");
    session::scope scope(s);
    syclite::queue q("a100");
    syclite::buffer<int> b(128);
    perf::kernel_stats k = named_stats("counted");
    k.occupancy = 0.5;
    k.divergence = 0.25;
    q.submit([&](syclite::handler& h) {
        auto acc = h.get_access(b, syclite::access_mode::discard_write);
        h.parallel_for(
            syclite::nd_range<1>(syclite::range<1>(128), syclite::range<1>(64)),
            k, [=](syclite::nd_item<1> it) { acc[it.get_global_id(0)] = 1; });
    });
    const auto it = std::find_if(
        s.spans().begin(), s.spans().end(),
        [](const span& sp) { return sp.kind == span_kind::kernel; });
    ASSERT_NE(it, s.spans().end());
    EXPECT_EQ(it->name, "counted");
    EXPECT_DOUBLE_EQ(it->counters.flops, 4.0 * 128.0);
    EXPECT_DOUBLE_EQ(it->counters.bytes, 12.0 * 128.0);
    EXPECT_DOUBLE_EQ(it->counters.occupancy, 0.5);
    EXPECT_DOUBLE_EQ(it->counters.divergence, 0.25);
}

TEST(QueueTrace, TransferSetupAndOverheadBecomeTypedSpans) {
    session s("t");
    session::scope scope(s);
    syclite::queue q("rtx_2080");
    q.charge_setup();
    std::vector<float> host(1024, 1.0f);
    syclite::buffer<float> b(host.size());
    q.copy_to_device(b, host.data());
    q.annotate_overhead_ns(500.0);
    q.wait();

    ASSERT_EQ(s.spans().size(), 4u);
    EXPECT_EQ(s.spans()[0].kind, span_kind::setup);
    EXPECT_EQ(s.spans()[1].kind, span_kind::transfer);
    EXPECT_DOUBLE_EQ(s.spans()[1].counters.bytes, 4096.0);
    EXPECT_EQ(s.spans()[2].kind, span_kind::overhead);
    EXPECT_DOUBLE_EQ(s.spans()[2].duration_ns(), 500.0);
    EXPECT_EQ(s.spans()[3].kind, span_kind::sync);
    EXPECT_NEAR(s.non_kernel_ns(), q.non_kernel_ns(), 1e-9);
}

TEST(QueueTrace, DataflowSpansOverlapOnSeparateLanes) {
    session s("t");
    session::scope scope(s);
    syclite::queue q("stratix_10");
    syclite::buffer<int> out(100);
    syclite::pipe<int> p(16);
    q.begin_dataflow();
    q.submit([&](syclite::handler& h) {
        perf::kernel_stats k = named_stats("producer");
        k.writes_pipe = true;
        perf::loop_info loop;
        loop.trip_count = 1e6;
        k.loops.push_back(loop);
        h.single_task(k, [&p]() {
            for (int i = 0; i < 100; ++i) p.write(i);
        });
    });
    q.submit([&](syclite::handler& h) {
        auto acc = h.get_access(out, syclite::access_mode::discard_write);
        perf::kernel_stats k = named_stats("consumer");
        k.reads_pipe = true;
        perf::loop_info loop;
        loop.trip_count = 100;
        k.loops.push_back(loop);
        h.single_task(k, [&p, acc]() {
            for (int i = 0; i < 100; ++i) acc[i] = p.read();
        });
    });
    q.end_dataflow();

    const span* group = nullptr;
    std::vector<const span*> kernels;
    for (const auto& sp : s.spans()) {
        if (sp.kind == span_kind::dataflow_group) group = &sp;
        if (sp.kind == span_kind::kernel) kernels.push_back(&sp);
    }
    ASSERT_NE(group, nullptr);
    ASSERT_EQ(kernels.size(), 2u);
    EXPECT_EQ(group->name, "dataflow:producer:consumer");
    // Overlap: both kernels launch together on distinct lanes inside the
    // group envelope; the envelope ends with the slowest member.
    EXPECT_DOUBLE_EQ(kernels[0]->start_ns, kernels[1]->start_ns);
    EXPECT_NE(kernels[0]->track, kernels[1]->track);
    EXPECT_GT(kernels[0]->track, 0);
    const double slowest =
        std::max(kernels[0]->end_ns, kernels[1]->end_ns);
    EXPECT_DOUBLE_EQ(group->end_ns, slowest);
    // The queue's kernel counter is the group wall, not the lane sum.
    EXPECT_NEAR(s.kernel_ns(), q.kernel_ns(), 1e-9);
    EXPECT_LE(q.kernel_ns() + 1e-9,
              kernels[0]->duration_ns() + kernels[1]->duration_ns());
}

TEST(QueueTrace, SecondQueueAppendsAfterFirst) {
    session s("t");
    session::scope scope(s);
    double first_end = 0.0;
    {
        syclite::queue q("rtx_2080");
        q.charge_setup();
        first_end = s.last_end_ns();
        EXPECT_GT(first_end, 0.0);
    }
    syclite::queue q2("rtx_2080");
    q2.charge_setup();
    const auto& last = s.spans().back();
    EXPECT_NEAR(last.start_ns, first_end, 1e-9);  // appended, not overlapped
}

TEST(QueueTrace, EventsCarryKernelNamesWithoutASession) {
    ASSERT_EQ(session::current(), nullptr);
    syclite::queue q("rtx_2080");
    syclite::buffer<int> b(64);
    q.submit([&](syclite::handler& h) {
        auto acc = h.get_access(b, syclite::access_mode::discard_write);
        h.parallel_for(
            syclite::nd_range<1>(syclite::range<1>(64), syclite::range<1>(64)),
            named_stats("lonely"),
            [=](syclite::nd_item<1> it) { acc[it.get_global_id(0)] = 1; });
    });
    std::vector<float> host(16, 0.0f);
    syclite::buffer<float> fb(host.size());
    q.copy_to_device(fb, host.data());
    ASSERT_EQ(q.events().size(), 2u);
    EXPECT_EQ(q.events()[0].name(), "lonely");
    EXPECT_EQ(q.events()[1].name(), "");  // transfers are anonymous commands
}

TEST(RegionTrace, SimulatedRegionEmitsBalancedSpans) {
    const auto& dev = perf::device_by_name("stratix_10");
    const auto region =
        apps::kmeans::region(Variant::fpga_opt, dev, 1);
    session s("t");
    session::scope scope(s);
    const auto est = apps::simulate_region(region, dev, perf::runtime_kind::sycl);

    ASSERT_FALSE(s.empty());
    const span& reg = s.spans().back();
    EXPECT_EQ(reg.kind, span_kind::region);
    EXPECT_EQ(reg.name, "kmeans/fpga_opt/size1");
    // The region span covers exactly the simulated total, and the session's
    // decomposition reproduces the estimate's two counters.
    EXPECT_NEAR(reg.duration_ns(), est.total_ns(), 1e-6);
    EXPECT_NEAR(s.kernel_ns(), est.kernel_ns, 1e-6);
    EXPECT_NEAR(s.non_kernel_ns(), est.non_kernel_ns, 1e-6);
    // Dataflow design: pipe kernels overlap on separate lanes.
    std::vector<const span*> lanes;
    for (const auto& sp : s.spans())
        if (sp.kind == span_kind::kernel && sp.track > 0) lanes.push_back(&sp);
    ASSERT_EQ(lanes.size(), 2u);
    EXPECT_DOUBLE_EQ(lanes[0]->start_ns, lanes[1]->start_ns);
}

TEST(RegionTrace, SuccessiveSimulationsAppend) {
    const auto& dev = perf::device_by_name("rtx_2080");
    const auto region = apps::kmeans::region(Variant::sycl_opt, dev, 1);
    session s("t");
    session::scope scope(s);
    (void)apps::simulate_region(region, dev, perf::runtime_kind::sycl);
    const double first_end = s.last_end_ns();
    (void)apps::simulate_region(region, dev, perf::runtime_kind::sycl);
    const span& second_region = s.spans().back();
    EXPECT_NEAR(second_region.start_ns, first_end, 1e-9);
}

TEST(RegionTrace, DefaultOverloadUsesCurrentSession) {
    const auto& dev = perf::device_by_name("rtx_2080");
    const auto region = apps::kmeans::region(Variant::sycl_opt, dev, 1);
    session s("t");
    {
        session::scope scope(s);
        (void)apps::simulate_region(region, dev, perf::runtime_kind::sycl);
    }
    EXPECT_FALSE(s.empty());
    // And without a current session, nothing is collected anywhere.
    (void)apps::simulate_region(region, dev, perf::runtime_kind::sycl);
}

}  // namespace
}  // namespace altis::trace
