#include "sycl/syclite.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace syclite {
namespace {

perf::kernel_stats simple_stats(const char* name) {
    perf::kernel_stats k;
    k.name = name;
    k.fp32_ops = 2.0;
    k.bytes_read = 4.0;
    k.bytes_written = 4.0;
    return k;
}

TEST(Queue, ParallelForComputesFunctionally) {
    queue q("rtx_2080");
    buffer<int> b(1024);
    q.submit([&](handler& h) {
        auto acc = h.get_access(b, access_mode::discard_write);
        h.parallel_for(nd_range<1>(range<1>(1024), range<1>(64)),
                       simple_stats("iota"), [=](nd_item<1> it) {
                           acc[it.get_global_id(0)] =
                               static_cast<int>(it.get_global_id(0));
                       });
    });
    q.wait();
    for (int i = 0; i < 1024; ++i) EXPECT_EQ(b.host_data()[i], i);
}

TEST(Queue, EventTimelineAdvancesMonotonically) {
    queue q("a100");
    buffer<int> b(256);
    event e1, e2;
    auto submit_one = [&] {
        return q.submit([&](handler& h) {
            auto acc = h.get_access(b, access_mode::read_write);
            h.parallel_for(nd_range<1>(range<1>(256), range<1>(64)),
                           simple_stats("k"),
                           [=](nd_item<1> it) { acc[it.get_global_id(0)] = 1; });
        });
    };
    e1 = submit_one();
    e2 = submit_one();
    EXPECT_GT(e1.profiling_start_ns(), e1.profiling_submit_ns());
    EXPECT_GT(e1.duration_ns(), 0.0);
    EXPECT_GE(e2.profiling_submit_ns(), e1.profiling_end_ns());
}

TEST(Queue, KernelAndNonKernelRegionsAccumulate) {
    queue q("rtx_2080");
    buffer<int> b(64);
    q.submit([&](handler& h) {
        auto acc = h.get_access(b, access_mode::discard_write);
        h.parallel_for(nd_range<1>(range<1>(64), range<1>(64)),
                       simple_stats("k"),
                       [=](nd_item<1> it) { acc[it.get_global_id(0)] = 0; });
    });
    q.wait();
    EXPECT_GT(q.kernel_ns(), 0.0);
    EXPECT_GT(q.non_kernel_ns(), 0.0);
    EXPECT_NEAR(q.sim_now_ns(), q.kernel_ns() + q.non_kernel_ns(), 1e-6);
}

TEST(Queue, SyclLaunchOverheadExceedsCuda) {
    const auto& dev = perf::device_by_name("rtx_2080");
    queue qc(dev, perf::runtime_kind::cuda);
    queue qs(dev, perf::runtime_kind::sycl);
    buffer<int> b(64);
    auto launch = [&](queue& q) {
        q.reset_timers();
        q.submit([&](handler& h) {
            auto acc = h.get_access(b, access_mode::discard_write);
            h.parallel_for(nd_range<1>(range<1>(64), range<1>(64)),
                           simple_stats("k"),
                           [=](nd_item<1> it) { acc[it.get_global_id(0)] = 0; });
        });
        return q.non_kernel_ns();
    };
    EXPECT_GT(launch(qs), launch(qc));
}

TEST(Queue, TransferChargesNonKernelTime) {
    queue q("rtx_2080");
    std::vector<float> host(1 << 20, 1.0f);
    buffer<float> b(host.size());
    const double before = q.non_kernel_ns();
    q.copy_to_device(b, host.data());
    EXPECT_GT(q.non_kernel_ns(), before);
    EXPECT_FLOAT_EQ(b.host_data()[123], 1.0f);
}

TEST(Queue, SingleTaskRunsOnce) {
    queue q("stratix_10");
    buffer<int> counter(1);
    counter.host_data()[0] = 0;
    perf::kernel_stats k = simple_stats("st");
    perf::loop_info loop;
    loop.trip_count = 100;
    k.loops.push_back(loop);
    q.submit([&](handler& h) {
        auto acc = h.get_access(counter, access_mode::read_write);
        h.single_task(k, [=]() { acc[0] += 1; });
    });
    EXPECT_EQ(counter.host_data()[0], 1);
}

TEST(Queue, DataflowKernelsCommunicateThroughPipe) {
    queue q("stratix_10");
    const int n = 1000;
    buffer<int> out(n);
    pipe<int> p(16);
    q.begin_dataflow();
    q.submit([&](handler& h) {
        perf::kernel_stats k = simple_stats("producer");
        k.writes_pipe = true;
        h.single_task(k, [&p, n]() {
            for (int i = 0; i < n; ++i) p.write(i * 3);
        });
    });
    q.submit([&](handler& h) {
        auto acc = h.get_access(out, access_mode::discard_write);
        perf::kernel_stats k = simple_stats("consumer");
        k.reads_pipe = true;
        h.single_task(k, [&p, acc, n]() {
            for (int i = 0; i < n; ++i) acc[i] = p.read();
        });
    });
    const auto events = q.end_dataflow();
    ASSERT_EQ(events.size(), 2u);
    for (int i = 0; i < n; ++i) EXPECT_EQ(out.host_data()[i], i * 3);
    // Overlap: both kernels share a start time.
    EXPECT_DOUBLE_EQ(events[0].profiling_start_ns(),
                     events[1].profiling_start_ns());
}

TEST(Queue, DataflowGroupTimeIsMaxNotSum) {
    queue q("stratix_10");
    perf::kernel_stats heavy = simple_stats("heavy");
    perf::loop_info loop;
    loop.trip_count = 1e6;
    heavy.loops.push_back(loop);
    perf::kernel_stats light = simple_stats("light");
    perf::loop_info small;
    small.trip_count = 10;
    light.loops.push_back(small);

    q.begin_dataflow();
    q.submit([&](handler& h) { h.single_task(heavy, [] {}); });
    q.submit([&](handler& h) { h.single_task(light, [] {}); });
    const auto events = q.end_dataflow();
    const double wall = q.kernel_ns();
    const double dmax =
        std::max(events[0].duration_ns(), events[1].duration_ns());
    EXPECT_NEAR(wall, dmax, 1e-6);
    EXPECT_LT(wall, events[0].duration_ns() + events[1].duration_ns());
}

TEST(Queue, WaitInsideDataflowThrows) {
    queue q("agilex");
    q.begin_dataflow();
    EXPECT_THROW(q.wait(), std::logic_error);
    q.end_dataflow();
}

TEST(Queue, NestedDataflowThrows) {
    queue q("agilex");
    q.begin_dataflow();
    EXPECT_THROW(q.begin_dataflow(), std::logic_error);
    q.end_dataflow();
}

TEST(Queue, KernelExceptionInDataflowPropagates) {
    queue q("stratix_10");
    q.begin_dataflow();
    q.submit([&](handler& h) {
        h.single_task(simple_stats("boom"),
                      [] { throw std::runtime_error("kernel failure"); });
    });
    EXPECT_THROW(q.end_dataflow(), std::runtime_error);
}

TEST(Queue, TwoKernelsInOneCommandGroupThrow) {
    queue q("rtx_2080");
    EXPECT_THROW(q.submit([&](handler& h) {
        h.single_task(simple_stats("a"), [] {});
        h.single_task(simple_stats("b"), [] {});
    }),
                 std::logic_error);
}

TEST(Queue, ResetTimersClearsState) {
    queue q("rtx_2080");
    q.charge_setup();
    EXPECT_GT(q.sim_now_ns(), 0.0);
    q.reset_timers();
    EXPECT_DOUBLE_EQ(q.sim_now_ns(), 0.0);
    EXPECT_DOUBLE_EQ(q.kernel_ns(), 0.0);
    EXPECT_DOUBLE_EQ(q.non_kernel_ns(), 0.0);
}

TEST(Queue, SetDesignOnNonFpgaThrows) {
    queue q("a100");
    EXPECT_THROW(q.set_design({}), std::logic_error);
}

}  // namespace
}  // namespace syclite
