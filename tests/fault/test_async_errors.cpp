// SYCL-style asynchronous error delivery, the dataflow watchdog's structured
// deadlock reporting, the RAII dataflow guard, the configurable pipe
// deadlock timeout, and the same injected faults through all three engines.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/common/app.hpp"
#include "core/registry.hpp"
#include "core/result_database.hpp"
#include "fault/inject.hpp"
#include "sycl/syclite.hpp"
#include "trace/session.hpp"

namespace syclite {
namespace {

namespace fault = altis::fault;

perf::kernel_stats stats(const char* name) {
    perf::kernel_stats k;
    k.name = name;
    k.fp32_ops = 1.0;
    k.bytes_read = 4.0;
    return k;
}

TEST(AsyncErrors, HandlerReceivesErrorsAtWaitInSubmissionOrder) {
    fault::plan p = fault::plan::parse("launch:k1@1;launch:k3@1");
    fault::scope s(p);
    std::vector<std::string> delivered;
    queue q("rtx_2080", perf::runtime_kind::sycl, [&](exception_list errors) {
        for (const auto& e : errors) {
            try {
                std::rethrow_exception(e);
            } catch (const std::exception& ex) {
                delivered.emplace_back(ex.what());
            }
        }
    });
    int ran = 0;
    q.submit([&](handler& h) { h.single_task(stats("k1"), [&] { ++ran; }); });
    q.submit([&](handler& h) { h.single_task(stats("k2"), [&] { ++ran; }); });
    q.submit([&](handler& h) { h.single_task(stats("k3"), [&] { ++ran; }); });
    EXPECT_TRUE(delivered.empty());  // errors are asynchronous
    q.wait();
    ASSERT_EQ(delivered.size(), 2u);
    EXPECT_NE(delivered[0].find("'k1'"), std::string::npos);
    EXPECT_NE(delivered[1].find("'k3'"), std::string::npos);
    EXPECT_EQ(ran, 1);  // only k2 executed

    // The queue stays usable and the list was drained.
    delivered.clear();
    q.submit([&](handler& h) { h.single_task(stats("k4"), [] {}); });
    q.wait();
    EXPECT_TRUE(delivered.empty());
}

TEST(AsyncErrors, ThrowAsynchronousIsNoOpWhenClean) {
    bool called = false;
    queue q("rtx_2080", perf::runtime_kind::sycl,
            [&](exception_list) { called = true; });
    q.throw_asynchronous();
    EXPECT_FALSE(called);
}

TEST(AsyncErrors, WithoutHandlerFirstErrorRethrown) {
    fault::plan p = fault::plan::parse("launch:k1@1");
    fault::scope s(p);
    queue q("rtx_2080");
    EXPECT_THROW(
        q.submit([&](handler& h) { h.single_task(stats("k1"), [] {}); }),
        fault::launch_fault);
}

TEST(AsyncErrors, InjectedPipeStallBecomesStructuredDataflowError) {
    fault::plan p = fault::plan::parse("pipe:stall_me@1");
    fault::scope s(p);
    queue q("stratix_10");
    pipe<int> pp(4, "stall_me", std::chrono::milliseconds(50));
    q.begin_dataflow();
    q.submit([&](handler& h) {
        perf::kernel_stats k = stats("writer");
        k.writes_pipe = true;
        h.single_task(k, [&pp] { pp.write(1); });
    });
    try {
        q.end_dataflow();
        FAIL() << "stalled group should collapse into a dataflow_error";
    } catch (const dataflow_error& e) {
        ASSERT_EQ(e.blocked_kernels().size(), 1u);
        EXPECT_EQ(e.blocked_kernels()[0], "writer");
        const std::string what = e.what();
        EXPECT_NE(what.find("injected stall"), std::string::npos);
        EXPECT_NE(what.find("stall_me"), std::string::npos);
        EXPECT_NE(what.find("capacity 4"), std::string::npos);
        EXPECT_NE(what.find("occupancy"), std::string::npos);
    }
    // The queue recovered: a fresh dataflow group works.
    buffer<int> out(8);
    dataflow_guard g(q);
    q.submit([&](handler& h) {
        auto acc = h.get_access(out, access_mode::discard_write);
        h.single_task(stats("fine"), [acc] { acc[0] = 7; });
    });
    EXPECT_EQ(g.join().size(), 1u);
    EXPECT_EQ(out.host_data()[0], 7);
}

TEST(AsyncErrors, HandlerConsumesDataflowErrorAndQueueStaysUsable) {
    fault::plan p = fault::plan::parse("pipe:wedged@1");
    fault::scope s(p);
    std::vector<std::string> delivered;
    queue q("stratix_10", perf::runtime_kind::sycl, [&](exception_list errors) {
        for (const auto& e : errors) {
            try {
                std::rethrow_exception(e);
            } catch (const std::exception& ex) {
                delivered.emplace_back(ex.what());
            }
        }
    });
    pipe<int> pp(2, "wedged", std::chrono::milliseconds(50));
    dataflow_guard g(q);
    q.submit([&](handler& h) {
        perf::kernel_stats k = stats("reader");
        k.reads_pipe = true;
        h.single_task(k, [&pp] { (void)pp.read(); });
    });
    const auto events = g.join();  // handler consumes; no throw
    EXPECT_TRUE(events.empty());
    ASSERT_EQ(delivered.size(), 1u);
    EXPECT_NE(delivered[0].find("dataflow deadlock"), std::string::npos);
    q.submit([&](handler& h) { h.single_task(stats("after"), [] {}); });
    q.wait();
}

TEST(AsyncErrors, DataflowGuardUnlatchesQueueOnException) {
    queue q("stratix_10");
    try {
        dataflow_guard g(q);
        q.submit([&](handler& h) { h.single_task(stats("a"), [] {}); });
        throw std::runtime_error("host-side failure mid-group");
    } catch (const std::runtime_error&) {
    }
    // Regression: without the guard the queue stayed latched in dataflow
    // mode and every later submit silently queued forever.
    buffer<int> b(4);
    q.submit([&](handler& h) {
        auto acc = h.get_access(b, access_mode::discard_write);
        h.single_task(stats("sequential"), [acc] { acc[0] = 3; });
    });
    q.wait();
    EXPECT_EQ(b.host_data()[0], 3);
    // And a fresh group can be opened.
    dataflow_guard g2(q);
    q.submit([&](handler& h) { h.single_task(stats("b"), [] {}); });
    EXPECT_EQ(g2.join().size(), 1u);
}

// One fault plan through each way a queue runs commands. Pins what every
// engine delivers, where, in which order, and under which failed-span labels.
enum class engine { in_order, dataflow, out_of_order };

class ThreeEngines : public ::testing::TestWithParam<engine> {};

TEST_P(ThreeEngines, InjectedLaunchFaultsKeepDeliveryPointOrderAndLabels) {
    const engine mode = GetParam();
    fault::plan p = fault::plan::parse("launch:k1@1;launch:k3@1");
    fault::scope fs(p);
    altis::trace::session tr("engines");
    altis::trace::session::scope ts(tr);
    std::vector<std::string> delivered;
    queue q("rtx_2080", perf::runtime_kind::sycl,
            [&](exception_list errors) {
                for (const auto& e : errors) {
                    try {
                        std::rethrow_exception(e);
                    } catch (const std::exception& ex) {
                        delivered.emplace_back(ex.what());
                    }
                }
            },
            mode == engine::out_of_order ? queue_property::out_of_order
                                         : queue_property::in_order);
    std::atomic<int> k2_ran{0};
    auto submit = [&](const char* name, bool count) {
        q.submit([&](handler& h) {
            h.single_task(stats(name), [&k2_ran, count] {
                if (count) k2_ran.fetch_add(1, std::memory_order_relaxed);
            });
        });
    };
    if (mode == engine::dataflow) q.begin_dataflow();
    submit("k1", false);
    submit("k2", true);
    submit("k3", false);
    EXPECT_TRUE(delivered.empty()) << "errors are asynchronous";

    // Delivery point: the group's join for dataflow, the queue's wait()
    // otherwise.
    if (mode == engine::dataflow) {
        EXPECT_TRUE(q.end_dataflow().empty());
    } else {
        q.wait();
    }
    ASSERT_EQ(delivered.size(), 2u);
    EXPECT_NE(delivered[0].find("'k1'"), std::string::npos) << delivered[0];
    EXPECT_NE(delivered[1].find("'k3'"), std::string::npos) << delivered[1];
    EXPECT_EQ(k2_ran.load(std::memory_order_relaxed), 1);

    std::vector<std::string> failed;
    for (const altis::trace::span& sp : tr.spans())
        if (sp.status == altis::trace::span_status::failed)
            failed.push_back(sp.name);
    if (mode == engine::dataflow) {
        EXPECT_EQ(failed, std::vector<std::string>{"dataflow error"});
    } else {
        ASSERT_EQ(failed.size(), 2u);
        EXPECT_EQ(failed[0].rfind("error[k1]: ", 0), 0u) << failed[0];
        EXPECT_EQ(failed[1].rfind("error[k3]: ", 0), 0u) << failed[1];
    }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, ThreeEngines,
                         ::testing::Values(engine::in_order, engine::dataflow,
                                           engine::out_of_order),
                         [](const ::testing::TestParamInfo<engine>& info) {
                             switch (info.param) {
                                 case engine::in_order: return "InOrder";
                                 case engine::dataflow: return "Dataflow";
                                 case engine::out_of_order: return "OutOfOrder";
                             }
                             return "Unknown";
                         });

// The launch fault point is probed at submission, on the submitting thread:
// `launch:*@2` hits the second *submitted* kernel even on an out-of-order
// queue, where fdtd2d's ey and ex updates of a step run concurrently.
TEST(AsyncErrors, OooLaunchFaultHitsTheSecondSubmittedKernelEveryRun) {
    altis::apps::register_all_apps();
    const altis::AppInfo* app = altis::Registry::instance().find("fdtd2d");
    ASSERT_NE(app, nullptr);
    const char* prev = std::getenv("ALTIS_OOO");
    const std::string saved = prev != nullptr ? prev : "";
    ASSERT_EQ(setenv("ALTIS_OOO", "1", 1), 0);
    altis::RunConfig cfg;
    cfg.size = 1;
    cfg.variant = altis::Variant::fpga_opt;
    cfg.device = "stratix_10";
    for (int run = 0; run < 10; ++run) {
        fault::plan p = fault::plan::parse("launch:*@2;seed=5");
        fault::scope fs(p);
        altis::ResultDatabase db;
        try {
            app->run(cfg, db);
            ADD_FAILURE() << "run " << run << ": launch fault not raised";
        } catch (const fault::launch_fault& f) {
            EXPECT_EQ(f.op(), "fdtd_ex") << "run " << run << ": " << f.what();
        }
    }
    if (prev != nullptr)
        setenv("ALTIS_OOO", saved.c_str(), 1);
    else
        unsetenv("ALTIS_OOO");
}

TEST(PipeTimeout, ConstructorTimeoutBoundsBlockingOps) {
    pipe<int> pp(2, "tiny", std::chrono::milliseconds(20));
    EXPECT_EQ(pp.timeout(), std::chrono::milliseconds(20));
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_THROW((void)pp.read(), pipe_deadlock);
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_LT(elapsed, std::chrono::seconds(5));  // not the 30 s default
    try {
        (void)pp.read();
    } catch (const pipe_deadlock& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("'tiny'"), std::string::npos);
        EXPECT_NE(what.find("20 ms"), std::string::npos);
        EXPECT_NE(what.find("capacity 2"), std::string::npos);
        EXPECT_NE(what.find("occupancy 0/2"), std::string::npos);
    }
}

TEST(PipeTimeout, EnvironmentOverridesDefault) {
    ::setenv("ALTIS_PIPE_TIMEOUT_MS", "17", 1);
    EXPECT_EQ(default_pipe_timeout(), std::chrono::milliseconds(17));
    pipe<int> pp(1, "env_pipe");
    EXPECT_EQ(pp.timeout(), std::chrono::milliseconds(17));
    ::setenv("ALTIS_PIPE_TIMEOUT_MS", "not-a-number", 1);
    EXPECT_EQ(default_pipe_timeout(), std::chrono::milliseconds(30000));
    ::setenv("ALTIS_PIPE_TIMEOUT_MS", "-5", 1);
    EXPECT_EQ(default_pipe_timeout(), std::chrono::milliseconds(30000));
    ::unsetenv("ALTIS_PIPE_TIMEOUT_MS");
    EXPECT_EQ(default_pipe_timeout(), std::chrono::milliseconds(30000));
}

TEST(PipeTimeout, NonPositiveTimeoutRejected) {
    EXPECT_THROW(pipe<int>(4, "bad", std::chrono::milliseconds(0)),
                 std::invalid_argument);
}

}  // namespace
}  // namespace syclite
