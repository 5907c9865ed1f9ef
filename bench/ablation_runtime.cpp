// Ablation: host-side microbenchmarks of the syclite runtime itself --
// kernel dispatch cost, hierarchical work-group execution, pipe throughput
// (element-wise and burst), ND-Range dispatch across sizes, and concurrent
// thread-pool jobs. These measure the *functional* substrate (real
// wall-clock), not the simulated device times.
//
// `--json [path]` writes the google-benchmark JSON report to `path`
// (default BENCH_runtime.json) in addition to the console output -- the
// recorded point of the runtime's perf trajectory (docs/PERFORMANCE.md).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "mem/pool.hpp"
#include "metrics/export.hpp"
#include "metrics/session.hpp"
#include "sycl/syclite.hpp"

namespace {

using namespace syclite;

perf::kernel_stats tiny_stats() {
    perf::kernel_stats k;
    k.name = "tiny";
    k.fp32_ops = 1;
    return k;
}

void BM_SubmitDispatch(benchmark::State& state) {
    queue q("xeon_6128");
    buffer<int> b(1);
    for (auto _ : state) {
        q.submit([&](handler& h) {
            auto acc = h.get_access(b, access_mode::read_write);
            h.single_task(tiny_stats(), [=]() { acc[0] += 1; });
        });
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SubmitDispatch);

void BM_ParallelFor(benchmark::State& state) {
    queue q("xeon_6128");
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    buffer<float> b(n);
    for (auto _ : state) {
        q.submit([&](handler& h) {
            auto acc = h.get_access(b, access_mode::read_write);
            h.parallel_for(nd_range<1>(range<1>(n), range<1>(256)), tiny_stats(),
                           [=](nd_item<1> it) {
                               acc[it.get_global_id(0)] += 1.0f;
                           });
        });
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ParallelFor)->Range(1 << 10, 1 << 24);

void BM_HierarchicalTwoPhase(benchmark::State& state) {
    queue q("xeon_6128");
    const std::size_t groups = static_cast<std::size_t>(state.range(0));
    buffer<float> b(groups * 64);
    for (auto _ : state) {
        q.submit([&](handler& h) {
            auto acc = h.get_access(b, access_mode::read_write);
            h.parallel_for_work_group(
                range<1>(groups), range<1>(64), tiny_stats(), [=](group<1> g) {
                    float tile[64];
                    g.parallel_for_work_item([&](h_item<1> it) {
                        tile[it.get_local_id(0)] =
                            acc[it.get_global_id(0)];
                    });
                    g.parallel_for_work_item([&](h_item<1> it) {
                        acc[it.get_global_id(0)] =
                            tile[63 - it.get_local_id(0)];
                    });
                });
        });
    }
    state.SetItemsProcessed(state.iterations() * state.range(0) * 64);
}
BENCHMARK(BM_HierarchicalTwoPhase)->Range(16, 4096);

void BM_PipeThroughput(benchmark::State& state) {
    for (auto _ : state) {
        state.PauseTiming();
        syclite::pipe<int> p(64);  // qualified: POSIX pipe() shadows the name
        queue q("stratix_10");
        const int n = static_cast<int>(state.range(0));
        state.ResumeTiming();
        q.begin_dataflow();
        q.submit([&](handler& h) {
            perf::kernel_stats k = tiny_stats();
            k.writes_pipe = true;
            h.single_task(k, [&p, n] {
                for (int i = 0; i < n; ++i) p.write(i);
            });
        });
        q.submit([&](handler& h) {
            perf::kernel_stats k = tiny_stats();
            k.reads_pipe = true;
            h.single_task(k, [&p, n] {
                long sum = 0;
                for (int i = 0; i < n; ++i) sum += p.read();
                benchmark::DoNotOptimize(sum);
            });
        });
        q.end_dataflow();
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PipeThroughput)->Range(1 << 10, 1 << 16);

/// Streaming transfer through the burst API: whole spans per counter
/// publication instead of one element each (the KMeans dataflow pattern).
constexpr std::size_t kBurst = 64;

void BM_PipeThroughputBurst(benchmark::State& state) {
    for (auto _ : state) {
        state.PauseTiming();
        syclite::pipe<int> p(256);
        queue q("stratix_10");
        const std::size_t n = static_cast<std::size_t>(state.range(0));
        state.ResumeTiming();
        q.begin_dataflow();
        q.submit([&](handler& h) {
            perf::kernel_stats k = tiny_stats();
            k.writes_pipe = true;
            h.single_task(k, [&p, n] {
                int batch[kBurst];
                std::size_t sent = 0;
                while (sent < n) {
                    const std::size_t take = std::min(kBurst, n - sent);
                    for (std::size_t i = 0; i < take; ++i)
                        batch[i] = static_cast<int>(sent + i);
                    p.write_burst(batch, take);
                    sent += take;
                }
            });
        });
        q.submit([&](handler& h) {
            perf::kernel_stats k = tiny_stats();
            k.reads_pipe = true;
            h.single_task(k, [&p, n] {
                int batch[kBurst];
                long sum = 0;
                std::size_t got = 0;
                while (got < n) {
                    const std::size_t take = std::min(kBurst, n - got);
                    p.read_burst(batch, take);
                    for (std::size_t i = 0; i < take; ++i) sum += batch[i];
                    got += take;
                }
                benchmark::DoNotOptimize(sum);
            });
        });
        q.end_dataflow();
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PipeThroughputBurst)->Range(1 << 10, 1 << 16);

void BM_ThreadPoolParallelFor(benchmark::State& state) {
    thread_pool pool;
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    std::vector<double> data(n, 1.0);
    for (auto _ : state) {
        pool.parallel_for(n, [&](std::size_t i) { data[i] *= 1.0000001; });
    }
    benchmark::DoNotOptimize(data.data());
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ThreadPoolParallelFor)->Range(1 << 10, 1 << 20);

/// Concurrent-job scaling: range(0) submitter threads issue parallel_for
/// jobs to one shared pool simultaneously, the shape of a dataflow group
/// whose members are ND-Range kernels. Before the per-job work list the
/// submitters serialized behind a single submission mutex.
void BM_ConcurrentPoolJobs(benchmark::State& state) {
    thread_pool pool(4);
    const int submitters = static_cast<int>(state.range(0));
    constexpr std::size_t kPerJob = 1 << 14;
    for (auto _ : state) {
        std::vector<std::thread> threads;
        threads.reserve(static_cast<std::size_t>(submitters));
        for (int t = 0; t < submitters; ++t)
            threads.emplace_back([&pool] {
                double acc = 1.0;
                pool.parallel_for(kPerJob, [&](std::size_t i) {
                    acc += static_cast<double>(i) * 1e-9;
                });
                benchmark::DoNotOptimize(acc);
            });
        for (auto& t : threads) t.join();
    }
    state.SetItemsProcessed(state.iterations() * submitters *
                            static_cast<long>(kPerJob));
}
BENCHMARK(BM_ConcurrentPoolJobs)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// ---- altis::mem (docs/PERFORMANCE.md "Memory subsystem") ----

/// Allocation churn, the sweep-loop shape: allocate, touch every page, free,
/// repeat with the same size. The pool serves repeats from its magazine /
/// reuse cache on warm pages; the `system` backend replays the pre-pool
/// behaviour (::operator new(align_val_t{64}) per request), which above the
/// malloc mmap threshold also re-faults every page per iteration.
void alloc_churn(benchmark::State& state, altis::mem::backend b) {
    const auto prev = altis::mem::current_backend();
    altis::mem::set_backend(b);
    const std::size_t bytes = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        void* p = altis::mem::allocate(bytes);
        auto* c = static_cast<char*>(p);
        for (std::size_t off = 0; off < bytes; off += 4096) c[off] = 1;
        benchmark::DoNotOptimize(c);
        altis::mem::deallocate(p);
    }
    altis::mem::set_backend(prev);
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(bytes));
}

void BM_AllocChurnPool(benchmark::State& state) {
    alloc_churn(state, altis::mem::backend::pooled);
}
BENCHMARK(BM_AllocChurnPool)
    ->Arg(256)->Arg(64 << 10)->Arg(1 << 20)->Arg(64 << 20);

void BM_AllocChurnSystem(benchmark::State& state) {
    alloc_churn(state, altis::mem::backend::system);
}
BENCHMARK(BM_AllocChurnSystem)
    ->Arg(256)->Arg(64 << 10)->Arg(1 << 20)->Arg(64 << 20);

/// Host->device upload of range(0) floats, the cudaMemcpy H2D shape. The
/// fast path pairs a recycled no_init buffer with thread_pool::copy: warm
/// pages, filled in 2 MiB chunks on the pool from 4 MiB up.
void BM_TransferUpload(benchmark::State& state) {
    queue q("xeon_6128");
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const std::vector<float> src(n, 1.5f);
    for (auto _ : state) {
        buffer<float> dev(n, no_init);
        q.copy_to_device(dev, src.data());
        benchmark::DoNotOptimize(dev.host_data());
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(n * sizeof(float)));
}
BENCHMARK(BM_TransferUpload)->Arg(1 << 22)->Arg(16 << 20);

// ---- command-graph scheduler (docs/PERFORMANCE.md "Graph overlap") ----

/// Independent wall-clock workloads (no shared accessors, no explicit
/// edges): the in-order queue runs them back to back, the out-of-order
/// queue dispatches all of them onto pool workers at once. Real sleeps, so
/// the benches must run on real time -- CPU time is ~0 either way.
constexpr int kOverlapKernels = 4;
constexpr std::chrono::milliseconds kOverlapSleep{2};

void overlap_round(queue& q) {
    for (int i = 0; i < kOverlapKernels; ++i)
        q.submit([&](handler& h) {
            h.library_call(tiny_stats(),
                           [] { std::this_thread::sleep_for(kOverlapSleep); });
        });
    q.wait();
}

void BM_GraphOverlapInOrder(benchmark::State& state) {
    queue q("xeon_6128");
    for (auto _ : state) overlap_round(q);
    state.SetItemsProcessed(state.iterations() * kOverlapKernels);
}
BENCHMARK(BM_GraphOverlapInOrder)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_GraphOverlapOOO(benchmark::State& state) {
    thread_pool pool(kOverlapKernels);
    queue q("xeon_6128", queue_property::out_of_order);
    q.set_graph_pool(&pool);
    for (auto _ : state) overlap_round(q);
    // The pool outlives the queue: drop the scheduler's reference before the
    // pool's workers go away.
    q.wait();
    state.SetItemsProcessed(state.iterations() * kOverlapKernels);
}
BENCHMARK(BM_GraphOverlapOOO)->UseRealTime()->Unit(benchmark::kMillisecond);

/// Submit-side scheduler cost on a dependent chain: every submission
/// read-writes the same buffer, so the graph path resolves one implied edge
/// per node (segment carving + two-phase release) where the eager path just
/// runs. Measures bookkeeping, not overlap.
void sched_latency_round(queue& q, buffer<int>& b, int n) {
    for (int i = 0; i < n; ++i)
        q.submit([&](handler& h) {
            auto acc = h.get_access(b, access_mode::read_write);
            h.single_task(tiny_stats(), [=]() { acc[0] += 1; });
        });
    q.wait();
}

constexpr int kSchedChain = 64;

void BM_SchedLatencyInOrder(benchmark::State& state) {
    queue q("xeon_6128");
    buffer<int> b(1);
    for (auto _ : state) sched_latency_round(q, b, kSchedChain);
    state.SetItemsProcessed(state.iterations() * kSchedChain);
}
BENCHMARK(BM_SchedLatencyInOrder);

void BM_SchedLatencyOOO(benchmark::State& state) {
    queue q("xeon_6128", queue_property::out_of_order);
    buffer<int> b(1);
    for (auto _ : state) sched_latency_round(q, b, kSchedChain);
    state.SetItemsProcessed(state.iterations() * kSchedChain);
}
BENCHMARK(BM_SchedLatencyOOO);

/// The same upload as the runtime performed it before the memory subsystem:
/// a fresh std::vector (whose value-initialization writes every byte once
/// before the copy overwrites it) filled element-wise with std::copy.
void BM_TransferUploadLegacy(benchmark::State& state) {
    queue q("xeon_6128");
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const std::vector<float> src(n, 1.5f);
    for (auto _ : state) {
        std::vector<float> dev(n);
        q.annotate_transfer(static_cast<double>(n * sizeof(float)));
        std::copy(src.begin(), src.end(), dev.begin());
        benchmark::DoNotOptimize(dev.data());
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(n * sizeof(float)));
}
BENCHMARK(BM_TransferUploadLegacy)->Arg(1 << 22)->Arg(16 << 20);

}  // namespace

// BENCHMARK_MAIN with a `--json [path]` extension: rewrites the flag into
// google-benchmark's --benchmark_out before initialization so the JSON
// report (BENCH_runtime.json by default) rides along with the console run.
int main(int argc, char** argv) {
    std::vector<char*> args;
    std::string out_path;
    bool json = false;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            json = true;
            if (i + 1 < argc && argv[i + 1][0] != '-') out_path = argv[++i];
            continue;
        }
        args.push_back(argv[i]);
    }
    std::string out_flag, fmt_flag;
    if (json) {
        if (out_path.empty()) out_path = "BENCH_runtime.json";
        out_flag = "--benchmark_out=" + out_path;
        fmt_flag = "--benchmark_out_format=json";
        args.push_back(out_flag.data());
        args.push_back(fmt_flag.data());
    }
    int argn = static_cast<int>(args.size());
    benchmark::Initialize(&argn, args.data());
    if (benchmark::ReportUnrecognizedArguments(argn, args.data())) return 1;
    // google-benchmark's own library_build_type describes how the benchmark
    // library was built; compare_bench.py gates on this repository's build.
    benchmark::AddCustomContext("altis_build_type", CMAKE_BUILD_TYPE);
    // The recorded report doubles as a telemetry baseline: run the suite
    // under a metrics session and embed the snapshot, so compare_bench.py
    // can diff engine counters (pool busy ns, pipe parks, ...) alongside
    // the timings between two recorded runs.
    std::optional<altis::metrics::session> msession;
    if (json) msession.emplace("ablation_runtime");
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    if (msession) {
        msession->stop();
        std::string report;
        {
            std::ifstream in(out_path);
            std::stringstream buf;
            buf << in.rdbuf();
            report = buf.str();
        }
        const std::size_t brace = report.rfind('}');
        if (brace != std::string::npos) {
            std::ostringstream mjson;
            altis::metrics::write_json(msession->take_snapshot(),
                                       msession->series(), mjson);
            report.insert(brace, ",\n  \"altis_metrics\": " + mjson.str());
            std::ofstream out(out_path, std::ios::trunc);
            out << report;
        }
    }
    return 0;
}
