// Host microbenchmarks of the application algorithm kernels themselves
// (google-benchmark, real wall-clock). These measure this repository's
// functional substrate -- the code every verification run executes -- as
// opposed to the modeled device times the figure benches report.
#include <benchmark/benchmark.h>

#include "apps/cfd/cfd.hpp"
#include "apps/dwt2d/dwt2d.hpp"
#include "apps/kmeans/kmeans.hpp"
#include "apps/lavamd/lavamd.hpp"
#include "apps/mandelbrot/mandelbrot.hpp"
#include "apps/nw/nw.hpp"
#include "apps/where/where.hpp"
#include "sycl/syclite.hpp"

namespace {

namespace apps = altis::apps;

void BM_MandelbrotGolden(benchmark::State& state) {
    apps::mandelbrot::params p;
    p.width = p.height = static_cast<int>(state.range(0));
    std::vector<std::uint16_t> out(p.pixels());
    for (auto _ : state) {
        apps::mandelbrot::golden(p, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(p.pixels()));
}
BENCHMARK(BM_MandelbrotGolden)->Arg(128)->Arg(256)->Arg(512);

void BM_NwGolden(benchmark::State& state) {
    apps::nw::params p;
    p.n = static_cast<std::size_t>(state.range(0));
    const auto w = apps::nw::make_workload(p);
    for (auto _ : state) {
        auto score = apps::nw::golden(p, w);
        benchmark::DoNotOptimize(score.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(p.n * p.n));
}
BENCHMARK(BM_NwGolden)->Arg(256)->Arg(1024)->Arg(2048);

void BM_KmeansIteration(benchmark::State& state) {
    apps::kmeans::params p;
    p.n = static_cast<std::size_t>(state.range(0));
    p.d = 16;
    p.k = 8;
    p.iterations = 1;
    const auto data = apps::kmeans::make_dataset(p);
    for (auto _ : state) {
        auto c = apps::kmeans::golden(p, data);
        benchmark::DoNotOptimize(c.centers.data());
    }
    state.SetItemsProcessed(state.iterations() * static_cast<long>(p.n));
}
BENCHMARK(BM_KmeansIteration)->Arg(1024)->Arg(8192)->Arg(65536);

void BM_LavamdGolden(benchmark::State& state) {
    apps::lavamd::params p;
    p.boxes1d = static_cast<std::size_t>(state.range(0));
    const auto particles = apps::lavamd::make_particles(p);
    for (auto _ : state) {
        auto forces = apps::lavamd::golden(p, particles);
        benchmark::DoNotOptimize(forces.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(p.particles()));
}
BENCHMARK(BM_LavamdGolden)->Arg(2)->Arg(4)->Arg(6);

void BM_Dwt2dForward(benchmark::State& state) {
    apps::dwt2d::params p;
    p.width = p.height = static_cast<std::size_t>(state.range(0));
    const auto original = apps::dwt2d::make_image(p);
    for (auto _ : state) {
        auto img = original;
        apps::dwt2d::golden(p, img);
        benchmark::DoNotOptimize(img.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(p.pixels()));
}
BENCHMARK(BM_Dwt2dForward)->Arg(256)->Arg(512)->Arg(1024);

void BM_Dwt2dRoundTrip(benchmark::State& state) {
    apps::dwt2d::params p;
    p.width = p.height = static_cast<std::size_t>(state.range(0));
    const auto original = apps::dwt2d::make_image(p);
    for (auto _ : state) {
        auto img = original;
        apps::dwt2d::golden(p, img);
        apps::dwt2d::inverse(p, img);
        benchmark::DoNotOptimize(img.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(p.pixels()));
}
BENCHMARK(BM_Dwt2dRoundTrip)->Arg(256)->Arg(512);

// One RK3 iteration of cfd's oracle: 4 FP32 or 2 FP64 elements per lane.
template <typename Real>
void BM_CfdIteration(benchmark::State& state) {
    apps::cfd::params p;
    p.nx = p.ny = static_cast<std::size_t>(state.range(0));
    p.iterations = 1;
    const auto mesh = apps::cfd::make_mesh(p);
    auto vars = apps::cfd::initial_variables<Real>(p);
    for (auto _ : state) {
        apps::cfd::golden(p, mesh, vars);
        benchmark::DoNotOptimize(vars.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * static_cast<long>(p.nel()));
}
BENCHMARK_TEMPLATE(BM_CfdIteration, float)->Arg(64)->Arg(128)->Arg(256);
BENCHMARK_TEMPLATE(BM_CfdIteration, double)->Arg(64)->Arg(128)->Arg(256);

// One RK3 iteration of cfd's four device kernels on an in-order queue: the
// kernel bodies' counterpart of BM_CfdIteration.
template <typename Real>
void BM_CfdKernels(benchmark::State& state) {
    apps::cfd::params p;
    p.nx = p.ny = static_cast<std::size_t>(state.range(0));
    p.iterations = 1;
    const auto mesh = apps::cfd::make_mesh(p);
    const auto init = apps::cfd::initial_variables<Real>(p);
    sl::queue q("xeon_6128");
    sl::buffer<Real> vars(init.size());
    q.copy_to_device(vars, init.data());
    for (auto _ : state) {
        apps::cfd::run_iterations(q, p, mesh, altis::Variant::sycl_opt, vars);
        benchmark::DoNotOptimize(vars.host_data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * static_cast<long>(p.nel()));
}
BENCHMARK_TEMPLATE(BM_CfdKernels, float)->Arg(256);
BENCHMARK_TEMPLATE(BM_CfdKernels, double)->Arg(256);

void BM_WhereGolden(benchmark::State& state) {
    apps::where::params p;
    p.n = static_cast<std::size_t>(state.range(0));
    const auto table = apps::where::make_table(p);
    for (auto _ : state) {
        auto out = apps::where::golden(p, table);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * static_cast<long>(p.n));
}
BENCHMARK(BM_WhereGolden)->Range(1 << 14, 1 << 20);

}  // namespace

BENCHMARK_MAIN();
