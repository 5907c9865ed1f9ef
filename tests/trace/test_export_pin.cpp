// Export pin: fixed inputs run under the trace session, the sanitize
// recorder and a metrics session together, through the same cli_harness
// wiring the binaries use. The digests of every exported document and the
// deterministic queue counters are recorded once and never edited: any
// change to how the runtime reports commands to its observers shows up here
// byte for byte.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "apps/common/app.hpp"
#include "apps/common/suite.hpp"
#include "core/registry.hpp"
#include "core/result_database.hpp"
#include "fault/inject.hpp"
#include "metrics/session.hpp"
#include "support/fnv1a.hpp"
#include "sycl/syclite.hpp"
#include "trace/harness.hpp"

namespace altis::trace {
namespace {

std::string slurp(const std::filesystem::path& p) {
    std::ifstream in(p);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/// Digest of an exported document. Three things in the findings depend on
/// the process rather than on the commands, so they are masked first: raw
/// host addresses (ASLR), the USM generation tag "#g<N>" (it counts every
/// pool allocation the process made, including other tests') and the
/// fingerprints hashed over both.
std::uint64_t digest(const std::string& text) {
    static const std::regex ptr("0x[0-9a-fA-F]+");
    static const std::regex gen("#g[0-9]+");
    static const std::regex fp("\"[0-9a-f]{16}\"");
    std::string masked = std::regex_replace(text, ptr, "0x?");
    masked = std::regex_replace(masked, gen, "#g?");
    masked = std::regex_replace(masked, fp, "\"?\"");
    return support::fnv1a(std::span<const char>(masked.data(), masked.size()));
}

std::int64_t counter(const metrics::snapshot& snap, const std::string& name) {
    for (const metrics::metric_value& m : snap.metrics)
        if (m.info.name == name) return m.value;
    return -1;
}

void run_app(const std::string& name, Variant v, const std::string& device) {
    RunConfig cfg;
    cfg.size = 1;
    cfg.device = device;
    cfg.variant = v;
    cfg.passes = 1;
    ResultDatabase db;
    Registry::instance().find(name)->run(cfg, db);
}

TEST(ExportPin, ObserversSeeTheSameCommandStream) {
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("altis_export_pin_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    const std::string chrome = (dir / "pin.json").string();
    const std::string findings = (dir / "findings.json").string();
    const std::string sarif = (dir / "findings.sarif").string();

    apps::register_all_apps();
    // Started before the harness and without a sampler, so nothing
    // wall-clock reaches the trace export.
    metrics::session ms("pin", metrics::session::config{0.0});
    cli_harness h("pin");
    std::vector<std::string> args = {"pin",          "--trace",
                                     chrome,         "--profile",
                                     "--sanitize",   "warn",
                                     "--sanitize-json", findings,
                                     "--sanitize-sarif", sarif};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    ASSERT_EQ(h.parse(static_cast<int>(argv.size()), argv.data()), -1);

    // Dataflow groups with pipes on an FPGA.
    run_app("kmeans", Variant::fpga_opt, "stratix_10");
    // Graph scheduling: lanes, command ids, dependency edges, epochs.
    setenv("ALTIS_OOO", "1", 1);
    run_app("fdtd2d", Variant::sycl_opt, "xeon_6128");
    unsetenv("ALTIS_OOO");
    // Sequential kernels with host<->device copies.
    run_app("srad", Variant::sycl_opt, "xeon_6128");
    // One analytic region, as the figure regenerators simulate them.
    const bench::ConfigOutcome co = bench::run_config(
        bench::suite().front(), Variant::fpga_opt, "stratix_10", 1);
    ASSERT_TRUE(co.ms.has_value());
    {
        // A seeded launch fault, delivered asynchronously at wait().
        fault::plan p = fault::plan::parse("launch:pin_faulty@1");
        fault::scope fs(p);
        int delivered = 0;
        syclite::queue q("rtx_2080", perf::runtime_kind::sycl,
                         [&](syclite::exception_list errs) {
                             delivered += static_cast<int>(errs.size());
                         });
        q.submit([](syclite::handler& hd) {
            perf::kernel_stats k;
            k.name = "pin_faulty";
            hd.single_task(k, [] {});
        });
        q.wait();
        EXPECT_EQ(delivered, 1);
    }
    {
        // A seeded hazard that fires: ALS-H4, a kernel naming freed USM.
        syclite::queue q("xeon_6128");
        int* p = syclite::malloc_shared<int>(32, q);
        ASSERT_NE(p, nullptr);
        const auto addr = reinterpret_cast<std::uintptr_t>(p);
        syclite::usm_free(p, q);
        q.submit([&](syclite::handler& hd) {
            hd.uses_usm(reinterpret_cast<const void*>(addr), 32 * sizeof(int),
                        syclite::access_mode::read);
            perf::kernel_stats k;
            k.name = "pin_stale_user";
            hd.single_task(k, [] {});
        });
        q.wait();
    }

    const metrics::snapshot snap = ms.take_snapshot();
    EXPECT_EQ(h.finish(), 0);
    ms.stop();

    EXPECT_EQ(counter(snap, "syclite_queue_submissions_total"), 334);
    EXPECT_EQ(counter(snap, "syclite_queue_waits_total"), 5);
    EXPECT_EQ(counter(snap, "syclite_queue_dataflow_groups_total"), 1);
    EXPECT_EQ(counter(snap, "syclite_queue_async_errors_total"), 1);
    EXPECT_EQ(counter(snap, "syclite_usm_allocs_total"), 1);
    EXPECT_EQ(counter(snap, "syclite_usm_frees_total"), 1);

    EXPECT_EQ(digest(slurp(chrome)), 4437709965051717442u);
    EXPECT_EQ(digest(slurp(chrome + ".profile.json")), 13089206421541526065u);
    EXPECT_EQ(digest(slurp(findings)), 4469228996564786285u);
    EXPECT_EQ(digest(slurp(sarif)), 15379224416818264316u);
    std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace altis::trace
