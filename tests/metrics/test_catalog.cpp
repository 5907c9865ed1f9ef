// The metric catalog table in docs/OBSERVABILITY.md against the code. Its
// rows name exactly the instruments src/metrics/instruments.hpp declares,
// with the same type, and every instrument a metered run of every app
// registers has a row. Registration is lazy, and some instruments (pipe
// parks, fault retries, resilience events) register only when their event
// happens, so the declared set is what the catalog must match in full.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include "analyze/sanitize.hpp"
#include "apps/common/app.hpp"
#include "core/registry.hpp"
#include "core/result_database.hpp"
#include "metrics/registry.hpp"
#include "metrics/session.hpp"

namespace altis::metrics {
namespace {

using name_types = std::map<std::string, char>;

std::string slurp(const std::string& rel) {
    std::ifstream in(std::string(ALTIS_SOURCE_DIR) + "/" + rel);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/// name -> type letter (C, G, W, H) of every row of the catalog table.
name_types catalog() {
    const std::string doc = slurp("docs/OBSERVABILITY.md");
    const std::size_t from = doc.find("### Metric catalog");
    const std::size_t to = doc.find("\n### ", from + 1);
    const std::string table = doc.substr(from, to - from);
    static const std::regex row(R"(\n\| `([a-z_]+)` \| ([CGWH]) \|)");
    name_types out;
    for (std::sregex_iterator it(table.begin(), table.end(), row), end;
         it != end; ++it)
        out[(*it)[1]] = (*it)[2].str()[0];
    return out;
}

char letter(const std::string& kind) {
    if (kind == "counter") return 'C';
    if (kind == "gauge") return 'G';
    if (kind == "watermark") return 'W';
    return 'H';
}

/// name -> type letter of every get_<kind>("name", ...) in instruments.hpp.
name_types declared() {
    const std::string src = slurp("src/metrics/instruments.hpp");
    static const std::regex reg(
        R"re(get_(counter|gauge|watermark|histogram)\(\s*"([a-z_]+)")re");
    name_types out;
    for (std::sregex_iterator it(src.begin(), src.end(), reg), end; it != end;
         ++it)
        out[(*it)[2]] = letter((*it)[1]);
    return out;
}

TEST(MetricCatalog, MatchesTheDeclaredAndTheRegisteredInstruments) {
    const name_types doc = catalog();
    const name_types decl = declared();
    ASSERT_FALSE(doc.empty());
    ASSERT_FALSE(decl.empty());
    for (const auto& [name, type] : decl) {
        const auto it = doc.find(name);
        EXPECT_TRUE(it != doc.end()) << name << " is declared but has no row";
        if (it != doc.end()) {
            EXPECT_EQ(it->second, type) << name;
        }
    }
    for (const auto& [name, type] : doc)
        EXPECT_TRUE(decl.count(name) > 0)
            << name << " has a row but is not declared";

    // The registry is process-wide: skip what other tests registered first.
    std::set<std::string> before;
    for (const instrument_info& info : registry::instance().instruments())
        before.insert(info.name);
    apps::register_all_apps();
    session s("catalog", session::config{0.0});
    for (const AppInfo& app : Registry::instance().apps()) {
        const RunConfig cfg;  // size 1, one pass, sycl_opt on xeon_6128
        ResultDatabase db;
        ASSERT_NO_THROW(app.run(cfg, db)) << app.name;
    }
    {
        // The sanitize counters register under a recorder and its passes.
        analyze::recorder rec;
        {
            analyze::recorder::scope scope(rec);
            const RunConfig cfg;
            ResultDatabase db;
            ASSERT_NO_THROW(Registry::instance().find("where")->run(cfg, db));
        }
        (void)analyze::run_all(rec);
    }
    s.stop();

    std::set<std::string> registered;
    for (const instrument_info& info : registry::instance().instruments()) {
        registered.insert(info.name);
        if (before.count(info.name) > 0) continue;
        const auto it = doc.find(info.name);
        EXPECT_TRUE(it != doc.end())
            << info.name << " is registered but has no row";
        if (it != doc.end()) {
            EXPECT_EQ(it->second, letter(to_string(info.kind))) << info.name;
        }
    }
    for (const char* name : {"syclite_queue_submissions_total",
                             "altis_mem_pool_hits_total",
                             "altis_sanitize_shadow_intervals_total",
                             "altis_sanitize_race_checks_total"})
        EXPECT_EQ(registered.count(name), 1u) << name << " was not registered";
}

}  // namespace
}  // namespace altis::metrics
