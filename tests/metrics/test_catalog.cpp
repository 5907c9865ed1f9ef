// The metric catalog table in docs/OBSERVABILITY.md against the code: its
// rows name exactly the instruments of metrics::catalog(), with the same
// type, and every instrument appears once.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>

#include "metrics/instruments.hpp"

namespace altis::metrics {
namespace {

using name_types = std::map<std::string, char>;

/// name -> type letter (C, G, W, H) of every row of the catalog table.
name_types documented() {
    std::ifstream in(std::string(ALTIS_SOURCE_DIR) + "/docs/OBSERVABILITY.md");
    std::ostringstream os;
    os << in.rdbuf();
    const std::string doc = os.str();
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

char letter(instrument_kind kind) {
    switch (kind) {
        case instrument_kind::counter: return 'C';
        case instrument_kind::gauge: return 'G';
        case instrument_kind::watermark: return 'W';
        case instrument_kind::histogram: return 'H';
    }
    return '?';
}

TEST(MetricCatalog, MatchesTheDeclaredAndTheRegisteredInstruments) {
    const name_types doc = documented();
    name_types code;
    for (const instrument_info& info : catalog())
        EXPECT_TRUE(code.emplace(info.name, letter(info.kind)).second)
            << info.name << " is declared twice";
    ASSERT_FALSE(code.empty());
    for (const auto& [name, type] : code) {
        const auto it = doc.find(name);
        EXPECT_TRUE(it != doc.end()) << name << " is declared but has no row";
        if (it != doc.end()) {
            EXPECT_EQ(it->second, type) << name;
        }
    }
    for (const auto& [name, type] : doc)
        EXPECT_TRUE(code.count(name) > 0)
            << name << " has a row but is not declared";
}

}  // namespace
}  // namespace altis::metrics
