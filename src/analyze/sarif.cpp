#include "analyze/sarif.hpp"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <ostream>
#include <set>

#include "core/json.hpp"

namespace altis::analyze {

namespace {

const char* sarif_level(severity s) {
    switch (s) {
        case severity::note: return "note";
        case severity::warning: return "warning";
        case severity::error: return "error";
    }
    return "none";
}

std::size_t rule_index(const std::string& id) {
    const std::vector<rule_info>& catalog = rule_catalog();
    for (std::size_t i = 0; i < catalog.size(); ++i)
        if (id == catalog[i].id) return i;
    return 0;
}

}  // namespace

void render_sarif(const report& r, std::ostream& out) {
    out << "{\n"
        << "  \"$schema\": "
           "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
        << "  \"version\": \"2.1.0\",\n"
        << "  \"runs\": [\n"
        << "    {\n"
        << "      \"tool\": {\n"
        << "        \"driver\": {\n"
        << "          \"name\": \"altis-sanitize\",\n"
        << "          \"informationUri\": "
           "\"https://github.com/altis-sycl/altis-sycl\",\n"
        << "          \"rules\": [";
    const std::vector<rule_info>& catalog = rule_catalog();
    for (std::size_t i = 0; i < catalog.size(); ++i) {
        const rule_info& ri = catalog[i];
        out << (i == 0 ? "" : ",") << "\n            {"
            << "\"id\": \"" << ri.id << "\", "
            << "\"shortDescription\": {\"text\": " << json::quoted{ri.title}
            << "}, \"help\": {\"text\": " << json::quoted{ri.fix_hint} << "}, "
            << "\"defaultConfiguration\": {\"level\": \""
            << sarif_level(ri.sev) << "\"}, "
            << "\"properties\": {\"paperRef\": " << json::quoted{ri.paper_ref}
            << "}}";
    }
    out << "\n          ]\n"
        << "        }\n"
        << "      },\n"
        << "      \"results\": [";
    const std::vector<finding> findings = r.sorted_findings();
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const finding& f = findings[i];
        out << (i == 0 ? "" : ",") << "\n        {"
            << "\"ruleId\": " << json::quoted{f.rule} << ", "
            << "\"ruleIndex\": " << rule_index(f.rule) << ", "
            << "\"level\": \"" << sarif_level(f.sev) << "\", "
            << "\"message\": {\"text\": " << json::quoted{f.message} << "}, "
            << "\"locations\": [{\"logicalLocations\": [{\"name\": "
            << json::quoted{f.kernel} << ", \"fullyQualifiedName\": "
            << json::quoted{f.kernel + "::" + f.object}
            << ", \"kind\": \"function\"}]}], "
            << "\"partialFingerprints\": {\"altisSanitizeFingerprint/v1\": "
               "\""
            << fingerprint(f) << "\"}, "
            << "\"properties\": {\"object\": " << json::quoted{f.object}
            << ", \"fixHint\": " << json::quoted{f.fix_hint} << "}}";
    }
    out << "\n      ]\n"
        << "    }\n"
        << "  ]\n"
        << "}\n";
}

std::vector<std::string> parse_baseline(const std::string& text) {
    std::vector<std::string> out;
    std::set<std::string> seen;
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] != '"') continue;
        const std::size_t close = text.find('"', i + 1);
        if (close == std::string::npos) break;
        const std::string token = text.substr(i + 1, close - i - 1);
        i = close;
        if (token.size() != 16) continue;
        const bool hex = std::all_of(token.begin(), token.end(), [](char c) {
            return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
        });
        if (hex && seen.insert(token).second) out.push_back(token);
    }
    return out;
}

report apply_baseline(const report& r,
                      const std::vector<std::string>& baseline) {
    report out;
    std::set<std::string> unmatched(baseline.begin(), baseline.end());
    for (const finding& f : r.findings()) {
        finding g = f;
        if (unmatched.erase(fingerprint(f)) > 0 ||
            std::find(baseline.begin(), baseline.end(), fingerprint(f)) !=
                baseline.end())
            g.sev = severity::note;  // known finding: keep visible, don't gate
        out.add(std::move(g));
    }
    // Stale entries surface in fingerprint order (set iteration), stable
    // across runs because fingerprints are pointer-free.
    for (const std::string& fp : unmatched)
        out.add(make_finding("ALS-B1", "baseline", fp,
                             "baseline entry " + fp +
                                 " matches no current finding -- remove it"));
    return out;
}

}  // namespace altis::analyze
