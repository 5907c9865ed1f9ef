// SARIF v2.1.0 exporter and the baseline/suppression workflow. The strict
// mini_json round-trip locks down well-formedness; the structural checks pin
// the subset of the schema GitHub code scanning actually consumes.
#include "analyze/sarif.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "analyze/options.hpp"
#include "support/mini_json.hpp"

namespace altis::analyze {
namespace {

report sample_report() {
    report r;
    r.add(make_finding("ALS-R1", "writer_a, writer_b", "mem#0[0..64)",
                       "write by 'writer_a' and write by 'writer_b' overlap"
                       "\r\x01"));
    r.add(make_finding("ALS-L1", "pf_propagate", "", "pow(a,2)"));
    return r;
}

std::string render(const report& r) {
    std::ostringstream os;
    render_sarif(r, os);
    return os.str();
}

TEST(Sarif, DocumentHasTheRequiredStructure) {
    const auto doc = mini_json::parse(render(sample_report()));
    EXPECT_EQ(doc.at("version").as_string(), "2.1.0");
    EXPECT_NE(doc.at("$schema").as_string().find("sarif-2.1.0"),
              std::string::npos);
    const auto& runs = doc.at("runs").as_array();
    ASSERT_EQ(runs.size(), 1u);
    const auto& driver = runs[0].at("tool").at("driver");
    EXPECT_EQ(driver.at("name").as_string(), "altis-sanitize");
    // Every catalog rule ships as reportingDescriptor metadata.
    EXPECT_EQ(driver.at("rules").as_array().size(), rule_catalog().size());

    const auto& results = runs[0].at("results").as_array();
    ASSERT_EQ(results.size(), 2u);
    // Sorted like render_json: ALS-L1 before ALS-R1.
    const auto& r1 = results[1];
    EXPECT_EQ(r1.at("ruleId").as_string(), "ALS-R1");
    EXPECT_EQ(r1.at("level").as_string(), "error");
    EXPECT_EQ(r1.at("message").at("text").as_string(),
              "write by 'writer_a' and write by 'writer_b' overlap\r\x01");
    const auto& logical =
        r1.at("locations").as_array()[0].at("logicalLocations").as_array()[0];
    EXPECT_EQ(logical.at("name").as_string(), "writer_a, writer_b");
    const std::string fp = r1.at("partialFingerprints")
                               .at("altisSanitizeFingerprint/v1")
                               .as_string();
    EXPECT_EQ(fp.size(), 16u);
    // ruleIndex must point at the ruleId's descriptor.
    const auto idx = static_cast<std::size_t>(
        r1.at("ruleIndex").as_number());
    EXPECT_EQ(driver.at("rules").as_array()[idx].at("id").as_string(),
              "ALS-R1");
}

TEST(Sarif, EmptyReportIsStillAValidRun) {
    const auto doc = mini_json::parse(render(report{}));
    EXPECT_EQ(
        doc.at("runs").as_array()[0].at("results").as_array().size(), 0u);
}

TEST(Sarif, RenderingIsByteStable) {
    EXPECT_EQ(render(sample_report()), render(sample_report()));
}

TEST(Baseline, ParserIsShapeTolerant) {
    // A hand-written list, a saved SARIF run, and junk-in-between all work:
    // anything that is not exactly 16 lowercase hex chars is ignored.
    const auto fps = parse_baseline(
        R"({"findings": [{"fingerprint": "0123456789abcdef"}],
            "partialFingerprints": {"v1": "ffffffffffffffff"},
            "not_a_fp": ["0123", "0123456789ABCDEF", "xyz3456789abcdef",
                         "0123456789abcdef"]})");
    ASSERT_EQ(fps.size(), 2u);
    EXPECT_EQ(fps[0], "0123456789abcdef");
    EXPECT_EQ(fps[1], "ffffffffffffffff");
}

TEST(Baseline, KnownFindingsAreDemotedToNotes) {
    const report r = sample_report();
    const finding& race = r.findings()[0];
    ASSERT_EQ(race.rule, "ALS-R1");
    const report masked = apply_baseline(r, {fingerprint(race)});
    ASSERT_EQ(masked.size(), 2u);
    // Demoted finding stays visible but no longer gates --sanitize error...
    std::size_t notes = 0;
    for (const finding& f : masked.findings()) {
        if (f.rule == "ALS-R1") {
            EXPECT_EQ(f.sev, severity::note);
            ++notes;
        }
        // ...and its identity is unchanged (severity is not hashed), so the
        // same baseline entry keeps matching on the next run.
        if (f.rule == "ALS-R1") {
            EXPECT_EQ(fingerprint(f), fingerprint(race));
        }
    }
    EXPECT_EQ(notes, 1u);
    // The ALS-L1 warning is still live: only listed findings are demoted.
    EXPECT_EQ(masked.count_at_least(severity::warning), 1u);
}

TEST(Baseline, StaleEntriesSurfaceAsAlsB1) {
    const report masked =
        apply_baseline(sample_report(), {"deadbeefdeadbeef"});
    bool found = false;
    for (const finding& f : masked.findings()) {
        if (f.rule != "ALS-B1") continue;
        found = true;
        EXPECT_EQ(f.sev, severity::note);
        EXPECT_EQ(f.object, "deadbeefdeadbeef");
        EXPECT_NE(f.message.find("matches no current finding"),
                  std::string::npos);
    }
    EXPECT_TRUE(found);
}

TEST(Baseline, FullyMaskedReportDoesNotGate) {
    const report r = sample_report();
    std::vector<std::string> all;
    for (const finding& f : r.findings()) all.push_back(fingerprint(f));
    const report masked = apply_baseline(r, all);
    EXPECT_EQ(masked.count_at_least(severity::warning), 0u);
    EXPECT_EQ(masked.count_at_least(severity::note), 2u);
}

// A findings export that cannot be written fails the run with exit code 2,
// whether the path cannot be opened or the device fills up mid-write.
TEST(SanitizeOptions, FinishReportsUnwritableExports) {
    const recorder rec;
    const struct {
        const char* path;
        const char* message;
    } cases[] = {
        {"/dev/full", "sanitize: failed writing /dev/full"},
        {"/nonexistent-dir/findings",
         "sanitize: cannot open /nonexistent-dir/findings for writing"},
    };
    for (const auto& c : cases) {
        for (const bool sarif : {false, true}) {
            options o;
            o.lv = level::warn;
            (sarif ? o.sarif_path : o.json_path) = c.path;
            std::ostringstream out, err;
            EXPECT_EQ(finish(rec, o, out, err), 2) << c.path;
            EXPECT_NE(err.str().find(c.message), std::string::npos)
                << err.str();
        }
    }
}

}  // namespace
}  // namespace altis::analyze
