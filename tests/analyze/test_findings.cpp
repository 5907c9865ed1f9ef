// Catalog and report plumbing of altis::sanitize.
#include "analyze/findings.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <stdexcept>

#include "support/mini_json.hpp"

namespace altis::analyze {
namespace {

TEST(RuleCatalog, IdsAreUniqueAndWellFormed) {
    std::set<std::string> ids;
    for (const rule_info& r : rule_catalog()) {
        EXPECT_TRUE(ids.insert(r.id).second) << r.id;
        EXPECT_EQ(std::string(r.id).rfind("ALS-", 0), 0u) << r.id;
        EXPECT_NE(std::string(r.title), "");
        EXPECT_NE(std::string(r.fix_hint), "");
        EXPECT_NE(std::string(r.paper_ref), "");
    }
    // The documented rule pack: 2 hazard, 3 pipe, 6 lint, 3 race-engine
    // rules plus the baseline bookkeeping rule.
    EXPECT_EQ(rule_catalog().size(), 15u);
    // Retired ids stay retired: baseline fingerprints contain rule ids.
    for (const char* id : {"ALS-H1", "ALS-H2"})
        EXPECT_THROW((void)rule(id), std::out_of_range) << id;
}

TEST(RuleCatalog, LookupFillsFindings) {
    const finding f = make_finding("ALS-R1", "k1, k2", "mem#0[0..64)",
                                   "conflict");
    EXPECT_EQ(f.rule, "ALS-R1");
    EXPECT_EQ(f.sev, severity::error);
    EXPECT_EQ(f.fix_hint, std::string(rule("ALS-R1").fix_hint));
    EXPECT_EQ(f.paper_ref, std::string(rule("ALS-R1").paper_ref));
    EXPECT_THROW((void)rule("ALS-X9"), std::out_of_range);
}

TEST(RuleCatalog, SeveritiesMatchTheSpec) {
    for (const char* id : {"ALS-H3", "ALS-H4", "ALS-P1", "ALS-P2", "ALS-L6",
                           "ALS-R1", "ALS-D1"})
        EXPECT_EQ(rule(id).sev, severity::error) << id;
    for (const char* id : {"ALS-P3", "ALS-L1", "ALS-L2", "ALS-L3", "ALS-L4",
                           "ALS-L5", "ALS-R2"})
        EXPECT_EQ(rule(id).sev, severity::warning) << id;
    EXPECT_EQ(rule("ALS-B1").sev, severity::note);
}

TEST(Report, DedupsExactRepeats) {
    report r;
    r.add(make_finding("ALS-L5", "wait", "queue #0", "redundant"));
    r.add(make_finding("ALS-L5", "wait", "queue #0", "redundant"));
    r.add(make_finding("ALS-L5", "wait", "queue #1", "redundant"));
    EXPECT_EQ(r.size(), 2u);
}

TEST(Report, CountAtLeastOrdersSeverities) {
    report r;
    r.add(make_finding("ALS-L1", "k", "", "pow"));       // warning
    r.add(make_finding("ALS-H4", "k", "p", "freed"));    // error
    EXPECT_EQ(r.count_at_least(severity::note), 2u);
    EXPECT_EQ(r.count_at_least(severity::warning), 2u);
    EXPECT_EQ(r.count_at_least(severity::error), 1u);
}

TEST(Report, TextRenderingMentionsRuleAndCount) {
    report r;
    std::ostringstream empty;
    r.render_text(empty);
    EXPECT_NE(empty.str().find("no findings"), std::string::npos);

    r.add(make_finding("ALS-R1", "kern, host", "mem#0[0..4)",
                       "host read race"));
    std::ostringstream out;
    r.render_text(out);
    EXPECT_NE(out.str().find("ALS-R1"), std::string::npos);
    EXPECT_NE(out.str().find("1 finding (1 errors)"), std::string::npos);
}

TEST(Report, JsonRoundTripsThroughStrictParser) {
    report r;
    r.add(make_finding("ALS-P1", "reader", "pipe \"in\"", "no\rwriter\x01"));
    r.add(make_finding("ALS-L1", "pf_propagate", "", "pow(a,2)"));
    std::ostringstream out;
    r.render_json(out);

    const auto doc = mini_json::parse(out.str());
    const auto& findings = doc.at("findings").as_array();
    ASSERT_EQ(findings.size(), 2u);
    // Sorted by (rule, object, kernel): ALS-L1 before ALS-P1.
    const auto& f1 = findings[1];
    EXPECT_EQ(f1.at("rule").as_string(), "ALS-P1");
    EXPECT_EQ(f1.at("severity").as_string(), "error");
    EXPECT_EQ(f1.at("object").as_string(), "pipe \"in\"");
    EXPECT_EQ(f1.at("message").as_string(), "no\rwriter\x01");
    for (const char* key :
         {"rule", "severity", "kernel", "object", "message", "fix_hint",
          "paper_ref", "fingerprint"})
        EXPECT_TRUE(f1.has(key)) << key;
}

TEST(Report, EmptyJsonIsAValidDocument) {
    report r;
    std::ostringstream out;
    r.render_json(out);
    const auto doc = mini_json::parse(out.str());
    EXPECT_EQ(doc.at("findings").as_array().size(), 0u);
}

TEST(Report, FingerprintsAreStableAndPointerBlind) {
    const finding a = make_finding("ALS-R1", "k1, k2", "mem#0[0..64)",
                                   "write/write overlap at 0x7f34a2000010");
    const finding b = make_finding("ALS-R1", "k1, k2", "mem#0[0..64)",
                                   "write/write overlap at 0x55d100aa0010");
    const finding c = make_finding("ALS-R1", "k1, k2", "mem#0[0..32)",
                                   "write/write overlap at 0x7f34a2000010");
    EXPECT_EQ(fingerprint(a).size(), 16u);
    // Raw addresses are canonicalized away: re-running under ASLR must not
    // change the identity of a finding...
    EXPECT_EQ(fingerprint(a), fingerprint(b));
    // ...but any real field difference must.
    EXPECT_NE(fingerprint(a), fingerprint(c));
}

TEST(Report, MergeKeepsDedupAcrossReports) {
    report a;
    a.add(make_finding("ALS-L4", "scan_onedpl", "", "library scan"));
    report b;
    b.add(make_finding("ALS-L4", "scan_onedpl", "", "library scan"));
    b.add(make_finding("ALS-L2", "fdtd_step", "", "simd mismatch"));
    a.merge(b);
    EXPECT_EQ(a.size(), 2u);
}

}  // namespace
}  // namespace altis::analyze
