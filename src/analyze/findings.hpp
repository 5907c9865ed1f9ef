// Findings: what the sanitize passes produce. Every finding cites a rule
// from the fixed catalog below; the catalog carries the severity, the paper
// reference and the generic fix-hint so individual passes only supply the
// provenance (kernel, object) and the specific message.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace altis::analyze {

enum class severity { note, warning, error };

[[nodiscard]] const char* to_string(severity s);

/// Rule identifiers (ALS = "Altis Sanitize"). H = hazard, P = pipe topology,
/// L = lint. docs/SANITIZER.md is the human-readable catalog.
struct rule_info {
    const char* id;
    const char* title;
    severity sev;
    const char* paper_ref;  ///< paper section/figure motivating the rule
    const char* fix_hint;
};

/// The full rule catalog, in id order.
[[nodiscard]] const std::vector<rule_info>& rule_catalog();
/// Lookup by id; throws std::out_of_range for unknown ids.
[[nodiscard]] const rule_info& rule(const std::string& id);

struct finding {
    std::string rule;     ///< catalog id, e.g. "ALS-R1"
    severity sev = severity::warning;
    std::string kernel;   ///< kernel(s) or operation the finding points at
    std::string object;   ///< buffer range, pipe name, USM region, ...
    std::string message;
    std::string fix_hint;
    std::string paper_ref;
};

/// Builds a finding from the catalog entry for `id` (severity, hint and
/// paper reference filled in) plus the caller's provenance and message.
[[nodiscard]] finding make_finding(const std::string& id, std::string kernel,
                                   std::string object, std::string message);

/// Stable 64-bit fingerprint (16 lowercase hex chars) over the finding's
/// identity (rule, kernel, object, message). Hex pointer runs ("0x7f...")
/// are canonicalized away first, so the fingerprint survives ASLR -- the
/// SARIF partialFingerprints / baseline contract.
[[nodiscard]] std::string fingerprint(const finding& f);

/// Ordered, deduplicated collection of findings. Apps run `--passes` times,
/// so the same hazard recurs identically; add() drops exact repeats.
class report {
public:
    void add(finding f);
    void merge(const report& other);

    [[nodiscard]] const std::vector<finding>& findings() const {
        return findings_;
    }
    /// Findings sorted by (rule, object, kernel) -- the render order of every
    /// exporter, byte-stable across runs regardless of discovery order.
    [[nodiscard]] std::vector<finding> sorted_findings() const;
    [[nodiscard]] bool empty() const { return findings_.empty(); }
    [[nodiscard]] std::size_t size() const { return findings_.size(); }
    /// Number of findings at `s` or above.
    [[nodiscard]] std::size_t count_at_least(severity s) const;

    /// Fixed-width console table (header + one row per finding + hint lines).
    /// Prints "sanitize: no findings" when empty.
    void render_text(std::ostream& out) const;
    /// JSON object {"findings": [...]} (schema in docs/SANITIZER.md); a clean
    /// report renders as a valid empty document, never an empty file.
    void render_json(std::ostream& out) const;

private:
    std::vector<finding> findings_;
};

}  // namespace altis::analyze
