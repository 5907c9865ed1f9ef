#include "analyze/findings.hpp"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "core/json.hpp"
#include "core/report.hpp"

namespace altis::analyze {

const char* to_string(severity s) {
    switch (s) {
        case severity::note: return "note";
        case severity::warning: return "warning";
        case severity::error: return "error";
    }
    return "?";
}

const std::vector<rule_info>& rule_catalog() {
    static const std::vector<rule_info> catalog = {
        {"ALS-H3", "accessor used after its command group completed",
         severity::error, "Sec. 5.3",
         "create the accessor inside the command group that uses it"},
        {"ALS-H4", "USM use-after-free / invalid free", severity::error,
         "Sec. 3.2.1",
         "keep the allocation alive until the last kernel using it completed"},
        {"ALS-P1", "pipe endpoint without a peer in its dataflow group",
         severity::error, "Fig. 3",
         "submit the matching reader/writer kernel before end_dataflow()"},
        {"ALS-P2", "pipe feedback cycle with insufficient capacity",
         severity::error, "Fig. 3",
         "raise one pipe's capacity above its per-round volume or break the "
         "cycle"},
        {"ALS-P3", "pipe volume mismatch between producer and consumer",
         severity::warning, "Fig. 3",
         "make the total items written equal the total items read"},
        {"ALS-L1", "pow() with a small constant integer exponent",
         severity::warning, "Sec. 3.3",
         "replace pow(x, n) with explicit multiplications (x * x)"},
        {"ALS-L2", "work-group size not divisible by SIMD width",
         severity::warning, "Sec. 5.2",
         "pick a work-group size that is a multiple of num_simd_work_items"},
        {"ALS-L3", "unroll factor unlikely to help", severity::warning,
         "Sec. 5.2-5.3",
         "drop the unroll or restructure the local-memory accesses first"},
        {"ALS-L4", "library scan offloaded to an FPGA", severity::warning,
         "Sec. 5.1",
         "replace the oneDPL call with a custom Single-Task scan"},
        {"ALS-L5", "redundant queue::wait() with no preceding work",
         severity::warning, "Sec. 3.3",
         "remove the extra synchronization"},
        {"ALS-L6", "kernel does not fit the target device", severity::error,
         "Sec. 4",
         "reduce local arrays/unrolling or size local memory exactly"},
        {"ALS-R1", "unordered conflicting access (happens-before race)",
         severity::error, "Fig. 3",
         "order the accesses through a pipe, queue::wait() or the dataflow "
         "group join"},
        {"ALS-R2", "pipe receive straddles a round boundary",
         severity::warning, "Fig. 3",
         "align burst sizes with items_per_round so one read never mixes "
         "two rounds"},
        {"ALS-D1", "observed access outside every declared range",
         severity::error, "Sec. 3.2",
         "declare the touched range with an accessor or uses_usm()"},
        {"ALS-B1", "stale baseline entry", severity::note, "Sec. 6",
         "remove the entry from the baseline file"},
    };
    return catalog;
}

const rule_info& rule(const std::string& id) {
    for (const rule_info& r : rule_catalog())
        if (id == r.id) return r;
    throw std::out_of_range("analyze: unknown rule id " + id);
}

finding make_finding(const std::string& id, std::string kernel,
                     std::string object, std::string message) {
    const rule_info& r = rule(id);
    finding f;
    f.rule = r.id;
    f.sev = r.sev;
    f.kernel = std::move(kernel);
    f.object = std::move(object);
    f.message = std::move(message);
    f.fix_hint = r.fix_hint;
    f.paper_ref = r.paper_ref;
    return f;
}

namespace {

/// Replaces every "0x<hex>" run with "0x?" so fingerprints are identical
/// across address-space layouts.
std::string canonicalize_pointers(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size();) {
        if (s[i] == '0' && i + 2 < s.size() && s[i + 1] == 'x' &&
            (std::isxdigit(static_cast<unsigned char>(s[i + 2])) != 0)) {
            out += "0x?";
            i += 2;
            while (i < s.size() &&
                   std::isxdigit(static_cast<unsigned char>(s[i])) != 0)
                ++i;
            continue;
        }
        out += s[i++];
    }
    return out;
}

}  // namespace

std::string fingerprint(const finding& f) {
    // FNV-1a 64 over the pointer-canonicalized identity fields.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](const std::string& s) {
        for (const char c : s) {
            h ^= static_cast<unsigned char>(c);
            h *= 0x100000001b3ULL;
        }
        h ^= 0x1f;  // field separator
        h *= 0x100000001b3ULL;
    };
    mix(f.rule);
    mix(f.kernel);
    mix(canonicalize_pointers(f.object));
    mix(canonicalize_pointers(f.message));
    static const char* digits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[h & 0xF];
        h >>= 4;
    }
    return out;
}

void report::add(finding f) {
    for (const finding& g : findings_)
        if (g.rule == f.rule && g.kernel == f.kernel && g.object == f.object &&
            g.message == f.message)
            return;
    findings_.push_back(std::move(f));
}

void report::merge(const report& other) {
    for (const finding& f : other.findings_) add(f);
}

std::vector<finding> report::sorted_findings() const {
    std::vector<finding> out = findings_;
    std::sort(out.begin(), out.end(), [](const finding& a, const finding& b) {
        if (a.rule != b.rule) return a.rule < b.rule;
        if (a.object != b.object) return a.object < b.object;
        if (a.kernel != b.kernel) return a.kernel < b.kernel;
        return a.message < b.message;
    });
    return out;
}

std::size_t report::count_at_least(severity s) const {
    std::size_t n = 0;
    for (const finding& f : findings_)
        if (f.sev >= s) ++n;
    return n;
}

void report::render_text(std::ostream& out) const {
    if (findings_.empty()) {
        out << "sanitize: no findings\n";
        return;
    }
    out << "sanitize: " << findings_.size() << " finding"
        << (findings_.size() == 1 ? "" : "s") << " ("
        << count_at_least(severity::error) << " errors)\n";
    const std::vector<finding> sorted = sorted_findings();
    Table t({"rule", "severity", "kernel", "object", "message", "paper"});
    for (const finding& f : sorted)
        t.add_row({f.rule, to_string(f.sev), f.kernel, f.object, f.message,
                   f.paper_ref});
    t.print(out);
    for (const finding& f : sorted)
        out << "  hint [" << f.rule << " " << f.kernel
            << "]: " << f.fix_hint << "\n";
}

void report::render_json(std::ostream& out) const {
    const std::vector<finding> sorted = sorted_findings();
    out << "{\"findings\": [";
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        const finding& f = sorted[i];
        out << (i == 0 ? "" : ",") << "\n  {"
            << "\"rule\": " << json::quoted{f.rule} << ", "
            << "\"severity\": \"" << to_string(f.sev) << "\", "
            << "\"kernel\": " << json::quoted{f.kernel} << ", "
            << "\"object\": " << json::quoted{f.object} << ", "
            << "\"message\": " << json::quoted{f.message} << ", "
            << "\"fix_hint\": " << json::quoted{f.fix_hint} << ", "
            << "\"paper_ref\": " << json::quoted{f.paper_ref} << ", "
            << "\"fingerprint\": \"" << fingerprint(f) << "\"}";
    }
    out << "\n]}\n";
}

}  // namespace altis::analyze
