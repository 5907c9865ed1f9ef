// JSON text shared by every exporter: one string-escaping rule and one
// shortest round-trip number format, so no exporter keeps its own copy.
//
// Escaping: `"`, `\`, `\n` and `\t` become two-character escapes; every
// other byte below 0x20 becomes `\u00XX` in lowercase hex; all other bytes
// (UTF-8 included) pass through unchanged.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

namespace altis::json {

/// Appends `s` as a quoted, escaped JSON string.
void append_string(std::string& out, std::string_view s);

/// Shortest decimal form that parses back to the same double
/// (`std::to_chars`), so a reader reproduces the value bit for bit.
void append_double(std::string& out, double v);

/// Stream forms of the two writers: `out << json::quoted{name}` and
/// `out << json::number{ts_us}`.
struct quoted {
    std::string_view text;
};
struct number {
    double value;
};
std::ostream& operator<<(std::ostream& out, quoted q);
std::ostream& operator<<(std::ostream& out, number n);

}  // namespace altis::json
