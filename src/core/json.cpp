#include "core/json.hpp"

#include <charconv>
#include <ostream>

namespace altis::json {
namespace {

/// The escape for byte `c`, or an empty view when it passes through.
std::string_view escape(char c, char (&buf)[6]) {
    switch (c) {
        case '"': return "\\\"";
        case '\\': return "\\\\";
        case '\n': return "\\n";
        case '\t': return "\\t";
        default: break;
    }
    const auto u = static_cast<unsigned char>(c);
    if (u >= 0x20) return {};
    static constexpr char hex[] = "0123456789abcdef";
    buf[0] = '\\';
    buf[1] = 'u';
    buf[2] = '0';
    buf[3] = '0';
    buf[4] = hex[u >> 4];
    buf[5] = hex[u & 0xF];
    return {buf, sizeof buf};
}

/// Feeds `put` the quoted form of `s`, passing runs of plain bytes whole.
template <class Put>
void write_quoted(std::string_view s, Put&& put) {
    put("\"");
    char buf[6];
    std::size_t plain = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const std::string_view esc = escape(s[i], buf);
        if (esc.empty()) continue;
        put(s.substr(plain, i - plain));
        put(esc);
        plain = i + 1;
    }
    put(s.substr(plain));
    put("\"");
}

std::string_view format_double(double v, char (&buf)[64]) {
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
    if (ec != std::errc{}) return "0";
    return {buf, static_cast<std::size_t>(ptr - buf)};
}

}  // namespace

void append_string(std::string& out, std::string_view s) {
    write_quoted(s, [&](std::string_view part) { out.append(part); });
}

void append_double(std::string& out, double v) {
    char buf[64];
    out.append(format_double(v, buf));
}

std::ostream& operator<<(std::ostream& out, quoted q) {
    write_quoted(q.text, [&](std::string_view part) {
        out.write(part.data(), static_cast<std::streamsize>(part.size()));
    });
    return out;
}

std::ostream& operator<<(std::ostream& out, number n) {
    char buf[64];
    const std::string_view text = format_double(n.value, buf);
    return out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

}  // namespace altis::json
