#include "resilience/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <fstream>
#include <set>
#include <stdexcept>
#include <system_error>

#include "core/json.hpp"

namespace altis::resilience {

namespace {

// ---- parsing --------------------------------------------------------------

/// Cursor over one line of the journal's JSON subset. Parse failures set
/// ok=false and stick; callers check once at the end.
struct cursor {
    const char* p;
    const char* end;
    bool ok = true;

    void skip_ws() {
        while (p < end && (*p == ' ' || *p == '\t')) ++p;
    }
    bool consume(char c) {
        skip_ws();
        if (p < end && *p == c) {
            ++p;
            return true;
        }
        ok = false;
        return false;
    }
    [[nodiscard]] bool peek(char c) {
        skip_ws();
        return p < end && *p == c;
    }

    std::string parse_string() {
        std::string s;
        if (!consume('"')) return s;
        while (p < end && *p != '"') {
            char c = *p++;
            if (c != '\\') {
                s += c;
                continue;
            }
            if (p >= end) {
                ok = false;
                return s;
            }
            const char esc = *p++;
            switch (esc) {
                case '"': s += '"'; break;
                case '\\': s += '\\'; break;
                case '/': s += '/'; break;
                case 'n': s += '\n'; break;
                case 't': s += '\t'; break;
                case 'r': s += '\r'; break;
                case 'b': s += '\b'; break;
                case 'f': s += '\f'; break;
                case 'u': {
                    if (end - p < 4) {
                        ok = false;
                        return s;
                    }
                    unsigned code = 0;
                    const auto [ptr, ec] =
                        std::from_chars(p, p + 4, code, 16);
                    if (ec != std::errc{} || ptr != p + 4 || code > 0xFF) {
                        // The writer only emits \u00XX for control bytes.
                        ok = false;
                        return s;
                    }
                    p += 4;
                    s += static_cast<char>(code);
                    break;
                }
                default: ok = false; return s;
            }
        }
        if (p >= end) {
            ok = false;
            return s;
        }
        ++p;  // closing quote
        return s;
    }

    double parse_number() {
        skip_ws();
        double v = 0.0;
        const auto [ptr, ec] = std::from_chars(p, end, v);
        if (ec != std::errc{}) {
            ok = false;
            return 0.0;
        }
        p = ptr;
        return v;
    }

    /// Skip any value (future-proofing: unknown keys are ignored).
    void skip_value() {
        skip_ws();
        if (p >= end) {
            ok = false;
            return;
        }
        if (*p == '"') {
            (void)parse_string();
        } else if (*p == '{') {
            ++p;
            if (peek('}')) {
                ++p;
                return;
            }
            do {
                (void)parse_string();
                consume(':');
                skip_value();
            } while (ok && peek(',') && consume(','));
            consume('}');
        } else if (*p == '[') {
            ++p;
            if (peek(']')) {
                ++p;
                return;
            }
            do {
                skip_value();
            } while (ok && peek(',') && consume(','));
            consume(']');
        } else if (std::strncmp(p, "null", 4) == 0 && end - p >= 4) {
            p += 4;
        } else if (std::strncmp(p, "true", 4) == 0 && end - p >= 4) {
            p += 4;
        } else if (std::strncmp(p, "false", 5) == 0 && end - p >= 5) {
            p += 5;
        } else {
            (void)parse_number();
        }
    }
};

std::vector<double> parse_number_array(cursor& c) {
    std::vector<double> out;
    if (!c.consume('[')) return out;
    if (c.peek(']')) {
        c.consume(']');
        return out;
    }
    do {
        out.push_back(c.parse_number());
    } while (c.ok && c.peek(',') && c.consume(','));
    c.consume(']');
    return out;
}

journal_series parse_series(cursor& c) {
    journal_series s;
    if (!c.consume('{')) return s;
    if (c.peek('}')) {
        c.consume('}');
        return s;
    }
    do {
        const std::string key = c.parse_string();
        c.consume(':');
        if (key == "test") s.test = c.parse_string();
        else if (key == "atts") s.atts = c.parse_string();
        else if (key == "unit") s.unit = c.parse_string();
        else if (key == "values") s.values = parse_number_array(c);
        else c.skip_value();
    } while (c.ok && c.peek(',') && c.consume(','));
    c.consume('}');
    return s;
}

}  // namespace

std::string to_line(const journal_entry& e) {
    std::string out = "{\"config\":";
    json::append_string(out, e.config);
    out += ",\"status\":";
    json::append_string(out, e.status);
    out += ",\"attempts\":" + std::to_string(e.attempts);
    out += ",\"backoff_ms\":";
    json::append_double(out, e.backoff_ms);
    if (!e.error.empty()) {
        out += ",\"error\":";
        json::append_string(out, e.error);
    }
    if (e.value) {
        out += ",\"value\":";
        json::append_double(out, *e.value);
    }
    if (!e.log.empty()) {
        out += ",\"log\":";
        json::append_string(out, e.log);
    }
    if (!e.results.empty()) {
        out += ",\"results\":[";
        for (std::size_t i = 0; i < e.results.size(); ++i) {
            const journal_series& s = e.results[i];
            if (i > 0) out += ',';
            out += "{\"test\":";
            json::append_string(out, s.test);
            out += ",\"atts\":";
            json::append_string(out, s.atts);
            out += ",\"unit\":";
            json::append_string(out, s.unit);
            out += ",\"values\":[";
            for (std::size_t j = 0; j < s.values.size(); ++j) {
                if (j > 0) out += ',';
                json::append_double(out, s.values[j]);
            }
            out += "]}";
        }
        out += ']';
    }
    out += '}';
    return out;
}

std::optional<journal_entry> parse_line(const std::string& line) {
    cursor c{line.data(), line.data() + line.size()};
    journal_entry e;
    bool saw_config = false;
    if (!c.consume('{')) return std::nullopt;
    if (!c.peek('}')) {
        do {
            const std::string key = c.parse_string();
            c.consume(':');
            if (key == "config") {
                e.config = c.parse_string();
                saw_config = true;
            } else if (key == "status") {
                e.status = c.parse_string();
            } else if (key == "attempts") {
                e.attempts = static_cast<int>(c.parse_number());
            } else if (key == "backoff_ms") {
                e.backoff_ms = c.parse_number();
            } else if (key == "error") {
                e.error = c.parse_string();
            } else if (key == "value") {
                e.value = c.parse_number();
            } else if (key == "log") {
                e.log = c.parse_string();
            } else if (key == "results") {
                if (!c.consume('[')) break;
                if (c.peek(']')) {
                    c.consume(']');
                } else {
                    do {
                        e.results.push_back(parse_series(c));
                    } while (c.ok && c.peek(',') && c.consume(','));
                    c.consume(']');
                }
            } else {
                c.skip_value();
            }
        } while (c.ok && c.peek(',') && c.consume(','));
    }
    c.consume('}');
    if (!c.ok || !saw_config) return std::nullopt;
    return e;
}

// ---- writer ---------------------------------------------------------------

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
    throw std::runtime_error(what + ": " + std::strerror(errno));
}

std::string header_line(const std::string& sweep) {
    std::string h = "{\"altis_journal\":1,\"sweep\":";
    json::append_string(h, sweep);
    h += "}\n";
    return h;
}

}  // namespace

journal_writer::journal_writer(std::string path, const std::string& sweep,
                               bool append)
    : path_(std::move(path)) {
    if (append) {
        fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
        if (fd_ < 0) throw_errno("journal: cannot open " + path_);
        // A resumed journal that vanished (or was empty/torn down to
        // nothing) still needs its header.
        if (::lseek(fd_, 0, SEEK_END) == 0) write_line(header_line(sweep));
        return;
    }
    // Fresh journal: land the header atomically so a crash between create
    // and first append cannot leave a headerless file behind.
    const std::string tmp = path_ + ".tmp";
    const int tfd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (tfd < 0) throw_errno("journal: cannot create " + tmp);
    const std::string h = header_line(sweep);
    if (::write(tfd, h.data(), h.size()) !=
        static_cast<ssize_t>(h.size())) {
        ::close(tfd);
        throw_errno("journal: cannot write " + tmp);
    }
    ::fsync(tfd);
    ::close(tfd);
    if (::rename(tmp.c_str(), path_.c_str()) != 0)
        throw_errno("journal: cannot rename " + tmp + " to " + path_);
    fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND);
    if (fd_ < 0) throw_errno("journal: cannot open " + path_);
}

journal_writer::~journal_writer() {
    if (fd_ >= 0) ::close(fd_);
}

void journal_writer::write_line(const std::string& line) {
    std::size_t off = 0;
    while (off < line.size()) {
        const ssize_t n =
            ::write(fd_, line.data() + off, line.size() - off);
        if (n < 0) {
            if (errno == EINTR) continue;
            throw_errno("journal: write failed on " + path_);
        }
        off += static_cast<std::size_t>(n);
    }
    ::fsync(fd_);
}

void journal_writer::append(const journal_entry& e) {
    write_line(to_line(e) + "\n");
}

// ---- reader ---------------------------------------------------------------

std::optional<journal_file> read_journal(const std::string& path,
                                         const std::string& expected_sweep) {
    if (::access(path.c_str(), F_OK) != 0)
        return std::nullopt;  // never started: degrade to a fresh run
    std::ifstream in(path);
    if (!in) throw std::runtime_error("journal: cannot read " + path);
    journal_file jf;
    std::string line;
    std::set<std::string> seen;
    bool saw_header = false;
    while (std::getline(in, line)) {
        if (line.empty()) continue;
        if (!saw_header) {
            // Header is a JSON object too; reuse the entry parser's cursor
            // machinery by hand for its two fields.
            cursor c{line.data(), line.data() + line.size()};
            int version = 0;
            if (c.consume('{')) {
                do {
                    const std::string key = c.parse_string();
                    c.consume(':');
                    if (key == "altis_journal")
                        version = static_cast<int>(c.parse_number());
                    else if (key == "sweep")
                        jf.sweep = c.parse_string();
                    else
                        c.skip_value();
                } while (c.ok && c.peek(',') && c.consume(','));
                c.consume('}');
            }
            if (!c.ok || version != 1)
                throw std::runtime_error(
                    "journal: " + path +
                    " is not an altis journal (bad header)");
            if (jf.sweep != expected_sweep)
                throw std::runtime_error(
                    "journal: " + path + " belongs to sweep '" + jf.sweep +
                    "', not '" + expected_sweep + "'");
            saw_header = true;
            continue;
        }
        // A SIGKILL mid-append leaves at most one torn final line; anything
        // unparseable is treated as not-yet-completed work. Duplicate
        // configs keep the first occurrence -- that is the entry the
        // original run's report was built from.
        if (auto e = parse_line(line)) {
            if (seen.insert(e->config).second)
                jf.entries.push_back(std::move(*e));
        }
    }
    if (!saw_header)
        return std::nullopt;  // empty file: nothing was ever journaled
    return jf;
}

}  // namespace altis::resilience
