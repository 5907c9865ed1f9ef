// The one writer for run artifacts (trace and profile JSON, metrics
// exports, sanitize findings): open, write, flush, check the stream, so a
// full disk or an unwritable path fails the run instead of leaving a
// truncated file behind a zero exit.
#pragma once

#include <fstream>
#include <ostream>
#include <string>
#include <string_view>

namespace altis {

/// Writes `path` through write(stream). On failure reports
/// `<who>: cannot open <path> for writing` or `<who>: failed writing <path>`
/// to `err` and returns false.
template <typename Write>
bool write_artifact(const std::string& path, std::string_view who,
                    std::ostream& err, Write&& write) {
    std::ofstream f(path);
    if (!f) {
        err << who << ": cannot open " << path << " for writing\n";
        return false;
    }
    write(f);
    f.flush();
    if (!f) {
        err << who << ": failed writing " << path << "\n";
        return false;
    }
    return true;
}

}  // namespace altis
