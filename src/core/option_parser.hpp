// Minimal command-line option parser modeled on the one Altis ships: every
// benchmark binary accepts `--size {1,2,3}`, `--device <name>`, `--passes N`
// plus app-specific options registered by the harness.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace altis {

class OptionError : public std::runtime_error {
    using std::runtime_error::runtime_error;
};

class OptionParser {
public:
    /// Register an option before parse(). `long_name` without leading dashes.
    void add_option(const std::string& long_name, const std::string& default_value,
                    const std::string& help);
    void add_flag(const std::string& long_name, const std::string& help);

    /// Parses argv. Throws OptionError on unknown options or missing values.
    /// Returns false if --help was requested (usage already printed to out).
    bool parse(int argc, const char* const* argv, std::ostream& out);

    [[nodiscard]] std::string get_string(const std::string& name) const;
    [[nodiscard]] std::int64_t get_int(const std::string& name) const;
    [[nodiscard]] double get_double(const std::string& name) const;
    [[nodiscard]] bool get_flag(const std::string& name) const;

    /// Positional arguments left over after option parsing.
    [[nodiscard]] const std::vector<std::string>& positional() const {
        return positional_;
    }

    void print_usage(std::ostream& out) const;

private:
    struct Option {
        std::string name;
        std::string value;
        std::string help;
        bool is_flag = false;
        bool seen = false;
    };
    Option* find(const std::string& name);
    const Option* find(const std::string& name) const;

    std::vector<Option> options_;
    std::vector<std::string> positional_;
};

/// Registers the options every Altis binary shares (--size, --device,
/// --passes).
void add_standard_options(OptionParser& parser);

}  // namespace altis
