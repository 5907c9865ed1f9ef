#include "core/option_parser.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <ostream>

namespace altis {

void OptionParser::add_option(const std::string& long_name,
                              const std::string& default_value,
                              const std::string& help) {
    if (find(long_name) != nullptr)
        throw OptionError("duplicate option: --" + long_name);
    options_.push_back(Option{long_name, default_value, help, false, false});
}

void OptionParser::add_flag(const std::string& long_name, const std::string& help) {
    if (find(long_name) != nullptr)
        throw OptionError("duplicate option: --" + long_name);
    options_.push_back(Option{long_name, "0", help, true, false});
}

OptionParser::Option* OptionParser::find(const std::string& name) {
    for (auto& o : options_)
        if (o.name == name) return &o;
    return nullptr;
}

const OptionParser::Option* OptionParser::find(const std::string& name) const {
    for (const auto& o : options_)
        if (o.name == name) return &o;
    return nullptr;
}

bool OptionParser::parse(int argc, const char* const* argv, std::ostream& out) {
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            print_usage(out);
            return false;
        }
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        std::string name = arg.substr(2);
        std::string inline_value;
        bool has_inline = false;
        if (auto eq = name.find('='); eq != std::string::npos) {
            inline_value = name.substr(eq + 1);
            name = name.substr(0, eq);
            has_inline = true;
        }
        Option* opt = find(name);
        if (opt == nullptr) throw OptionError("unknown option: --" + name);
        opt->seen = true;
        if (opt->is_flag) {
            if (has_inline) throw OptionError("flag --" + name + " takes no value");
            opt->value = "1";
        } else if (has_inline) {
            opt->value = inline_value;
        } else {
            if (i + 1 >= argc)
                throw OptionError("option --" + name + " requires a value");
            opt->value = argv[++i];
        }
    }
    return true;
}

std::string OptionParser::get_string(const std::string& name) const {
    const Option* opt = find(name);
    if (opt == nullptr) throw OptionError("option not registered: --" + name);
    return opt->value;
}

std::int64_t OptionParser::get_int(const std::string& name) const {
    const std::string v = get_string(name);
    char* end = nullptr;
    errno = 0;
    const long long parsed = std::strtoll(v.c_str(), &end, 10);
    if (end == v.c_str() || *end != '\0')
        throw OptionError("option --" + name + " expects an integer, got: " + v);
    if (errno == ERANGE)
        throw OptionError("option --" + name + " value out of range: " + v);
    return parsed;
}

double OptionParser::get_double(const std::string& name) const {
    const std::string v = get_string(name);
    char* end = nullptr;
    errno = 0;
    const double parsed = std::strtod(v.c_str(), &end);
    if (end == v.c_str() || *end != '\0')
        throw OptionError("option --" + name + " expects a number, got: " + v);
    if (errno == ERANGE && !std::isfinite(parsed))
        throw OptionError("option --" + name + " value out of range: " + v);
    return parsed;
}

bool OptionParser::get_flag(const std::string& name) const {
    return get_string(name) == "1";
}

void OptionParser::print_usage(std::ostream& out) const {
    out << "options:\n";
    for (const auto& o : options_) {
        out << "  --" << o.name;
        if (!o.is_flag) out << " <value> (default: " << o.value << ")";
        out << "\n      " << o.help << '\n';
    }
}

void add_standard_options(OptionParser& parser) {
    parser.add_option("size", "1", "problem size preset: 1, 2 or 3");
    parser.add_option("device", "xeon_6128",
                      "target device: xeon_6128, rtx_2080, a100, max_1100, "
                      "stratix_10, agilex");
    parser.add_option("passes", "3", "number of measured trials");
}

}  // namespace altis
