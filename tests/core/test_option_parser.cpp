#include "core/option_parser.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace altis {
namespace {

std::vector<const char*> argv_of(std::initializer_list<const char*> args) {
    std::vector<const char*> v{"prog"};
    v.insert(v.end(), args.begin(), args.end());
    return v;
}

TEST(OptionParser, DefaultsApplyWhenUnset) {
    OptionParser p;
    add_standard_options(p);
    p.add_flag("json", "emit JSON");
    std::ostringstream os;
    auto args = argv_of({});
    ASSERT_TRUE(p.parse(static_cast<int>(args.size()), args.data(), os));
    EXPECT_EQ(p.get_int("size"), 1);
    EXPECT_EQ(p.get_string("device"), "xeon_6128");
    EXPECT_FALSE(p.get_flag("json"));
}

TEST(OptionParser, ParsesSeparateAndInlineValues) {
    OptionParser p;
    add_standard_options(p);
    p.add_flag("json", "emit JSON");
    std::ostringstream os;
    auto args = argv_of({"--size", "3", "--device=stratix_10", "--json"});
    ASSERT_TRUE(p.parse(static_cast<int>(args.size()), args.data(), os));
    EXPECT_EQ(p.get_int("size"), 3);
    EXPECT_EQ(p.get_string("device"), "stratix_10");
    EXPECT_TRUE(p.get_flag("json"));
}

TEST(OptionParser, UnknownOptionThrows) {
    OptionParser p;
    add_standard_options(p);
    std::ostringstream os;
    auto args = argv_of({"--bogus", "1"});
    EXPECT_THROW(p.parse(static_cast<int>(args.size()), args.data(), os),
                 OptionError);
}

TEST(OptionParser, MissingValueThrows) {
    OptionParser p;
    add_standard_options(p);
    std::ostringstream os;
    auto args = argv_of({"--size"});
    EXPECT_THROW(p.parse(static_cast<int>(args.size()), args.data(), os),
                 OptionError);
}

TEST(OptionParser, NonNumericIntThrows) {
    OptionParser p;
    add_standard_options(p);
    std::ostringstream os;
    auto args = argv_of({"--size", "big"});
    ASSERT_TRUE(p.parse(static_cast<int>(args.size()), args.data(), os));
    EXPECT_THROW((void)p.get_int("size"), OptionError);
}

TEST(OptionParser, HelpShortCircuitsAndPrintsUsage) {
    OptionParser p;
    add_standard_options(p);
    std::ostringstream os;
    auto args = argv_of({"--help"});
    EXPECT_FALSE(p.parse(static_cast<int>(args.size()), args.data(), os));
    EXPECT_NE(os.str().find("--size"), std::string::npos);
}

TEST(OptionParser, PositionalArgumentsCollected) {
    OptionParser p;
    add_standard_options(p);
    std::ostringstream os;
    auto args = argv_of({"kmeans", "--size", "2", "nw"});
    ASSERT_TRUE(p.parse(static_cast<int>(args.size()), args.data(), os));
    ASSERT_EQ(p.positional().size(), 2u);
    EXPECT_EQ(p.positional()[0], "kmeans");
    EXPECT_EQ(p.positional()[1], "nw");
}

TEST(OptionParser, DuplicateRegistrationThrows) {
    OptionParser p;
    p.add_option("size", "1", "x");
    EXPECT_THROW(p.add_option("size", "2", "y"), OptionError);
}

TEST(OptionParser, FlagWithInlineValueThrows) {
    OptionParser p;
    p.add_flag("json", "x");
    std::ostringstream os;
    auto args = argv_of({"--json=1"});
    EXPECT_THROW(p.parse(static_cast<int>(args.size()), args.data(), os),
                 OptionError);
}

TEST(OptionParser, DoubleParsing) {
    OptionParser p;
    p.add_option("tol", "0.5", "tolerance");
    std::ostringstream os;
    auto args = argv_of({"--tol", "1.25"});
    ASSERT_TRUE(p.parse(static_cast<int>(args.size()), args.data(), os));
    EXPECT_DOUBLE_EQ(p.get_double("tol"), 1.25);
}

}  // namespace
}  // namespace altis
