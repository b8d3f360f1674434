// Unit tests for the command-line parser.
#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace sfc::util {
namespace {

ArgParser make_parser() {
  ArgParser p("prog", "test program");
  p.add_flag("full", "run at paper scale");
  p.add_option("particles", "particle count", "1000");
  p.add_option("sigma", "normal sigma fraction", "0.2");
  p.add_option("curve", "curve name", "hilbert");
  return p;
}

TEST(ArgParser, DefaultsApply) {
  auto p = make_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(p.parse(1, argv));
  EXPECT_FALSE(p.flag("full"));
  EXPECT_EQ(p.i64("particles"), 1000);
  EXPECT_DOUBLE_EQ(p.f64("sigma"), 0.2);
  EXPECT_EQ(p.str("curve"), "hilbert");
}

TEST(ArgParser, SpaceSeparatedValues) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--particles", "250000", "--full"};
  ASSERT_TRUE(p.parse(4, argv));
  EXPECT_TRUE(p.flag("full"));
  EXPECT_EQ(p.i64("particles"), 250000);
}

TEST(ArgParser, EqualsSeparatedValues) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--sigma=0.5", "--curve=gray"};
  ASSERT_TRUE(p.parse(3, argv));
  EXPECT_DOUBLE_EQ(p.f64("sigma"), 0.5);
  EXPECT_EQ(p.str("curve"), "gray");
}

TEST(ArgParser, UnknownOptionFails) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--bogus", "1"};
  EXPECT_FALSE(p.parse(3, argv));
  EXPECT_NE(p.error().find("bogus"), std::string::npos);
}

TEST(ArgParser, MissingValueFails) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--particles"};
  EXPECT_FALSE(p.parse(2, argv));
}

TEST(ArgParser, FlagWithValueFails) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--full=yes"};
  EXPECT_FALSE(p.parse(2, argv));
}

TEST(ArgParser, PositionalArgumentFails) {
  auto p = make_parser();
  const char* argv[] = {"prog", "positional"};
  EXPECT_FALSE(p.parse(2, argv));
}

TEST(ArgParser, HelpRequested) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--help"};
  ASSERT_TRUE(p.parse(2, argv));
  EXPECT_TRUE(p.help_requested());
  EXPECT_NE(p.usage().find("particles"), std::string::npos);
}

TEST(ArgParser, U32RejectsValuesOutOfRangeInsteadOfWrapping) {
  for (const char* bad : {"4294967300", "4294967296", "-1"}) {
    auto p = make_parser();
    const char* argv[] = {"prog", "--particles", bad};
    ASSERT_TRUE(p.parse(3, argv));
    try {
      (void)p.u32("particles");
      ADD_FAILURE() << bad << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--particles"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ArgParser, U32AcceptsItsRange) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--particles", "65536"};
  ASSERT_TRUE(p.parse(3, argv));
  EXPECT_EQ(p.u32("particles"), 65536u);
  const char* top[] = {"prog", "--particles=4294967295"};
  ASSERT_TRUE(p.parse(2, top));
  EXPECT_EQ(p.u32("particles"), 4294967295u);
}

}  // namespace
}  // namespace sfc::util
