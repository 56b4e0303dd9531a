#include "util/flags.hpp"

#include <gtest/gtest.h>

namespace coreda::util {
namespace {

TEST(FlagsTest, CommandAndFlags) {
  const Flags f = Flags::parse(
      {"simulate", "--adl=Tea-making", "--severity=0.5", "--transcript"});
  EXPECT_EQ(f.command(), "simulate");
  EXPECT_EQ(f.get("adl"), "Tea-making");
  EXPECT_DOUBLE_EQ(f.get_double("severity", 0.0), 0.5);
  EXPECT_TRUE(f.get_bool("transcript"));
}

TEST(FlagsTest, EmptyInput) {
  const Flags f = Flags::parse(std::vector<std::string>{});
  EXPECT_TRUE(f.command().empty());
  EXPECT_TRUE(f.positional().empty());
}

TEST(FlagsTest, FlagsBeforeCommand) {
  const Flags f = Flags::parse({"--seed=7", "train"});
  EXPECT_EQ(f.command(), "train");
  EXPECT_EQ(f.get_int("seed", 0), 7);
}

TEST(FlagsTest, PositionalArguments) {
  const Flags f = Flags::parse({"prompt", "a.policy", "b.policy"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "a.policy");
}

TEST(FlagsTest, DoubleDashEndsFlagParsing) {
  const Flags f = Flags::parse({"cmd", "--", "--not-a-flag"});
  EXPECT_FALSE(f.has("not-a-flag"));
  ASSERT_EQ(f.positional().size(), 1u);
  EXPECT_EQ(f.positional()[0], "--not-a-flag");
}

TEST(FlagsTest, Fallbacks) {
  const Flags f = Flags::parse({"cmd"});
  EXPECT_EQ(f.get("missing", "x"), "x");
  EXPECT_DOUBLE_EQ(f.get_double("missing", 1.5), 1.5);
  EXPECT_EQ(f.get_int("missing", 9), 9);
  EXPECT_FALSE(f.get_bool("missing"));
  EXPECT_TRUE(f.get_bool("missing", true));
}

TEST(FlagsTest, BadNumbersThrow) {
  const Flags f = Flags::parse({"cmd", "--n=abc", "--x=1.5z"});
  EXPECT_THROW(f.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(f.get_double("x", 0.0), std::invalid_argument);
}

TEST(FlagsTest, CountsRejectNegativesInsteadOfWrapping) {
  const Flags f =
      Flags::parse({"cmd", "--n=3", "--zero=0", "--neg=-1", "--bad=2x"});
  EXPECT_EQ(f.get_count("n", 9), 3u);
  EXPECT_EQ(f.get_count("zero", 9), 0u);
  EXPECT_EQ(f.get_count("missing", 9), 9u);
  EXPECT_THROW(f.get_count("neg", 0), std::invalid_argument);
  EXPECT_THROW(f.get_count("bad", 0), std::invalid_argument);
}

TEST(FlagsTest, BoolSpellings) {
  const Flags f = Flags::parse(
      {"cmd", "--a=true", "--b=false", "--c=1", "--d=no", "--e=maybe"});
  EXPECT_TRUE(f.get_bool("a"));
  EXPECT_FALSE(f.get_bool("b"));
  EXPECT_TRUE(f.get_bool("c"));
  EXPECT_FALSE(f.get_bool("d"));
  EXPECT_THROW(f.get_bool("e"), std::invalid_argument);
}

TEST(FlagsTest, ValueWithEquals) {
  const Flags f = Flags::parse({"cmd", "--expr=a=b"});
  EXPECT_EQ(f.get("expr"), "a=b");
}

TEST(FlagsTest, LastValueWins) {
  const Flags f = Flags::parse({"cmd", "--k=1", "--k=2"});
  EXPECT_EQ(f.get("k"), "2");
}

TEST(FlagsTest, KeysEnumerated) {
  const Flags f = Flags::parse({"cmd", "--b=2", "--a=1"});
  const auto keys = f.keys();
  ASSERT_EQ(keys.size(), 2u);  // sorted by map order
  EXPECT_EQ(keys[0], "a");
  EXPECT_EQ(keys[1], "b");
}

TEST(FlagsTest, ArgvOverload) {
  const char* argv[] = {"coreda", "list", "--verbose"};
  const Flags f = Flags::parse(3, argv);
  EXPECT_EQ(f.command(), "list");
  EXPECT_TRUE(f.get_bool("verbose"));
}

}  // namespace
}  // namespace coreda::util
