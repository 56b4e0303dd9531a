// util/plan_text is the single definition of the line-oriented plan-text
// vocabulary shared by faults::FaultPlan and sim::ScenarioPlan. The
// diagnostics here are load-bearing: FaultPlan's messages predate the
// extraction and must not change (satellite contract of the refactor), so
// every assertion below pins the exact text.
#include "util/plan_text.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>

namespace coreda::util {
namespace {

std::string thrown_what(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "<no throw>";
}

TEST(PlanTextTest, TrimStripsEdgesOnly) {
  EXPECT_EQ(trim("  a b \t"), "a b");
  EXPECT_EQ(trim("\r\t  \r"), "");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(leading_ws("  \tx"), 3u);
  EXPECT_EQ(leading_ws("x"), 0u);
  EXPECT_EQ(leading_ws("   "), 3u);
}

TEST(PlanTextTest, ParseFailFormatsLineAndColumn) {
  EXPECT_EQ(thrown_what([] { parse_fail("fault plan", 3, "bad"); }),
            "fault plan line 3: bad");
  EXPECT_EQ(thrown_what([] { parse_fail("scenario plan", 7, 12, "bad"); }),
            "scenario plan line 7 col 12: bad");
}

TEST(PlanTextTest, ParseDoubleMatchesHistoricalFaultPlanMessages) {
  EXPECT_DOUBLE_EQ(parse_double("fault plan", "0.25", 1), 0.25);
  EXPECT_EQ(thrown_what([] { parse_double("fault plan", "abc", 4); }),
            "fault plan line 4: expected a number, got 'abc'");
  EXPECT_EQ(thrown_what([] { parse_double("fault plan", "1.5x", 4); }),
            "fault plan line 4: trailing junk in '1.5x'");
  EXPECT_EQ(thrown_what([] { parse_double("fault plan", "1e999", 4); }),
            "fault plan line 4: number out of range: '1e999'");
}

TEST(PlanTextTest, ParseU64MatchesHistoricalFaultPlanMessages) {
  EXPECT_EQ(parse_u64("fault plan", "42", 1), 42u);
  EXPECT_EQ(thrown_what([] { parse_u64("fault plan", "x", 2); }),
            "fault plan line 2: expected an integer, got 'x'");
  EXPECT_EQ(thrown_what([] { parse_u64("fault plan", "3z", 2); }),
            "fault plan line 2: trailing junk in '3z'");
  EXPECT_EQ(
      thrown_what([] { parse_u64("fault plan", "99999999999999999999999", 2); }),
      "fault plan line 2: integer out of range: '99999999999999999999999'");
}

TEST(PlanTextTest, ParseDoubleRefusesNonFiniteValues) {
  for (const char* v : {"nan", "NAN", "-nan", "inf", "-inf", "infinity"}) {
    EXPECT_EQ(thrown_what([v] { parse_double("fault plan", v, 4); }),
              std::string("fault plan line 4: expected a finite number, "
                          "got '") + v + "'");
  }
  EXPECT_DOUBLE_EQ(parse_double("fault plan", "-0.5", 1), -0.5);
  EXPECT_DOUBLE_EQ(parse_double("fault plan", "1e300", 1), 1e300);
}

TEST(PlanTextTest, ParseU64RefusesASign) {
  // stoull would read "-1" as 2^64 - 1.
  EXPECT_EQ(thrown_what([] { parse_u64("fault plan", "-1", 2); }),
            "fault plan line 2: expected an unsigned integer, got '-1'");
  EXPECT_EQ(thrown_what([] { parse_u64("scenario plan", "+7", 2, 8); }),
            "scenario plan line 2 col 8: expected an unsigned integer, "
            "got '+7'");
  EXPECT_EQ(parse_u64("fault plan", "18446744073709551615", 1),
            18446744073709551615u);
}

TEST(PlanTextTest, ColumnCarryingVariantsIncludeCol) {
  EXPECT_EQ(thrown_what([] { parse_double("scenario plan", "abc", 4, 9); }),
            "scenario plan line 4 col 9: expected a number, got 'abc'");
  EXPECT_EQ(thrown_what([] { parse_u64("scenario plan", "x", 2, 8); }),
            "scenario plan line 2 col 8: expected an integer, got 'x'");
}

TEST(PlanTextTest, ParseSectionMatchesHistoricalFaultPlanMessages) {
  EXPECT_EQ(parse_section("fault plan", "[site a.b]", "site", 1), "a.b");
  EXPECT_EQ(parse_section("fault plan", "[ site   spaced  ]", "site", 1),
            "spaced");
  EXPECT_EQ(
      thrown_what([] { parse_section("fault plan", "[site x", "site", 5); }),
      "fault plan line 5: unterminated section");
  EXPECT_EQ(
      thrown_what([] { parse_section("fault plan", "[sote x]", "site", 5); }),
      "fault plan line 5: expected [site NAME], got [sote x]");
  // A nameless section header loses its trailing space to trim(), so it has
  // historically reported the expected-NAME diagnostic, not empty-name.
  EXPECT_EQ(
      thrown_what([] { parse_section("fault plan", "[site  ]", "site", 5); }),
      "fault plan line 5: expected [site NAME], got [site]");
}

TEST(PlanTextTest, SplitKeyValueReportsTokenColumns) {
  const KeyValue kv = split_key_value("scenario plan", "steps  =  3", 1);
  EXPECT_EQ(kv.key, "steps");
  EXPECT_EQ(kv.value, "3");
  EXPECT_EQ(kv.key_col, 1u);
  EXPECT_EQ(kv.value_col, 11u);
  EXPECT_EQ(thrown_what(
                [] { (void)split_key_value("fault plan", "no equals", 9); }),
            "fault plan line 9: expected key = value, got 'no equals'");
}

TEST(PlanTextTest, SplitKeyValueEmptyValueColumnClampsToLineEnd) {
  const KeyValue kv = split_key_value("scenario plan", "hint =", 1);
  EXPECT_EQ(kv.key, "hint");
  EXPECT_EQ(kv.value, "");
  EXPECT_EQ(kv.value_col, 7u);
}

}  // namespace
}  // namespace coreda::util
