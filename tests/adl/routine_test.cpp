#include "adl/routine.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace coreda::adl {
namespace {

AdlRoutine make_routine() {
  return AdlRoutine("test", {AdlStep{"one", 11}, AdlStep{"two", 12},
                             AdlStep{"three", 13}});
}

TEST(AdlRoutineTest, BasicAccessors) {
  const AdlRoutine r = make_routine();
  EXPECT_EQ(r.name(), "test");
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(r.first_step(), 11);
  EXPECT_EQ(r.last_step(), 13);
  EXPECT_EQ(r.step(1).name, "two");
}

TEST(AdlRoutineTest, StepIdEqualsToolId) {
  const AdlRoutine r = make_routine();
  for (const AdlStep& s : r.steps()) {
    EXPECT_EQ(s.step_id(), s.tool);
  }
}

TEST(AdlRoutineTest, IndexOfTool) {
  const AdlRoutine r = make_routine();
  EXPECT_EQ(r.index_of_tool(12), 1u);
  EXPECT_FALSE(r.index_of_tool(99).has_value());
}

TEST(AdlRoutineTest, NextAfter) {
  const AdlRoutine r = make_routine();
  EXPECT_EQ(r.next_after(11), 12);
  EXPECT_EQ(r.next_after(12), 13);
  EXPECT_EQ(r.next_after(13), kIdleStep);  // terminal
  EXPECT_EQ(r.next_after(99), kIdleStep);  // unknown
}

TEST(AdlRoutineTest, IsTerminal) {
  const AdlRoutine r = make_routine();
  EXPECT_TRUE(r.is_terminal(13));
  EXPECT_FALSE(r.is_terminal(11));
  EXPECT_FALSE(r.is_terminal(99));
}

TEST(AdlRoutineTest, EmptyThrows) {
  EXPECT_THROW(AdlRoutine("empty", {}), std::invalid_argument);
}

TEST(AdlRoutineTest, ReservedToolThrows) {
  EXPECT_THROW(AdlRoutine("bad", {AdlStep{"x", 0}}), std::invalid_argument);
}

TEST(AdlRoutineTest, RepeatedToolThrows) {
  EXPECT_THROW(
      AdlRoutine("bad", {AdlStep{"a", 5}, AdlStep{"b", 6}, AdlStep{"c", 5}}),
      std::invalid_argument);
}

TEST(AdlTest, SingleRoutine) {
  Adl adl("Tea", {make_routine()});
  EXPECT_FALSE(adl.multi_routine());
  EXPECT_EQ(adl.primary_routine().name(), "test");
  EXPECT_EQ(adl.tools(), (std::vector<ToolId>{11, 12, 13}));
}

TEST(AdlTest, MultiRoutineToolsDeduplicated) {
  AdlRoutine a("a", {AdlStep{"1", 11}, AdlStep{"2", 12}});
  AdlRoutine b("b", {AdlStep{"2", 12}, AdlStep{"1", 11}, AdlStep{"3", 13}});
  Adl adl("Dress", {a, b});
  EXPECT_TRUE(adl.multi_routine());
  EXPECT_EQ(adl.tools(), (std::vector<ToolId>{11, 12, 13}));
}

TEST(AdlTest, UsesMatchesToolsAcrossRoutines) {
  AdlRoutine a("a", {AdlStep{"1", 11}, AdlStep{"2", 12}});
  AdlRoutine b("b", {AdlStep{"2", 12}, AdlStep{"3", 13}});
  Adl adl("Dress", {a, b});
  for (ToolId tool = 0; tool < 16; ++tool) {
    const auto tools = adl.tools();
    EXPECT_EQ(adl.uses(tool),
              std::find(tools.begin(), tools.end(), tool) != tools.end())
        << tool;
  }
}

TEST(AdlTest, NoRoutinesThrows) {
  EXPECT_THROW(Adl("bad", {}), std::invalid_argument);
}

}  // namespace
}  // namespace coreda::adl
