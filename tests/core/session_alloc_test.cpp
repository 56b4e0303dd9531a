// Pins the serving hot path's allocation contract: once a HomeDeployment has
// served enough sessions to warm every pool (scheduler slots, radio
// frames, station episode table, reminder strings, actor/event buffers),
// run_session_inplace serves a whole closed-loop session with ZERO heap
// allocations — the property that lets one host serve a fleet of homes
// without allocator contention (see DESIGN.md, "session serving engine").
//
// alloc_counter.hpp replaces the global allocation functions of this whole
// test binary; it must stay included in exactly one TU of test_core.

#include "util/alloc_counter.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "adl/library.hpp"
#include "core/home.hpp"
#include "patient/profile.hpp"

namespace coreda::core {
namespace {

TEST(SessionAllocTest, RunSessionIsAllocationFreeAtSteadyState) {
  adl::AdlLibrary library;
  const adl::Adl& tea = library.tea_making();
  std::vector<adl::StepId> routine;
  for (const adl::AdlStep& s : tea.primary_routine().steps()) {
    routine.push_back(s.step_id());
  }
  const std::vector<std::vector<adl::StepId>> training(60, routine);

  SystemConfig config;
  config.seed = 99;
  HomeDeployment system(library, tea, config);
  system.pretrain(training);

  // Deterministic session covering every serving branch: a correct step,
  // a freeze (idle-timeout prompt), and a wrong tool (wrong-tool prompt +
  // red LED). comply_minimal = 0 means the first minimal prompt is always
  // ignored, so every prompt path re-fires and escalates to the specific
  // level — the idle-reprompt branch.
  patient::PatientProfile profile =
      patient::PatientProfile::with_severity("U", 0.0);
  profile.comply_minimal = 0.0;
  profile.comply_specific = 1.0;
  const std::function<void(patient::PatientActor&)> script =
      [](patient::PatientActor& actor) {
        using Kind = patient::PatientEvent::Kind;
        actor.force_next_decision(Kind::kStartedStep);
        actor.force_next_decision(Kind::kFroze);
        actor.force_next_decision(Kind::kWrongTool, adl::tools::kTeaCup);
      };

  // Warm-up: the first sessions may grow the pools once.
  SessionResult result;
  for (int i = 0; i < 16; ++i) {
    system.run_session_inplace(profile, sim::Duration::minutes(15.0),
                               script, result);
  }
  ASSERT_TRUE(result.completed);
  ASSERT_GT(result.prompts_idle, 0u);
  ASSERT_GT(result.prompts_wrong_tool, 0u);
  ASSERT_GT(result.prompts_specific, 0u);  // the escalation branch ran

  const std::uint64_t before = util::allocation_count();
  for (int i = 0; i < 64; ++i) {
    system.run_session_inplace(profile, sim::Duration::minutes(15.0),
                               script, result);
  }
  EXPECT_EQ(util::allocation_count() - before, 0u);
  EXPECT_TRUE(result.completed);
}

TEST(SessionAllocTest, StochasticSessionsStayAllocationFreeOnceWarm) {
  // Unscripted sessions wander across branches (ignored prompts, random
  // wrong tools, collisions): none of them may re-trigger allocation once
  // the pools are warm.
  adl::AdlLibrary library;
  const adl::Adl& tea = library.tea_making();
  std::vector<adl::StepId> routine;
  for (const adl::AdlStep& s : tea.primary_routine().steps()) {
    routine.push_back(s.step_id());
  }
  const std::vector<std::vector<adl::StepId>> training(60, routine);

  SystemConfig config;
  config.seed = 77;
  HomeDeployment system(library, tea, config);
  system.pretrain(training);
  const patient::PatientProfile profile =
      patient::PatientProfile::with_severity("U", 0.4);

  SessionResult result;
  for (int i = 0; i < 24; ++i) {
    system.run_session_inplace(profile, sim::Duration::minutes(15.0), {},
                               result);
  }

  const std::uint64_t before = util::allocation_count();
  for (int i = 0; i < 64; ++i) {
    system.run_session_inplace(profile, sim::Duration::minutes(15.0), {},
                               result);
  }
  EXPECT_EQ(util::allocation_count() - before, 0u);
}

}  // namespace
}  // namespace coreda::core
