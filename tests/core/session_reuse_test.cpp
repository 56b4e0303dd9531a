// The serving-engine contract of HomeDeployment: one construction serves any
// number of back-to-back sessions, and reuse is observationally invisible —
// session N of a warm system matches session N of an identically configured
// fresh system, field for field.

#include <gtest/gtest.h>

#include <vector>

#include "adl/library.hpp"
#include "core/home.hpp"
#include "patient/profile.hpp"

namespace coreda::core {
namespace {

std::vector<std::vector<adl::StepId>> training_set(const adl::Adl& adl) {
  std::vector<adl::StepId> routine;
  for (const adl::AdlStep& s : adl.primary_routine().steps()) {
    routine.push_back(s.step_id());
  }
  return std::vector<std::vector<adl::StepId>>(60, routine);
}

void expect_equal(const SessionResult& a, const SessionResult& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.steps_completed, b.steps_completed);
  EXPECT_EQ(a.prompts_total, b.prompts_total);
  EXPECT_EQ(a.prompts_idle, b.prompts_idle);
  EXPECT_EQ(a.prompts_wrong_tool, b.prompts_wrong_tool);
  EXPECT_EQ(a.prompts_minimal, b.prompts_minimal);
  EXPECT_EQ(a.prompts_specific, b.prompts_specific);
  EXPECT_EQ(a.praises, b.praises);
  EXPECT_EQ(a.observed_steps, b.observed_steps);
}

struct SessionReuseTest : ::testing::Test {
  adl::AdlLibrary library;
  patient::PatientProfile profile =
      patient::PatientProfile::with_severity("U", 0.3);

  HomeDeployment make_system(std::uint64_t seed) {
    SystemConfig config;
    config.seed = seed;
    return HomeDeployment(library, library.tea_making(), config);
  }
};

TEST_F(SessionReuseTest, WarmSystemMatchesFreshSystemSessionForSession) {
  const auto training = training_set(library.tea_making());
  HomeDeployment a = make_system(7);
  a.pretrain(training);
  HomeDeployment b = make_system(7);
  b.pretrain(training);

  // Two identically configured systems serve identical session streams —
  // in particular b's SECOND session (warm reuse: recycled actor, station
  // table, reminder pools) matches a's second, not just the first.
  for (int s = 0; s < 3; ++s) {
    const SessionResult ra =
        a.run_session(profile, sim::Duration::minutes(15.0));
    const SessionResult rb =
        b.run_session(profile, sim::Duration::minutes(15.0));
    expect_equal(ra, rb);
  }
}

TEST_F(SessionReuseTest, InplaceResultMatchesByValueResult) {
  const auto training = training_set(library.tea_making());
  HomeDeployment a = make_system(11);
  a.pretrain(training);
  HomeDeployment b = make_system(11);
  b.pretrain(training);

  SessionResult inplace;
  for (int s = 0; s < 2; ++s) {
    a.run_session_inplace(profile, sim::Duration::minutes(15.0), {},
                          inplace);
    const SessionResult by_value =
        b.run_session(profile, sim::Duration::minutes(15.0));
    expect_equal(inplace, by_value);
  }
}

TEST_F(SessionReuseTest, ReminderLogIsPerSession) {
  HomeDeployment system = make_system(13);
  system.pretrain(training_set(library.tea_making()));

  const SessionResult first =
      system.run_session(profile, sim::Duration::minutes(15.0));
  EXPECT_EQ(system.reminder().log().size(), first.prompts_total);

  // The second session starts with a rewound log: no stale entries from
  // the first session leak into its transcript.
  const SessionResult second =
      system.run_session(profile, sim::Duration::minutes(15.0));
  EXPECT_EQ(system.reminder().log().size(), second.prompts_total);
}

TEST_F(SessionReuseTest, ImportedPolicyMatchesPretrainedSystem) {
  const auto training = training_set(library.tea_making());
  HomeDeployment pretrained = make_system(19);
  pretrained.pretrain(training);

  // Train-once / deploy-many: stamping the donor's Q-table into a fresh
  // system reproduces the pretrained system's sessions exactly.
  HomeDeployment stamped = make_system(19);
  stamped.import_policy(pretrained.learner().q());

  for (int s = 0; s < 2; ++s) {
    const SessionResult ra =
        pretrained.run_session(profile, sim::Duration::minutes(15.0));
    const SessionResult rb =
        stamped.run_session(profile, sim::Duration::minutes(15.0));
    expect_equal(ra, rb);
  }
}

}  // namespace
}  // namespace coreda::core
