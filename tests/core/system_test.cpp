#include "core/home.hpp"

#include <memory>

#include <gtest/gtest.h>

#include "trace/dataset.hpp"

namespace coreda::core {
namespace {

namespace T = adl::tools;
using Kind = patient::PatientEvent::Kind;

struct SystemFixture : ::testing::Test {
  adl::AdlLibrary library;

  std::unique_ptr<HomeDeployment> trained_system(
      SystemConfig config = SystemConfig()) {
    auto system =
        std::make_unique<HomeDeployment>(library, library.tea_making(), config);
    trace::DatasetBuilder datasets(
        library, patient::PatientProfile::with_severity("T", 0.0),
        config.seed + 100);
    const auto training =
        datasets.clean_training_set(library.tea_making(), 120);
    system->pretrain(training);
    return system;
  }

  patient::PatientProfile compliant(double severity) {
    patient::PatientProfile p =
        patient::PatientProfile::with_severity("Tanaka", severity);
    p.comply_minimal = 1.0;
    p.comply_specific = 1.0;
    return p;
  }
};

TEST_F(SystemFixture, PretrainingConvergesPolicy) {
  const auto system = trained_system();
  EXPECT_DOUBLE_EQ(system->learner().greedy_accuracy(), 1.0);
}

TEST_F(SystemFixture, HealthyPatientNeedsNoPrompts) {
  const auto system = trained_system();
  const SessionResult result =
      system->run_session(compliant(0.0), sim::Duration::minutes(15.0));
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.steps_completed, 4u);
  EXPECT_EQ(result.prompts_total, 0u);
}

TEST_F(SystemFixture, FrozenPatientGetsIdlePromptAndFinishes) {
  // Seed chosen so the electronic pot's (deliberately weak, Table 3: 80 %)
  // extraction succeeds on the prompted step — the praise requires the
  // sensed usage edge to arrive.
  SystemConfig config;
  config.seed = 43;
  const auto system = trained_system(config);
  const SessionResult result = system->run_session(
      compliant(0.0), sim::Duration::minutes(15.0),
      [](patient::PatientActor& actor) {
        actor.force_next_decision(Kind::kStartedStep);
        actor.force_next_decision(Kind::kFroze);
      });
  EXPECT_TRUE(result.completed);
  EXPECT_GE(result.prompts_idle, 1u);
  EXPECT_GE(result.praises, 1u);
}

TEST_F(SystemFixture, WrongToolPatientGetsCorrectivePrompt) {
  const auto system = trained_system();
  const SessionResult result = system->run_session(
      compliant(0.0), sim::Duration::minutes(15.0),
      [](patient::PatientActor& actor) {
        actor.force_next_decision(Kind::kStartedStep);
        actor.force_next_decision(Kind::kWrongTool, T::kTeaCup);
      });
  EXPECT_TRUE(result.completed);
  EXPECT_GE(result.prompts_wrong_tool, 1u);
  // The corrective reminder carried the red-LED target.
  bool saw_red = false;
  for (const auto& r : system->reminder().log()) {
    if (r.wrong_tool.has_value()) saw_red = true;
  }
  EXPECT_TRUE(saw_red);
}

TEST_F(SystemFixture, PromptsNameTheRoutineNextTool) {
  const auto system = trained_system();
  system->run_session(compliant(0.0), sim::Duration::minutes(15.0),
                     [](patient::PatientActor& actor) {
                       actor.force_next_decision(Kind::kStartedStep);
                       actor.force_next_decision(Kind::kFroze);
                     });
  ASSERT_FALSE(system->reminder().log().empty());
  // After tea box, the correct next tool is the electronic pot.
  EXPECT_EQ(system->reminder().log()[0].target_tool, T::kElectricPot);
}

TEST_F(SystemFixture, SessionTimeoutReported) {
  const auto system = trained_system();
  patient::PatientProfile stubborn = compliant(0.0);
  stubborn.comply_minimal = 0.0;
  stubborn.comply_specific = 0.0;
  const SessionResult result = system->run_session(
      stubborn, sim::Duration::minutes(3.0),
      [](patient::PatientActor& actor) {
        actor.force_next_decision(Kind::kFroze);
      });
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.steps_completed, 0u);
}

TEST_F(SystemFixture, ObservedStepsRecordSensedSequence) {
  const auto system = trained_system();
  const SessionResult result =
      system->run_session(compliant(0.0), sim::Duration::minutes(15.0));
  ASSERT_TRUE(result.completed);
  EXPECT_GE(result.observed_steps.size(), 3u);
  EXPECT_EQ(result.observed_steps.front(), T::kTeaBox);
}

TEST_F(SystemFixture, ConsecutiveSessionsWork) {
  const auto system = trained_system();
  const SessionResult first =
      system->run_session(compliant(0.0), sim::Duration::minutes(15.0));
  const SessionResult second =
      system->run_session(compliant(0.0), sim::Duration::minutes(15.0));
  EXPECT_TRUE(first.completed);
  EXPECT_TRUE(second.completed);
}

TEST_F(SystemFixture, NodeAccessor) {
  const auto system = trained_system();
  EXPECT_EQ(system->node(T::kKettle).uid(), T::kKettle);
  EXPECT_THROW(system->node(999), std::out_of_range);
}

TEST_F(SystemFixture, LearnFromSessionsGrowsEpisodeCount) {
  SystemConfig config;
  config.learn_from_sessions = true;
  const auto system = trained_system(config);
  const std::size_t before = system->learner().episodes_trained();
  system->run_session(compliant(0.0), sim::Duration::minutes(15.0));
  EXPECT_GT(system->learner().episodes_trained(), before);
}

TEST_F(SystemFixture, MinimalPromptsAfterConvergence) {
  const auto system = trained_system();
  system->run_session(compliant(0.0), sim::Duration::minutes(15.0),
                     [](patient::PatientActor& actor) {
                       actor.force_next_decision(Kind::kStartedStep);
                       actor.force_next_decision(Kind::kFroze);
                     });
  ASSERT_FALSE(system->reminder().log().empty());
  EXPECT_EQ(system->reminder().log()[0].level,
            planning::RemindingLevel::kMinimal);
}

}  // namespace
}  // namespace coreda::core
