#include <gtest/gtest.h>

#include <memory>

#include "core/home.hpp"
#include "trace/dataset.hpp"

namespace coreda::core {
namespace {

using Kind = patient::PatientEvent::Kind;

struct EscalationFixture : ::testing::Test {
  adl::AdlLibrary library;

  std::unique_ptr<HomeDeployment> deploy(SystemConfig config) {
    auto system = std::make_unique<HomeDeployment>(
        library, library.tea_making(), config);
    trace::DatasetBuilder datasets(
        library, patient::PatientProfile::with_severity("T", 0.0),
        config.seed + 100);
    system->pretrain(datasets.clean_training_set(library.tea_making(), 120));
    return system;
  }

  /// Ignores minimal prompts entirely but always follows specific ones.
  patient::PatientProfile needs_specific() {
    patient::PatientProfile p =
        patient::PatientProfile::with_severity("Tanaka", 0.0);
    p.comply_minimal = 0.0;
    p.comply_specific = 1.0;
    return p;
  }
};

TEST_F(EscalationFixture, ReprompTEscalatesToSpecific) {
  SystemConfig config;
  config.escalate_reprompts = true;
  const auto system = deploy(config);
  const SessionResult result = system->run_session(
      needs_specific(), sim::Duration::minutes(20.0),
      [](patient::PatientActor& actor) {
        actor.force_next_decision(Kind::kStartedStep);
        actor.force_next_decision(Kind::kFroze);
      });
  EXPECT_TRUE(result.completed);
  EXPECT_GE(result.prompts_specific, 1u);
  // The first prompt per situation stays minimal (paper's principle).
  ASSERT_FALSE(system->reminder().log().empty());
  EXPECT_EQ(system->reminder().log()[0].level,
            planning::RemindingLevel::kMinimal);
}

TEST_F(EscalationFixture, WithoutEscalationStubbornUserStaysStuck) {
  SystemConfig config;
  config.escalate_reprompts = false;
  const auto system = deploy(config);
  const SessionResult result = system->run_session(
      needs_specific(), sim::Duration::minutes(10.0),
      [](patient::PatientActor& actor) {
        actor.force_next_decision(Kind::kStartedStep);
        actor.force_next_decision(Kind::kFroze);
      });
  // Minimal prompts are ignored forever; the session times out.
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.prompts_specific, 0u);
  EXPECT_GE(result.prompts_minimal, 2u);
}

TEST_F(EscalationFixture, EscalationSequenceMinimalThenSpecific) {
  SystemConfig config;
  config.escalate_reprompts = true;
  const auto system = deploy(config);
  system->run_session(needs_specific(), sim::Duration::minutes(20.0),
                      [](patient::PatientActor& actor) {
                        actor.force_next_decision(Kind::kStartedStep);
                        actor.force_next_decision(Kind::kFroze);
                      });
  const auto& log = system->reminder().log();
  ASSERT_GE(log.size(), 2u);
  EXPECT_EQ(log[0].level, planning::RemindingLevel::kMinimal);
  EXPECT_EQ(log[1].level, planning::RemindingLevel::kSpecific);
}

}  // namespace
}  // namespace coreda::core
