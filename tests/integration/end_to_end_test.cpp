// End-to-end integration tests: the full pipeline from synthetic sensor
// signals through PAVENET firmware, radio, base station, TD(λ) planner and
// reminding subsystem, closed by the patient model — the complete Figure 2
// architecture exercised as one system.

#include <gtest/gtest.h>

#include <memory>

#include "core/home.hpp"
#include "trace/dataset.hpp"

namespace coreda {
namespace {

namespace T = adl::tools;
using Kind = patient::PatientEvent::Kind;

struct EndToEndFixture : ::testing::Test {
  adl::AdlLibrary library;

  std::unique_ptr<core::HomeDeployment> deploy(const adl::Adl& adl,
                                             core::SystemConfig config = {}) {
    auto system = std::make_unique<core::HomeDeployment>(library, adl, config);
    trace::DatasetBuilder datasets(
        library, patient::PatientProfile::with_severity("T", 0.0),
        config.seed + 7);
    system->pretrain(datasets.sensed_training_set(adl, 120));
    return system;
  }
};

TEST_F(EndToEndFixture, TrainOnSensedDataThenAssistTeaMaking) {
  const auto system = deploy(library.tea_making());
  EXPECT_DOUBLE_EQ(system->learner().greedy_accuracy(), 1.0);

  patient::PatientProfile profile =
      patient::PatientProfile::with_severity("Tanaka", 0.5);
  profile.comply_specific = 1.0;
  profile.comply_minimal = 1.0;

  int completed = 0;
  for (int i = 0; i < 10; ++i) {
    const auto result =
        system->run_session(profile, sim::Duration::minutes(30.0));
    if (result.completed) ++completed;
  }
  // A moderately impaired but compliant patient completes consistently
  // with CoReDA's help.
  EXPECT_GE(completed, 9);
}

TEST_F(EndToEndFixture, PromptsReduceWithHealthierPatients) {
  const auto system = deploy(library.tea_making());
  std::size_t severe_prompts = 0;
  std::size_t mild_prompts = 0;
  for (int i = 0; i < 8; ++i) {
    severe_prompts +=
        system
            ->run_session(patient::PatientProfile::with_severity("A", 0.8),
                          sim::Duration::minutes(30.0))
            .prompts_total;
    mild_prompts +=
        system
            ->run_session(patient::PatientProfile::with_severity("A", 0.1),
                          sim::Duration::minutes(30.0))
            .prompts_total;
  }
  EXPECT_GT(severe_prompts, mild_prompts);
}

TEST_F(EndToEndFixture, ToothBrushingWorksEndToEnd) {
  const auto system = deploy(library.tooth_brushing());
  patient::PatientProfile profile =
      patient::PatientProfile::with_severity("Kim", 0.4);
  profile.comply_specific = 1.0;
  profile.comply_minimal = 1.0;
  const auto result =
      system->run_session(profile, sim::Duration::minutes(30.0));
  EXPECT_TRUE(result.completed);
}

TEST_F(EndToEndFixture, HandWashingExtensionAdlWorks) {
  const auto system = deploy(library.hand_washing());
  const auto result = system->run_session(
      patient::PatientProfile::with_severity("Lee", 0.0),
      sim::Duration::minutes(20.0));
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.steps_completed, 3u);
}

TEST_F(EndToEndFixture, LedsActuallyBlinkOnNodesDuringPrompts) {
  const auto system = deploy(library.tea_making());
  patient::PatientProfile profile =
      patient::PatientProfile::with_severity("Tanaka", 0.0);
  profile.comply_minimal = 1.0;
  profile.comply_specific = 1.0;
  system->run_session(profile, sim::Duration::minutes(20.0),
                      [](patient::PatientActor& actor) {
                        actor.force_next_decision(Kind::kStartedStep);
                        actor.force_next_decision(Kind::kWrongTool,
                                                  T::kTeaCup);
                      });
  // The green LED on the pot and red LED on the cup were driven over the
  // radio by the reminding subsystem.
  EXPECT_GT(
      system->node(T::kElectricPot).led().blink_count(pavenet::LedColor::kGreen),
      0u);
  EXPECT_GT(system->node(T::kTeaCup).led().blink_count(pavenet::LedColor::kRed),
            0u);
}

TEST_F(EndToEndFixture, RadioLossToleratedByClosedLoop) {
  core::SystemConfig config;
  config.radio.loss_probability = 0.2;
  const auto system = deploy(library.tea_making(), config);
  patient::PatientProfile profile =
      patient::PatientProfile::with_severity("Tanaka", 0.3);
  profile.comply_specific = 1.0;
  profile.comply_minimal = 1.0;
  int completed = 0;
  for (int i = 0; i < 6; ++i) {
    if (system->run_session(profile, sim::Duration::minutes(30.0))
            .completed) {
      ++completed;
    }
  }
  EXPECT_GE(completed, 4);  // lossy but still mostly effective
}

TEST_F(EndToEndFixture, WholeStackDeterministicPerSeed) {
  auto run_once = [this] {
    core::SystemConfig config;
    config.seed = 2024;
    const auto system = deploy(library.tea_making(), config);
    patient::PatientProfile profile =
        patient::PatientProfile::with_severity("Tanaka", 0.6);
    const auto result =
        system->run_session(profile, sim::Duration::minutes(30.0));
    return std::make_tuple(result.completed, result.prompts_total,
                           result.observed_steps);
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace coreda
