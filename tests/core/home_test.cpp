#include "core/home.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <memory>
#include <vector>

namespace coreda::core {
namespace {

struct HomeFixture : ::testing::Test {
  adl::AdlLibrary library;

  std::unique_ptr<HomeDeployment> deploy(std::uint64_t seed = 99) {
    SystemConfig config;
    config.seed = seed;
    auto home = std::make_unique<HomeDeployment>(library, config);
    home->pretrain(120, seed + 1);
    return home;
  }

  patient::PatientProfile compliant(double severity) {
    patient::PatientProfile p =
        patient::PatientProfile::with_severity("Resident", severity);
    p.comply_minimal = 1.0;
    p.comply_specific = 1.0;
    return p;
  }
};

TEST_F(HomeFixture, PretrainingConvergesEveryPlanner) {
  const auto home = deploy();
  for (const char* name :
       {"Tea-making", "Tooth-brushing", "Hand-washing"}) {
    EXPECT_DOUBLE_EQ(home->learner(name).greedy_accuracy(), 1.0) << name;
  }
  EXPECT_EQ(home->recognizer().known_adls(), 4u);
}

// Pretraining replays each ADL's recordings on the runner but trains on the
// calling thread in library order: 1 and 4 jobs give bitwise-equal planner
// tables and recognizer scores.
TEST_F(HomeFixture, PretrainIsBitExactAtAnyJobCount) {
  SystemConfig config;
  config.seed = 17;
  HomeDeployment serial_home(library, config);
  HomeDeployment parallel_home(library, config);
  exec::TrialRunner serial(1);
  exec::TrialRunner parallel(4);
  serial_home.pretrain(60, 18, serial);
  parallel_home.pretrain(60, 18, parallel);

  std::vector<std::vector<adl::StepId>> probes;
  for (const adl::Adl& adl : library.adls()) {
    const rl::QTable& a = serial_home.learner(adl.name()).q();
    const rl::QTable& b = parallel_home.learner(adl.name()).q();
    ASSERT_EQ(a.num_states(), b.num_states());
    ASSERT_EQ(a.num_actions(), b.num_actions());
    EXPECT_EQ(std::memcmp(a.data(), b.data(),
                          a.num_states() * a.num_actions() * sizeof(double)),
              0)
        << adl.name();
    std::vector<adl::StepId> steps;
    for (const auto& step : adl.primary_routine().steps()) {
      steps.push_back(step.tool);
      probes.push_back(steps);
    }
  }
  probes.push_back({adl::tools::kKettle, adl::tools::kTowel});
  for (const auto& probe : probes) {
    const auto a = serial_home.recognizer().rank(probe);
    const auto b = parallel_home.recognizer().rank(probe);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].adl, b[i].adl);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].log_likelihood),
                std::bit_cast<std::uint64_t>(b[i].log_likelihood));
    }
  }
}

TEST_F(HomeFixture, RecognizesAndAssistsTeaMaking) {
  const auto home = deploy();
  const SessionResult result = home->run_session(
      "Tea-making", compliant(0.4), sim::Duration::minutes(30.0));
  EXPECT_TRUE(result.recognized_correctly);
  EXPECT_EQ(result.recognized_adl, "Tea-making");
  EXPECT_LE(result.steps_to_recognition, 2u);
  EXPECT_TRUE(result.completed);
}

TEST_F(HomeFixture, RecognizesEachSingleRoutineAdl) {
  const auto home = deploy();
  for (const char* name :
       {"Tea-making", "Tooth-brushing", "Hand-washing"}) {
    const SessionResult result = home->run_session(
        name, compliant(0.0), sim::Duration::minutes(30.0));
    EXPECT_TRUE(result.recognized_correctly) << name;
    EXPECT_TRUE(result.completed) << name;
  }
}

TEST_F(HomeFixture, AssistsAcrossConsecutiveDifferentAdls) {
  const auto home = deploy();
  const auto tea = home->run_session("Tea-making", compliant(0.3),
                                     sim::Duration::minutes(30.0));
  // The second session uses the care schedule's hint (the resident may
  // freeze before ever starting; see HomeDeployment::run_session docs).
  const auto teeth =
      home->run_session("Tooth-brushing", compliant(0.3),
                        sim::Duration::minutes(30.0), "Tooth-brushing");
  EXPECT_TRUE(tea.recognized_correctly);
  EXPECT_TRUE(teeth.recognized_correctly);
  EXPECT_TRUE(tea.completed);
  EXPECT_TRUE(teeth.completed);
}

TEST_F(HomeFixture, WrongHintOverriddenByRecognition) {
  const auto home = deploy();
  // Schedule says tooth-brushing, but the resident starts making tea; the
  // recognizer must override the provisional activation.
  const auto result =
      home->run_session("Tea-making", compliant(0.0),
                        sim::Duration::minutes(30.0), "Tooth-brushing");
  EXPECT_TRUE(result.recognized_correctly);
  EXPECT_TRUE(result.completed);
}

TEST_F(HomeFixture, HintRescuesFrozenStart) {
  const auto home = deploy(123);
  patient::PatientProfile stuck = compliant(0.0);
  stuck.p_idle = 1.0;  // freezes at every self-initiated decision
  const auto result =
      home->run_session("Tea-making", stuck, sim::Duration::minutes(30.0),
                        "Tea-making");
  // Every step happens via prompts; the hint supplies the first one.
  EXPECT_TRUE(result.completed);
  EXPECT_GE(result.prompts_total, 4u);
}

TEST_F(HomeFixture, UnknownAdlThrows) {
  const auto home = deploy();
  EXPECT_THROW(home->learner("Cooking"), std::out_of_range);
  EXPECT_THROW(home->run_session("Cooking", compliant(0.0),
                                 sim::Duration::minutes(1.0)),
               std::out_of_range);
  EXPECT_THROW(home->run_session("Tea-making", compliant(0.0),
                                 sim::Duration::minutes(1.0), "Cooking"),
               std::out_of_range);
}

TEST_F(HomeFixture, LearnFromSessionsIsRejected) {
  // Recognition picks the ADL a completed session belongs to, so a whole
  // home has no single learner to feed the session back into.
  SystemConfig config;
  config.learn_from_sessions = true;
  EXPECT_THROW(HomeDeployment home(library, config), std::invalid_argument);
}

TEST_F(HomeFixture, EachKindRejectsTheOtherKindsEntryPoints) {
  const patient::PatientProfile profile = compliant(0.0);
  const sim::Duration cap = sim::Duration::minutes(1.0);
  HomeDeployment home(library);
  EXPECT_THROW(home.adl(), std::logic_error);
  EXPECT_THROW(home.learner(), std::logic_error);
  EXPECT_THROW(home.run_session(profile, cap), std::logic_error);

  HomeDeployment tea(library, library.tea_making());
  EXPECT_EQ(&tea.adl(), &library.tea_making());
  EXPECT_THROW(tea.run_session("Tea-making", profile, cap), std::logic_error);
  EXPECT_THROW(tea.run_script(SessionScript{}, profile, cap),
               std::logic_error);
  EXPECT_THROW(tea.pretrain(1, 1), std::logic_error);
  EXPECT_THROW(tea.set_tracker_params({}), std::logic_error);
  EXPECT_THROW(tea.learner("Tooth-brushing"), std::out_of_range);
}

TEST_F(HomeFixture, ImpairedResidentsStillMostlyComplete) {
  const auto home = deploy();
  int completed = 0;
  int recognized = 0;
  constexpr int kSessions = 8;
  for (int i = 0; i < kSessions; ++i) {
    const char* adl = i % 2 == 0 ? "Tea-making" : "Tooth-brushing";
    // Scheduled care: the daily plan names the expected activity.
    const auto result = home->run_session(adl, compliant(0.6),
                                          sim::Duration::minutes(40.0), adl);
    completed += result.completed;
    recognized += result.recognized_correctly;
  }
  EXPECT_GE(completed, kSessions - 1);
  // Recognition can stay pending when the hinted planner does all the
  // work before enough steps are observed; completion is the contract.
  EXPECT_GE(recognized, kSessions / 2);
}

}  // namespace
}  // namespace coreda::core
