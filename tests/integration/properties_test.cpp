// Property-style parameterized sweeps over the system's invariants:
// codec bijectivity across vocabularies, learner convergence across seeds
// and ADLs, detector monotonicity across vote configurations.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "adl/library.hpp"
#include "pavenet/detector.hpp"
#include "planning/learner.hpp"
#include "trace/dataset.hpp"
#include "trace/sensing_pipeline.hpp"

namespace coreda {
namespace {

// ---------------------------------------------------------------------
// Property: the planner converges to the exact routine for every ADL in
// the library and every seed (single-routine ADLs). The ADL name is a
// std::string, not a const char*: gtest prints a pointer parameter's
// address into the test name, which differs from run to run.
// ---------------------------------------------------------------------
struct LearnerConvergence
    : ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {};

TEST_P(LearnerConvergence, GreedyPolicyMatchesRoutine) {
  const auto [adl_name, seed] = GetParam();
  adl::AdlLibrary library;
  const adl::Adl& adl = library.by_name(adl_name);
  trace::DatasetBuilder datasets(
      library, patient::PatientProfile::with_severity("T", 0.0), seed);
  planning::RoutineLearner learner(adl, util::Rng(seed * 31 + 1));
  for (const auto& ep : datasets.sensed_training_set(adl, 150)) {
    learner.train_episode(ep);
  }
  EXPECT_DOUBLE_EQ(learner.greedy_accuracy(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllAdlsAllSeeds, LearnerConvergence,
    ::testing::Combine(::testing::Values("Tooth-brushing", "Tea-making",
                                         "Hand-washing"),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_seed" + std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------
// Property: extract precision is monotone in manipulation duration.
// ---------------------------------------------------------------------
struct DurationMonotonicity : ::testing::TestWithParam<adl::ToolId> {};

TEST_P(DurationMonotonicity, LongerManipulationsDetectBetter) {
  const adl::ToolId tool = GetParam();
  adl::AdlLibrary library;
  trace::SensingPipeline pipeline(library.tools(), {tool}, 555);
  int short_hits = 0;
  int long_hits = 0;
  for (int i = 0; i < 120; ++i) {
    short_hits +=
        pipeline.single_tool_trial(tool, sim::Duration::seconds(1.2));
    long_hits +=
        pipeline.single_tool_trial(tool, sim::Duration::seconds(12.0));
  }
  EXPECT_GE(long_hits, short_hits);
}

INSTANTIATE_TEST_SUITE_P(WeakTools, DurationMonotonicity,
                         ::testing::Values(adl::tools::kTowel,
                                           adl::tools::kElectricPot,
                                           adl::tools::kPasteTube,
                                           adl::tools::kTeaCup));

// ---------------------------------------------------------------------
// Property: raising the vote threshold never increases detections.
// ---------------------------------------------------------------------
struct VoteMonotonicity : ::testing::TestWithParam<std::uint32_t> {};

TEST_P(VoteMonotonicity, StricterVoteDetectsLess) {
  const std::uint32_t votes = GetParam();
  adl::AdlLibrary library;

  auto hits_with_votes = [&](std::uint32_t v) {
    trace::SensingPipeline::Params params;
    params.firmware.vote_threshold = v;
    trace::SensingPipeline pipeline(library.tools(),
                                    {adl::tools::kElectricPot}, 777, params);
    int hits = 0;
    for (int i = 0; i < 100; ++i) {
      hits += pipeline.single_tool_trial(adl::tools::kElectricPot,
                                         sim::Duration::seconds(2.5));
    }
    return hits;
  };

  EXPECT_GE(hits_with_votes(votes), hits_with_votes(votes + 2));
}

INSTANTIATE_TEST_SUITE_P(VoteLevels, VoteMonotonicity,
                         ::testing::Values(1u, 3u, 5u, 7u));

// ---------------------------------------------------------------------
// Property: reward config dominance — for any scaling of the paper's
// reward values that keeps minimal > specific, the converged policy
// prefers minimal prompts.
// ---------------------------------------------------------------------
struct RewardScaling : ::testing::TestWithParam<double> {};

TEST_P(RewardScaling, MinimalPreferenceSurvivesScaling) {
  const double scale = GetParam();
  adl::AdlLibrary library;
  planning::LearnerConfig config;
  config.reward.terminal = 1000.0 * scale;
  config.reward.intermediate_minimal = 100.0 * scale;
  config.reward.intermediate_specific = 50.0 * scale;
  config.td.initial_q = 1000.0 * scale;

  planning::RoutineLearner learner(library.tea_making(),
                                   util::Rng(901), config);
  const std::vector<adl::StepId> steps{
      adl::tools::kTeaBox, adl::tools::kElectricPot, adl::tools::kKettle,
      adl::tools::kTeaCup};
  for (int i = 0; i < 150; ++i) learner.train_episode(steps);

  const auto states = learner.predicting_states();
  for (std::size_t i = 0; i + 1 < states.size(); ++i) {
    const auto prompt = learner.predict(states[i]);
    ASSERT_TRUE(prompt.has_value());
    EXPECT_EQ(prompt->action.level, planning::RemindingLevel::kMinimal);
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, RewardScaling,
                         ::testing::Values(0.01, 0.1, 1.0, 10.0));

// ---------------------------------------------------------------------
// Property: dataset determinism — every dataset kind is a pure function
// of its seed, for every ADL.
// ---------------------------------------------------------------------
struct DatasetDeterminism : ::testing::TestWithParam<const char*> {};

TEST_P(DatasetDeterminism, SameSeedSameData) {
  adl::AdlLibrary library;
  const adl::Adl& adl = library.by_name(GetParam());
  const auto profile = patient::PatientProfile::with_severity("T", 0.4);
  trace::DatasetBuilder a(library, profile, 99);
  trace::DatasetBuilder b(library, profile, 99);
  EXPECT_EQ(a.clean_training_set(adl, 10), b.clean_training_set(adl, 10));
  EXPECT_EQ(a.sensed_training_set(adl, 5), b.sensed_training_set(adl, 5));
}

INSTANTIATE_TEST_SUITE_P(AllAdls, DatasetDeterminism,
                         ::testing::Values("Tooth-brushing", "Tea-making",
                                           "Hand-washing", "Dressing"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace coreda
