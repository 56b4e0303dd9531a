#include "planning/learner.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "adl/library.hpp"
#include "support/scalar_learner.hpp"

namespace coreda::planning {
namespace {

std::vector<adl::StepId> tea_steps() {
  return {adl::tools::kTeaBox, adl::tools::kElectricPot, adl::tools::kKettle,
          adl::tools::kTeaCup};
}

struct LearnerFixture : ::testing::Test {
  adl::AdlLibrary library;

  RoutineLearner trained(int episodes = 60, std::uint64_t seed = 5) {
    RoutineLearner learner(library.tea_making(), util::Rng(seed));
    const auto steps = tea_steps();
    for (int i = 0; i < episodes; ++i) learner.train_episode(steps);
    return learner;
  }
};

TEST_F(LearnerFixture, UntrainedPredictsSomething) {
  RoutineLearner learner(library.tea_making(), util::Rng(1));
  const auto prompt = learner.predict(adl::kIdleStep, adl::tools::kTeaBox);
  ASSERT_TRUE(prompt.has_value());  // random policy, but well-formed
}

TEST_F(LearnerFixture, LearnsFullRoutine) {
  RoutineLearner learner = trained();
  EXPECT_DOUBLE_EQ(learner.greedy_accuracy(), 1.0);
  for (const PlannerState& s : learner.predicting_states()) {
    EXPECT_TRUE(learner.greedy_correct(s));
  }
}

TEST_F(LearnerFixture, PredictsEachTransition) {
  RoutineLearner learner = trained();
  const auto steps = tea_steps();
  adl::StepId prev = adl::kIdleStep;
  for (std::size_t i = 0; i + 1 < steps.size(); ++i) {
    const auto prompt = learner.predict(prev, steps[i]);
    ASSERT_TRUE(prompt.has_value());
    EXPECT_EQ(prompt->action.tool, steps[i + 1]) << "at step " << i;
    prev = steps[i];
  }
}

TEST_F(LearnerFixture, ConvergedPolicyPrefersMinimalPrompts) {
  RoutineLearner learner = trained(200);
  // Intermediate prompts: minimal earns 100 vs 50, so the greedy level
  // must be minimal on every non-terminal prediction.
  const auto states = learner.predicting_states();
  for (std::size_t i = 0; i + 1 < states.size(); ++i) {
    const auto prompt = learner.predict(states[i]);
    ASSERT_TRUE(prompt.has_value());
    EXPECT_EQ(prompt->action.level, RemindingLevel::kMinimal)
        << "state " << i;
  }
}

TEST_F(LearnerFixture, UnknownContextReturnsNullopt) {
  RoutineLearner learner = trained();
  EXPECT_FALSE(learner.predict(999, 998).has_value());
  EXPECT_FALSE(learner.predict(adl::tools::kTeaBox, 999).has_value());
}

TEST_F(LearnerFixture, ForeignStepsSkippedNotFatal) {
  RoutineLearner learner(library.tea_making(), util::Rng(2));
  // A tooth-brushing tool id leaks into a tea-making episode.
  std::vector<adl::StepId> steps = tea_steps();
  steps.insert(steps.begin() + 1, adl::tools::kToothbrush);
  learner.train_episode(steps);
  EXPECT_EQ(learner.skipped_steps(), 1u);
}

TEST_F(LearnerFixture, ShortEpisodesAreHarmless) {
  RoutineLearner learner(library.tea_making(), util::Rng(3));
  learner.train_episode(std::vector<adl::StepId>{});
  learner.train_episode(std::vector<adl::StepId>{adl::tools::kTeaBox});
  EXPECT_EQ(learner.episodes_trained(), 2u);
}

TEST_F(LearnerFixture, EpsilonDecaysOverTraining) {
  RoutineLearner learner(library.tea_making(), util::Rng(4));
  const double eps0 = learner.epsilon();
  const auto steps = tea_steps();
  for (int i = 0; i < 50; ++i) learner.train_episode(steps);
  EXPECT_LT(learner.epsilon(), eps0);
}

TEST_F(LearnerFixture, BehaviourAccuracyApproachesOne) {
  RoutineLearner learner(library.tea_making(), util::Rng(6));
  const auto steps = tea_steps();
  for (int i = 0; i < 300; ++i) learner.train_episode(steps);
  EXPECT_GT(learner.behaviour_accuracy(), 0.98);
  EXPECT_LE(learner.behaviour_accuracy(), 1.0);
}

TEST_F(LearnerFixture, BehaviourAccuracyBelowGreedyWhileExploring) {
  RoutineLearner learner = trained(30);
  EXPECT_LE(learner.behaviour_accuracy(), 1.0);
  if (learner.greedy_accuracy() == 1.0) {
    EXPECT_LT(learner.behaviour_accuracy(), 1.0);  // epsilon > 0 still
  }
}

TEST_F(LearnerFixture, PredictingStatesMatchRoutineShape) {
  RoutineLearner learner(library.tea_making(), util::Rng(7));
  const auto states = learner.predicting_states();
  // 4 steps -> 3 in-routine predictions, plus the <idle, idle> context
  // that prompts the first step.
  ASSERT_EQ(states.size(), 4u);
  EXPECT_EQ(states[0].prev, adl::kIdleStep);
  EXPECT_EQ(states[0].cur, adl::kIdleStep);
  EXPECT_EQ(states[1].cur, adl::tools::kTeaBox);
  EXPECT_EQ(states[3].cur, adl::tools::kKettle);
}

TEST_F(LearnerFixture, LearnsToPromptFirstStepFromIdle) {
  RoutineLearner learner = trained();
  const auto prompt = learner.predict(adl::kIdleStep, adl::kIdleStep);
  ASSERT_TRUE(prompt.has_value());
  EXPECT_EQ(prompt->action.tool, adl::tools::kTeaBox);
}

TEST_F(LearnerFixture, TruncatedEpisodesDoNotDestroyPolicy) {
  // Missed terminal extraction must not be treated as ADL completion.
  RoutineLearner learner(library.tea_making(), util::Rng(8));
  const auto full = tea_steps();
  std::vector<adl::StepId> truncated(full.begin(), full.end() - 1);
  for (int i = 0; i < 100; ++i) {
    learner.train_episode(i % 5 == 0 ? truncated : full);
  }
  EXPECT_DOUBLE_EQ(learner.greedy_accuracy(), 1.0);
}

TEST_F(LearnerFixture, PureTdWithoutSweepStillLearnsCleanRoutine) {
  LearnerConfig config;
  config.counterfactual_sweep = false;
  config.epsilon = 0.5;            // pure sampling needs real exploration
  config.epsilon_decay = 0.995;
  RoutineLearner learner(library.tea_making(), util::Rng(9), config);
  const auto steps = tea_steps();
  for (int i = 0; i < 600; ++i) learner.train_episode(steps);
  EXPECT_DOUBLE_EQ(learner.greedy_accuracy(), 1.0);
}

/// Asserts `got` is bitwise the scalar reference: every Q value, ε, the
/// counters and the greedy accuracy.
void expect_same(const RoutineLearner& got, const ScalarLearner& want) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  ASSERT_EQ(got.q().num_states(), want.q().num_states());
  ASSERT_EQ(got.q().num_actions(), want.q().num_actions());
  for (rl::StateId s = 0; s < want.q().num_states(); ++s) {
    for (rl::ActionId a = 0; a < want.q().num_actions(); ++a) {
      ASSERT_EQ(bits(got.q().get(s, a)), bits(want.q().get(s, a)))
          << "Q(" << s << "," << a << ")";
    }
  }
  EXPECT_EQ(bits(got.epsilon()), bits(want.epsilon()));
  EXPECT_EQ(got.episodes_trained(), want.episodes_trained());
  EXPECT_EQ(got.skipped_steps(), want.skipped_steps());
  EXPECT_EQ(bits(got.greedy_accuracy()), bits(want.greedy_accuracy()));
}

/// A sensed episode of `routine`: steps dropped, repeated and interleaved
/// with a foreign tool, and now and then cut short before the terminal step.
std::vector<adl::StepId> noisy_episode(const std::vector<adl::StepId>& routine,
                                       util::Rng& rng) {
  std::vector<adl::StepId> out;
  const std::size_t keep =
      rng.uniform() < 0.2 ? rng.pick_index(routine.size()) : routine.size();
  for (std::size_t i = 0; i < keep; ++i) {
    if (rng.uniform() < 0.1) out.push_back(adl::tools::kToothbrush);
    if (rng.uniform() < 0.1) continue;
    out.push_back(routine[i]);
    if (rng.uniform() < 0.1) out.push_back(routine[i]);
    if (rng.uniform() < 0.05) out.push_back(routine[i]);
  }
  return out;
}

// RoutineLearner trains through a width-1 LaneTrainer; this pins it, after
// every episode, to the scalar reference (tests/support/scalar_learner.hpp):
// noisy, truncated, foreign-only and too-short episodes, a policy restore
// (import_q) and a retrain run (begin_retraining) in mid-stream, under the
// default config and the ablation benches' variants (λ at 0, 0.9 and 1, no
// sweep, no Watkins cut, a cold table), on a single- and a multi-routine
// ADL.
TEST_F(LearnerFixture, TrainsBitForBitAsTheScalarReference) {
  std::vector<LearnerConfig> configs(7);
  configs[1].td.lambda = 0.0;
  configs[2].td.lambda = 0.9;
  configs[3].td.lambda = 1.0;
  configs[4].counterfactual_sweep = false;
  configs[5].td.watkins_cut = false;
  // bench_ablation_lambda's shape: no sweep, no cut, a cold table.
  configs[6].counterfactual_sweep = false;
  configs[6].td.watkins_cut = false;
  configs[6].td.initial_q = 0.0;
  configs[6].td.alpha = 0.3;
  configs[6].epsilon = 0.6;
  configs[6].epsilon_decay = 0.995;
  configs[6].min_epsilon = 0.05;

  for (const char* name : {"Tea-making", "Dressing"}) {
    const adl::Adl& adl = library.by_name(name);
    std::vector<adl::StepId> routine;
    for (const adl::AdlStep& step : adl.primary_routine().steps()) {
      routine.push_back(step.step_id());
    }
    const std::vector<std::vector<adl::StepId>> odd = {
        {},                                         // idle only
        {adl::tools::kToothbrush},                  // all foreign
        {routine.front()},                          // one valid step
        {routine.front(), routine.front(), routine.front()},  // s == s'
        {routine[0], routine[1], routine[0], routine[1]},     // revisit
    };
    // A table to restore: a differently seeded learner's.
    RoutineLearner donor(adl, util::Rng(404));
    for (int e = 0; e < 25; ++e) donor.train_episode(routine);

    for (std::size_t c = 0; c < configs.size(); ++c) {
      SCOPED_TRACE(testing::Message() << name << " config " << c);
      RoutineLearner got(adl, util::Rng(11 + c), configs[c]);
      ScalarLearner want(adl, util::Rng(11 + c), configs[c]);
      util::Rng env(900 + c);
      for (int e = 0; e < 90; ++e) {
        SCOPED_TRACE(testing::Message() << "episode " << e);
        const std::vector<adl::StepId> episode =
            e % 9 == 4 ? odd[static_cast<std::size_t>(e / 9) % odd.size()]
                       : noisy_episode(routine, env);
        got.train_episode(episode);
        want.train_episode(episode);
        if (e == 30) {
          got.import_q(donor.q());
          want.import_q(donor.q());
        }
        if (e == 60) {
          got.begin_retraining(donor.q(), util::Rng(77 + c));
          want.begin_retraining(donor.q(), util::Rng(77 + c));
        }
        expect_same(got, want);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST_F(LearnerFixture, DeterministicGivenSeed) {
  RoutineLearner a = trained(40, 77);
  RoutineLearner b = trained(40, 77);
  for (rl::StateId s = 0; s < a.q().num_states(); ++s) {
    for (rl::ActionId act = 0; act < a.q().num_actions(); ++act) {
      EXPECT_DOUBLE_EQ(a.q().get(s, act), b.q().get(s, act));
    }
  }
}

}  // namespace
}  // namespace coreda::planning
