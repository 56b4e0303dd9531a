// Byte-identity of LaneTrainer (lockstep SoA lanes) vs the scalar reference
// learner (tests/support/scalar_learner.hpp).
//
// Every planner trains through the lane path, which is only sound because
// every user's result is bit-for-bit what the scalar reference produces.
// This test replays the bench_fleet_throughput workload shape — personal
// noisy routines, the foreign-tool skip path, truncated episodes — through
// both paths across lane widths 1/4/8/16 with ragged tail batches, on
// Tea-making, Hand-washing (6 actions: masked rows) and Dressing, and
// compares final Q tables (bitwise), greedy accuracy, the fleet checksum
// sum, ε, and the skipped counter. Also covers the retrain-scheduler entry point
// (begin_retraining on an adopted table), ε at 0 and 1, and episodes that
// force the engine's one-pass trainer back onto its per-transition path:
// a revisited state, three identical steps (s == s') and a trace window
// that reaches the cutoff age. Run under COREDA_LANE_SIMD=0 as well, so
// both one-pass bodies are compared.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "adl/library.hpp"
#include "planning/lane_trainer.hpp"
#include "support/scalar_learner.hpp"
#include "util/rng.hpp"

namespace coreda::planning {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// bench_fleet_throughput's StepId-level noise model.
struct NoiseProfile {
  double p_drop = 0.12;
  double p_repeat = 0.04;
  double p_spurious = 0.04;
};

void sensed_episode(const std::vector<adl::StepId>& routine,
                    const NoiseProfile& noise, adl::StepId foreign,
                    util::Rng& rng, std::vector<adl::StepId>& out) {
  out.clear();
  for (const adl::StepId step : routine) {
    if (rng.uniform() < noise.p_spurious) out.push_back(foreign);
    if (rng.uniform() < noise.p_drop) continue;
    out.push_back(step);
    if (rng.uniform() < noise.p_repeat) out.push_back(step);
  }
}

void expect_user_equal(const ScalarLearner& scalar, LaneTrainer& lane,
                       std::size_t slot, std::size_t user) {
  const rl::QTable& want = scalar.q();
  rl::QTable got(want.num_states(), want.num_actions(), 0.0);
  lane.export_q(slot, got);
  for (rl::StateId s = 0; s < want.num_states(); ++s) {
    for (rl::ActionId a = 0; a < want.num_actions(); ++a) {
      ASSERT_EQ(bits(got.get(s, a)), bits(want.get(s, a)))
          << "user " << user << " Q(" << s << "," << a << ")";
    }
  }
  EXPECT_EQ(bits(lane.greedy_accuracy(slot)), bits(scalar.greedy_accuracy()))
      << "user " << user;
  double sum = 0.0;
  for (rl::StateId s = 0; s < want.num_states(); ++s) {
    for (rl::ActionId a = 0; a < want.num_actions(); ++a) {
      sum += want.get(s, a);
    }
  }
  EXPECT_EQ(bits(lane.q_sum(slot)), bits(sum)) << "user " << user;
  EXPECT_EQ(bits(lane.epsilon(slot)), bits(scalar.epsilon()))
      << "user " << user;
  EXPECT_EQ(lane.skipped_steps(slot), scalar.skipped_steps())
      << "user " << user;
}

/// Trains `users` fleet members through scalar learners and through
/// width-`width` lanes (last batch ragged when width does not divide
/// users), asserting per-user bitwise identity. Returns how many episodes
/// the lanes finished on the engine's per-transition path.
std::uint64_t run_fleet_equivalence(std::size_t width, std::size_t users,
                                    std::size_t episodes,
                                    const char* adl_name = "Tea-making",
                                    const LearnerConfig& config = {}) {
  adl::AdlLibrary library;
  const adl::Adl& adl = library.by_name(adl_name);
  const adl::StepId foreign = adl::tools::kToothbrush;  // no ADL here uses it
  std::vector<adl::StepId> routine;
  for (const adl::AdlStep& step : adl.primary_routine().steps()) {
    routine.push_back(step.step_id());
  }

  LaneTrainer lane(adl, width, config);
  std::vector<adl::StepId> episode;
  for (std::size_t base = 0; base < users; base += width) {
    const std::size_t batch = std::min(width, users - base);

    // Scalar side first (independent instances, so order is irrelevant).
    std::vector<ScalarLearner> scalar;
    for (std::size_t i = 0; i < batch; ++i) {
      const std::size_t u = base + i;
      scalar.emplace_back(adl, util::Rng(5000 + u), config);
      NoiseProfile noise;
      noise.p_drop = 0.05 + 0.02 * static_cast<double>(u % 7);
      util::Rng env(9000 + u);
      // Users differ in episode count too (ragged within the batch).
      const std::size_t my_episodes = episodes - (u % 3);
      for (std::size_t e = 0; e < my_episodes; ++e) {
        sensed_episode(routine, noise, foreign, env, episode);
        scalar[i].train_episode(episode);
      }
    }

    // Lane side: same seeds, lockstep.
    std::vector<util::Rng> env;
    for (std::size_t i = 0; i < batch; ++i) {
      const std::size_t u = base + i;
      lane.reset_slot(i, util::Rng(5000 + u));
      env.emplace_back(9000 + u);
    }
    for (std::size_t e = 0; e < episodes; ++e) {
      bool any = false;
      for (std::size_t i = 0; i < batch; ++i) {
        const std::size_t u = base + i;
        if (e >= episodes - (u % 3)) continue;
        NoiseProfile noise;
        noise.p_drop = 0.05 + 0.02 * static_cast<double>(u % 7);
        sensed_episode(routine, noise, foreign, env[i], episode);
        lane.queue_episode(i, episode);
        any = true;
      }
      if (any) lane.train_queued();
    }

    for (std::size_t i = 0; i < batch; ++i) {
      expect_user_equal(scalar[i], lane, i, base + i);
    }
  }
  return lane.engine().sequential_episodes();
}

/// Trains slot 1 of a width-3 trainer and a scalar learner on the same
/// episodes, both from `start` (a cold table when null), asserting bitwise
/// identity after every episode. Returns how many episodes the lane
/// finished on the engine's per-transition path.
std::uint64_t run_episodes(
    const adl::Adl& adl, const LearnerConfig& config, const rl::QTable* start,
    const std::vector<std::vector<adl::StepId>>& episodes) {
  ScalarLearner scalar(adl, util::Rng(32), config);
  LaneTrainer lane(adl, 3, config);
  if (start != nullptr) {
    scalar.begin_retraining(*start, util::Rng(32));
    lane.begin_retraining(1, *start, util::Rng(32));
  } else {
    lane.reset_slot(1, util::Rng(32));
  }
  for (std::size_t e = 0; e < episodes.size(); ++e) {
    scalar.train_episode(episodes[e]);
    lane.queue_episode(1, episodes[e]);
    lane.train_queued();
    SCOPED_TRACE(testing::Message() << "episode " << e);
    expect_user_equal(scalar, lane, 1, 0);
  }
  return lane.engine().sequential_episodes();
}

/// A table of distinct random values: every greedy choice is unique, so no
/// Watkins cut closes a trace window before a hazard does.
rl::QTable distinct_table(const adl::Adl& adl, std::uint64_t seed) {
  const ScalarLearner shape(adl, util::Rng(0));
  rl::QTable q(shape.q().num_states(), shape.q().num_actions(), 0.0);
  util::Rng rng(seed);
  for (rl::StateId s = 0; s < q.num_states(); ++s) {
    for (rl::ActionId a = 0; a < q.num_actions(); ++a) {
      q.set(s, a, 500.0 + 500.0 * rng.uniform());
    }
  }
  return q;
}

/// ε small enough that no transition of these tests explores, but inside
/// (0, 1), where the one-pass trainer runs.
LearnerConfig greedy_config() {
  LearnerConfig config;
  config.epsilon = 1e-12;
  config.min_epsilon = 0.0;
  return config;
}

TEST(LaneTrainer, Width1MatchesScalarLearner) {
  run_fleet_equivalence(1, 3, 40);
}

TEST(LaneTrainer, Width4MatchesScalarLearnerRaggedTail) {
  run_fleet_equivalence(4, 7, 40);  // 4 + ragged 3
}

TEST(LaneTrainer, Width8MatchesScalarLearnerRaggedTail) {
  run_fleet_equivalence(8, 13, 25);  // 8 + ragged 5
}

TEST(LaneTrainer, Width16MatchesScalarLearnerRaggedTail) {
  run_fleet_equivalence(16, 21, 20);  // 16 + ragged 5
}

TEST(LaneTrainer, HandWashingMaskedRowsMatchScalar) {
  // Three tools: 6 actions, so a row fills 6 of a vector's 8 doubles.
  run_fleet_equivalence(4, 6, 30, "Hand-washing");
  run_fleet_equivalence(8, 9, 20, "Hand-washing");
}

TEST(LaneTrainer, DressingMatchesScalar) {
  run_fleet_equivalence(4, 6, 30, "Dressing");
  run_fleet_equivalence(16, 17, 15, "Dressing");
}

TEST(LaneTrainer, EpsilonZeroAndOneMatchScalarOnThePerTransitionPath) {
  // ε outside (0, 1) draws no Bernoulli sample; every trained episode runs
  // on the per-transition path.
  LearnerConfig never;
  never.epsilon = 0.0;
  never.min_epsilon = 0.0;
  EXPECT_GT(run_fleet_equivalence(4, 5, 12, "Tea-making", never), 0u);
  LearnerConfig always;
  always.epsilon = 1.0;
  always.epsilon_decay = 1.0;
  always.min_epsilon = 1.0;
  EXPECT_GT(run_fleet_equivalence(4, 5, 12, "Tea-making", always), 0u);
}

TEST(LaneTrainer, ColdStartAllTieRowsMatchScalar) {
  // A fresh optimistic table: every row is an 8-way exact tie, so every
  // greedy choice draws through the reservoir and cuts its trace window.
  adl::AdlLibrary library;
  const adl::Adl& adl = library.tea_making();
  std::vector<adl::StepId> routine;
  for (const adl::AdlStep& step : adl.primary_routine().steps()) {
    routine.push_back(step.step_id());
  }
  const std::vector<std::vector<adl::StepId>> episodes(6, routine);
  EXPECT_EQ(run_episodes(adl, LearnerConfig(), nullptr, episodes), 0u);
}

TEST(LaneTrainer, RevisitedStatesFallBackAndMatchScalar) {
  adl::AdlLibrary library;
  const adl::Adl& adl = library.tea_making();
  const std::vector<adl::AdlStep>& steps = adl.primary_routine().steps();
  const adl::StepId a = steps[0].step_id();
  const adl::StepId b = steps[1].step_id();
  const adl::StepId c = steps[2].step_id();
  const adl::StepId d = steps[3].step_id();
  const rl::QTable start = distinct_table(adl, 5);

  // <a,b> comes back while the window it opened is still open.
  EXPECT_EQ(run_episodes(adl, greedy_config(), &start,
                         {{a, b, a, b, c, d}}),
            1u);
  // Three identical steps: <a,a> -> <a,a> reads the row it writes.
  EXPECT_EQ(run_episodes(adl, greedy_config(), &start, {{a, a, a, b, c, d}}),
            1u);
  // Clean episodes stay on the one-pass trainer.
  EXPECT_EQ(run_episodes(adl, greedy_config(), &start,
                         {{a, b, c, d}, {a, c, b, d}, {b, a, c}}),
            0u);
  // The fleet's noisy shape at a warm ε, mixed.
  EXPECT_GT(run_episodes(adl, LearnerConfig(), &start,
                         {{a, a, a, a, b, c, d},
                          {a, b, a, b, a, b, c, d},
                          {a, b, c, d, c, d, c, d}}),
            0u);
}

TEST(LaneTrainer, EpisodeLongerThanTheCutoffAgeMatchesScalar) {
  // 53 greedy transitions at the default γλ = 0.63: the first states are
  // never visited again, so their trace entries age past the cutoff (40
  // transitions) and drop, on the per-transition path the first revisit
  // hands the episode to.
  adl::AdlLibrary library;
  const adl::Adl& adl = library.tea_making();
  const std::vector<adl::AdlStep>& steps = adl.primary_routine().steps();
  std::vector<adl::StepId> episode = {steps[0].step_id(), steps[1].step_id(),
                                      steps[2].step_id()};
  for (int i = 0; i < 25; ++i) {
    episode.push_back(steps[3].step_id());
    episode.push_back(steps[2].step_id());
  }
  const rl::QTable start = distinct_table(adl, 9);
  EXPECT_EQ(run_episodes(adl, greedy_config(), &start, {episode, episode}),
            2u);
}

TEST(LaneTrainer, WindowReachingTheCutoffAgeFallsBackAndMatchesScalar) {
  // At λ = 0.3 (γλ = 0.27) a trace entry drops after 15 transitions. A
  // de Bruijn walk over the four tools visits 18 distinct states without
  // an s == s' step, so only the window's age can end the one pass.
  adl::AdlLibrary library;
  const adl::Adl& adl = library.tea_making();
  const std::vector<adl::AdlStep>& steps = adl.primary_routine().steps();
  std::vector<adl::StepId> episode;
  for (const int k : {0, 0, 1, 0, 2, 0, 3, 1, 1, 2, 1, 3, 2, 2, 3, 3, 0}) {
    episode.push_back(steps[static_cast<std::size_t>(k)].step_id());
  }
  LearnerConfig config = greedy_config();
  config.td.lambda = 0.3;
  const rl::QTable start = distinct_table(adl, 13);
  EXPECT_EQ(run_episodes(adl, config, &start, {episode}), 1u);
  // Fifteen transitions: the longest window whose oldest entry is live.
  episode.resize(15);
  EXPECT_EQ(run_episodes(adl, config, &start, {episode}), 0u);
}

TEST(LaneTrainer, ShortAndForeignEpisodesMatchScalar) {
  adl::AdlLibrary library;
  const adl::Adl& adl = library.tea_making();
  ScalarLearner scalar(adl, util::Rng(1));
  LaneTrainer lane(adl, 2);
  lane.reset_slot(0, util::Rng(1));

  const std::vector<std::vector<adl::StepId>> episodes = {
      {},                                        // idle-only: ε decay path
      {adl::tools::kToothbrush},                 // all skipped
      {adl.primary_routine().first_step()},      // < 2 valid steps
      {adl.primary_routine().first_step(), adl::tools::kToothbrush,
       adl.primary_routine().steps()[1].step_id()},  // skip inside
  };
  for (const auto& e : episodes) {
    scalar.train_episode(e);
    lane.queue_episode(0, e);
    lane.train_queued();
  }
  expect_user_equal(scalar, lane, 0, 0);
  EXPECT_EQ(scalar.skipped_steps(), 2u);
}

TEST(LaneTrainer, BeginRetrainingMatchesScalar) {
  adl::AdlLibrary library;
  const adl::Adl& adl = library.tea_making();
  std::vector<adl::StepId> routine;
  for (const adl::AdlStep& step : adl.primary_routine().steps()) {
    routine.push_back(step.step_id());
  }

  // A warm table from a first training run.
  ScalarLearner warm(adl, util::Rng(77));
  {
    util::Rng env(78);
    std::vector<adl::StepId> episode;
    NoiseProfile noise;
    for (int e = 0; e < 30; ++e) {
      sensed_episode(routine, noise, adl::tools::kToothbrush, env, episode);
      warm.train_episode(episode);
    }
  }

  ScalarLearner scalar(adl, util::Rng(1));
  scalar.begin_retraining(warm.q(), util::Rng(314));
  LaneTrainer lane(adl, 4);
  lane.begin_retraining(2, warm.q(), util::Rng(314));

  util::Rng env_s(400);
  util::Rng env_l(400);
  std::vector<adl::StepId> episode;
  NoiseProfile noise;
  for (int e = 0; e < 20; ++e) {
    sensed_episode(routine, noise, adl::tools::kToothbrush, env_s, episode);
    scalar.train_episode(episode);
    sensed_episode(routine, noise, adl::tools::kToothbrush, env_l, episode);
    lane.queue_episode(2, episode);
    lane.train_queued();
  }
  expect_user_equal(scalar, lane, 2, 0);
}

TEST(LaneTrainer, RejectsDoubleQueueAndShapeMismatch) {
  adl::AdlLibrary library;
  const adl::Adl& adl = library.tea_making();
  LaneTrainer lane(adl, 2);
  lane.reset_slot(0, util::Rng(1));
  const std::vector<adl::StepId> e = {adl.primary_routine().first_step()};
  lane.queue_episode(0, e);
  EXPECT_THROW(lane.queue_episode(0, e), std::logic_error);
  lane.train_queued();

  rl::QTable wrong(2, 2, 0.0);
  EXPECT_THROW(lane.begin_retraining(0, wrong, util::Rng(1)),
               std::invalid_argument);

  // Slots at or past width() are refused before any slab is touched.
  rl::QTable right(lane.num_states(), lane.num_actions(), 0.0);
  EXPECT_THROW(lane.reset_slot(2, util::Rng(1)), std::out_of_range);
  EXPECT_THROW(lane.begin_retraining(2, right, util::Rng(1)),
               std::out_of_range);
  EXPECT_THROW(lane.queue_episode(2, e), std::out_of_range);
  EXPECT_THROW(lane.export_q(2, right), std::out_of_range);
  EXPECT_THROW((void)lane.greedy_accuracy(2), std::out_of_range);
  EXPECT_THROW((void)lane.q_sum(2), std::out_of_range);
  EXPECT_NO_THROW(lane.export_q(1, right));
}

}  // namespace
}  // namespace coreda::planning
