#include "support/td_lambda.hpp"

#include <gtest/gtest.h>

#include "support/policy.hpp"
#include "util/rng.hpp"

namespace coreda::rl {
namespace {

/// A 5-state deterministic chain: action 0 moves right (reward 0, terminal
/// reward 10 entering the last state), action 1 stays put with reward -1.
/// Optimal policy: always move right.
struct ChainEnv {
  static constexpr std::size_t kStates = 5;
  static constexpr std::size_t kActions = 2;

  StateId state = 0;

  Transition step(ActionId a) {
    Transition t;
    t.state = state;
    t.action = a;
    if (a == 0) {
      t.next_state = state + 1;
      t.terminal = t.next_state == kStates - 1;
      t.reward = t.terminal ? 10.0 : 0.0;
    } else {
      t.next_state = state;
      t.reward = -1.0;
      t.terminal = false;
    }
    state = t.next_state;
    return t;
  }

  void reset() { state = 0; }
};

TEST(TdLambdaTest, ConfigValidation) {
  TdLambdaConfig bad;
  bad.alpha = 0.0;
  EXPECT_THROW(TdLambdaQLearning(2, 2, bad), std::invalid_argument);
  bad = TdLambdaConfig();
  bad.gamma = 1.5;
  EXPECT_THROW(TdLambdaQLearning(2, 2, bad), std::invalid_argument);
  bad = TdLambdaConfig();
  bad.lambda = -0.1;
  EXPECT_THROW(TdLambdaQLearning(2, 2, bad), std::invalid_argument);
}

TEST(TdLambdaTest, InitialQRespected) {
  TdLambdaConfig config;
  config.initial_q = 42.0;
  TdLambdaQLearning learner(3, 2, config);
  EXPECT_DOUBLE_EQ(learner.q().get(2, 1), 42.0);
}

TEST(TdLambdaTest, SingleTerminalBackup) {
  TdLambdaConfig config;
  config.alpha = 0.5;
  TdLambdaQLearning learner(2, 2, config);
  learner.begin_episode();
  const double delta =
      learner.observe(Transition{0, 1, 10.0, 1, /*terminal=*/true});
  EXPECT_DOUBLE_EQ(delta, 10.0);
  EXPECT_DOUBLE_EQ(learner.q().get(0, 1), 5.0);  // alpha * delta
}

TEST(TdLambdaTest, NonTerminalBootstraps) {
  TdLambdaConfig config;
  config.alpha = 1.0;
  config.gamma = 0.5;
  config.lambda = 0.0;
  TdLambdaQLearning learner(3, 1, config);
  learner.q().set(1, 0, 8.0);
  learner.begin_episode();
  learner.observe(Transition{0, 0, 2.0, 1, false});
  // Target = 2 + 0.5 * 8 = 6; alpha = 1 -> Q = 6.
  EXPECT_DOUBLE_EQ(learner.q().get(0, 0), 6.0);
}

TEST(TdLambdaTest, LearnsChainOptimalPolicy) {
  TdLambdaConfig config;
  config.alpha = 0.3;
  config.gamma = 0.9;
  config.lambda = 0.7;
  TdLambdaQLearning learner(ChainEnv::kStates, ChainEnv::kActions, config);
  EpsilonGreedyPolicy policy(0.3);
  util::Rng rng(11);

  ChainEnv env;
  for (int episode = 0; episode < 300; ++episode) {
    env.reset();
    learner.begin_episode();
    for (int step = 0; step < 50; ++step) {
      const ActionId a = policy.select(learner.q(), env.state, rng);
      const Transition t = env.step(a);
      learner.observe(t);
      if (t.terminal) break;
    }
  }
  for (StateId s = 0; s + 1 < ChainEnv::kStates; ++s) {
    EXPECT_EQ(learner.q().best_action(s), 0u) << "state " << s;
  }
  // Values follow the discounted terminal reward backwards.
  EXPECT_NEAR(learner.q().get(3, 0), 10.0, 0.5);
  EXPECT_NEAR(learner.q().get(2, 0), 9.0, 0.7);
}

TEST(TdLambdaTest, TracesPropagateRewardInOneEpisode) {
  // With lambda near 1, a single terminal reward updates the whole path.
  TdLambdaConfig with_traces;
  with_traces.alpha = 0.5;
  with_traces.lambda = 0.9;
  TdLambdaQLearning learner(4, 1, with_traces);
  learner.begin_episode();
  learner.observe(Transition{0, 0, 0.0, 1, false});
  learner.observe(Transition{1, 0, 0.0, 2, false});
  learner.observe(Transition{2, 0, 10.0, 3, true});
  // All three state-action pairs moved (single action => always uniquely
  // greedy, so traces survive).
  EXPECT_GT(learner.q().get(0, 0), 0.0);
  EXPECT_GT(learner.q().get(1, 0), 0.0);
  EXPECT_GT(learner.q().get(2, 0), 0.0);
}

TEST(TdLambdaTest, LambdaZeroDoesNotPropagate) {
  TdLambdaConfig config;
  config.alpha = 0.5;
  config.lambda = 0.0;
  TdLambdaQLearning learner(4, 1, config);
  learner.begin_episode();
  learner.observe(Transition{0, 0, 0.0, 1, false});
  learner.observe(Transition{1, 0, 0.0, 2, false});
  learner.observe(Transition{2, 0, 10.0, 3, true});
  // Only the last pair learned in this single pass.
  EXPECT_DOUBLE_EQ(learner.q().get(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(learner.q().get(1, 0), 0.0);
  EXPECT_GT(learner.q().get(2, 0), 0.0);
}

TEST(TdLambdaTest, ExploratoryActionDoesNotPolluteEarlierPairs) {
  // Two actions; make action 0 uniquely greedy everywhere, then take a
  // non-greedy action mid-episode: earlier pairs must not absorb its error.
  TdLambdaConfig config;
  config.alpha = 0.5;
  config.lambda = 0.9;
  TdLambdaQLearning learner(4, 2, config);
  for (StateId s = 0; s < 4; ++s) learner.q().set(s, 0, 1.0);

  learner.begin_episode();
  learner.observe(Transition{0, 0, 0.0, 1, false});
  const double q00_before = learner.q().get(0, 0);
  // Non-greedy (action 1) with a large negative reward.
  learner.observe(Transition{1, 1, -100.0, 2, false});
  EXPECT_DOUBLE_EQ(learner.q().get(0, 0), q00_before);
}

TEST(TdLambdaTest, CounterfactualUpdateBypassesTraces) {
  TdLambdaConfig config;
  config.alpha = 0.5;
  config.gamma = 0.5;
  TdLambdaQLearning learner(3, 2, config);
  learner.q().set(2, 0, 4.0);
  const double rewards[] = {0.0, 3.0};
  const double before = learner.q().get(0, 1);
  learner.update_counterfactual_row(0, rewards, /*taken=*/0, 2, false);
  // Target = 3 + 0.5 * 4 = 5, so δ = ΔQ / α = 5.
  const double delta = (learner.q().get(0, 1) - before) / config.alpha;
  EXPECT_DOUBLE_EQ(delta, 5.0);
  EXPECT_DOUBLE_EQ(learner.q().get(0, 1), 2.5);
  EXPECT_EQ(learner.traces().active_count(), 0u);
}

TEST(TdLambdaTest, CounterfactualTerminalIgnoresNextState) {
  TdLambdaConfig config;
  config.alpha = 1.0;
  TdLambdaQLearning learner(3, 2, config);
  learner.q().set(2, 0, 1000.0);
  const double rewards[] = {0.0, 7.0};
  learner.update_counterfactual_row(0, rewards, /*taken=*/0, 2,
                                    /*terminal=*/true);
  EXPECT_DOUBLE_EQ(learner.q().get(0, 1), 7.0);
}

TEST(TdLambdaTest, UpdateCounterIncrements) {
  TdLambdaQLearning learner(2, 2);
  learner.observe(Transition{0, 0, 1.0, 1, true});
  const double rewards[] = {1.0, 1.0};
  learner.update_counterfactual_row(0, rewards, /*taken=*/0, 1, true);
  EXPECT_EQ(learner.updates(), 2u);
}

}  // namespace
}  // namespace coreda::rl
