// Validates the TD(λ) learner against ground truth on a classic 4x4
// gridworld: value iteration (computed exactly here) provides Q*, and the
// sample-based learner must converge to the same greedy policy and values.

#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "support/policy.hpp"
#include "support/td_lambda.hpp"
#include "util/rng.hpp"

namespace coreda::rl {
namespace {

// 4x4 grid, start anywhere, goal at cell 15 (reward +10, terminal).
// Cell 5 is a pit (reward -10, terminal). Step cost -1. Actions:
// 0=up, 1=down, 2=left, 3=right; bumping a wall stays in place.
constexpr int kSide = 4;
constexpr int kStates = kSide * kSide;
constexpr int kActions = 4;
constexpr StateId kGoal = 15;
constexpr StateId kPit = 5;
constexpr double kGamma = 0.95;

StateId step_to(StateId s, ActionId a) {
  int row = static_cast<int>(s) / kSide;
  int col = static_cast<int>(s) % kSide;
  switch (a) {
    case 0: row = std::max(0, row - 1); break;
    case 1: row = std::min(kSide - 1, row + 1); break;
    case 2: col = std::max(0, col - 1); break;
    default: col = std::min(kSide - 1, col + 1); break;
  }
  return static_cast<StateId>(row * kSide + col);
}

Transition make_transition(StateId s, ActionId a) {
  Transition t;
  t.state = s;
  t.action = a;
  t.next_state = step_to(s, a);
  if (t.next_state == kGoal) {
    t.reward = 10.0;
    t.terminal = true;
  } else if (t.next_state == kPit) {
    t.reward = -10.0;
    t.terminal = true;
  } else {
    t.reward = -1.0;
    t.terminal = false;
  }
  return t;
}

/// Exact Q* by value iteration.
std::array<std::array<double, kActions>, kStates> solve_exact() {
  std::array<double, kStates> v{};
  for (int sweep = 0; sweep < 2000; ++sweep) {
    double delta = 0.0;
    for (StateId s = 0; s < kStates; ++s) {
      if (s == kGoal || s == kPit) continue;
      double best = -1e18;
      for (ActionId a = 0; a < kActions; ++a) {
        const Transition t = make_transition(s, a);
        const double q =
            t.reward + (t.terminal ? 0.0 : kGamma * v[t.next_state]);
        best = std::max(best, q);
      }
      delta = std::max(delta, std::abs(best - v[s]));
      v[s] = best;
    }
    if (delta < 1e-12) break;
  }
  std::array<std::array<double, kActions>, kStates> q{};
  for (StateId s = 0; s < kStates; ++s) {
    for (ActionId a = 0; a < kActions; ++a) {
      const Transition t = make_transition(s, a);
      q[s][a] = t.reward + (t.terminal ? 0.0 : kGamma * v[t.next_state]);
    }
  }
  return q;
}

TdLambdaQLearning train(double lambda, int episodes) {
  TdLambdaConfig config;
  config.alpha = 0.15;
  config.gamma = kGamma;
  config.lambda = lambda;
  TdLambdaQLearning learner(kStates, kActions, config);
  EpsilonGreedyPolicy policy(0.25);
  util::Rng rng(37);

  for (int episode = 0; episode < episodes; ++episode) {
    StateId s = static_cast<StateId>(rng.pick_index(kStates));
    if (s == kGoal || s == kPit) continue;
    learner.begin_episode();
    for (int step = 0; step < 200; ++step) {
      const ActionId a = policy.select(learner.q(), s, rng);
      const Transition t = make_transition(s, a);
      learner.observe(t);
      if (t.terminal) break;
      s = t.next_state;
    }
  }
  return learner;
}

TEST(GridworldTest, GreedyPolicyMatchesValueIteration) {
  const auto exact = solve_exact();
  const TdLambdaQLearning learner = train(/*lambda=*/0.7, 20000);
  for (StateId s = 0; s < kStates; ++s) {
    if (s == kGoal || s == kPit) continue;
    // The learned greedy action must be *an* optimal action (ties exist).
    double best = -1e18;
    for (ActionId a = 0; a < kActions; ++a) best = std::max(best, exact[s][a]);
    const ActionId learned = learner.q().best_action(s);
    EXPECT_NEAR(exact[s][learned], best, 1e-9)
        << "state " << s << " picked suboptimal action " << learned;
  }
}

TEST(GridworldTest, ValuesCloseToExact) {
  const auto exact = solve_exact();
  const TdLambdaQLearning learner = train(0.7, 20000);
  // Values along the optimal policy's actions converge tightly; off-policy
  // actions are visited less and get a looser bound.
  for (StateId s = 0; s < kStates; ++s) {
    if (s == kGoal || s == kPit) continue;
    const ActionId a = learner.q().best_action(s);
    EXPECT_NEAR(learner.q().get(s, a), exact[s][a], 0.8)
        << "state " << s;
  }
}

TEST(GridworldTest, LambdaVariantsAgreeOnPolicy) {
  const TdLambdaQLearning flat = train(0.0, 20000);
  const TdLambdaQLearning traced = train(0.9, 20000);
  for (StateId s = 0; s < kStates; ++s) {
    if (s == kGoal || s == kPit) continue;
    // Both must be optimal; compare against exact rather than each other
    // (multiple optimal actions may differ between runs).
    const auto exact = solve_exact();
    double best = -1e18;
    for (ActionId a = 0; a < kActions; ++a) best = std::max(best, exact[s][a]);
    EXPECT_NEAR(exact[s][flat.q().best_action(s)], best, 1e-9);
    EXPECT_NEAR(exact[s][traced.q().best_action(s)], best, 1e-9);
  }
}

}  // namespace
}  // namespace coreda::rl
