#include "support/policy.hpp"

#include <gtest/gtest.h>

#include <map>

namespace coreda::rl {
namespace {

TEST(EpsilonGreedyTest, ZeroEpsilonIsGreedy) {
  QTable q(1, 3);
  q.set(0, 2, 5.0);
  EpsilonGreedyPolicy policy(0.0);
  util::Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(policy.select(q, 0, rng), 2u);
  }
}

TEST(EpsilonGreedyTest, FullEpsilonIsUniform) {
  QTable q(1, 4);
  q.set(0, 0, 100.0);
  EpsilonGreedyPolicy policy(1.0);
  util::Rng rng(2);
  std::map<ActionId, int> counts;
  for (int i = 0; i < 4000; ++i) ++counts[policy.select(q, 0, rng)];
  EXPECT_EQ(counts.size(), 4u);
  for (const auto& [a, n] : counts) {
    EXPECT_NEAR(n / 4000.0, 0.25, 0.05);
  }
}

TEST(EpsilonGreedyTest, IntermediateEpsilonMixes) {
  QTable q(1, 2);
  q.set(0, 1, 5.0);
  EpsilonGreedyPolicy policy(0.4);
  util::Rng rng(3);
  int greedy = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (policy.select(q, 0, rng) == 1u) ++greedy;
  }
  // P(greedy arm) = (1 - eps) + eps/2 = 0.8.
  EXPECT_NEAR(static_cast<double>(greedy) / n, 0.8, 0.02);
}

TEST(EpsilonGreedyTest, DecaySchedule) {
  EpsilonGreedyPolicy policy(0.5, 0.5, 0.1);
  EXPECT_DOUBLE_EQ(policy.epsilon(), 0.5);
  policy.decay_epsilon();
  EXPECT_DOUBLE_EQ(policy.epsilon(), 0.25);
  policy.decay_epsilon();
  EXPECT_DOUBLE_EQ(policy.epsilon(), 0.125);
  policy.decay_epsilon();
  EXPECT_DOUBLE_EQ(policy.epsilon(), 0.1);  // clamped at floor
  policy.decay_epsilon();
  EXPECT_DOUBLE_EQ(policy.epsilon(), 0.1);
}

TEST(EpsilonGreedyTest, InvalidParamsThrow) {
  EXPECT_THROW(EpsilonGreedyPolicy(-0.1), std::invalid_argument);
  EXPECT_THROW(EpsilonGreedyPolicy(1.1), std::invalid_argument);
  EXPECT_THROW(EpsilonGreedyPolicy(0.5, 0.0), std::invalid_argument);
  EXPECT_THROW(EpsilonGreedyPolicy(0.5, 1.1), std::invalid_argument);
  EXPECT_THROW(EpsilonGreedyPolicy(0.5, 0.9, 0.6), std::invalid_argument);
}

}  // namespace
}  // namespace coreda::rl
