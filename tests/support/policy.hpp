// The behaviour policy of the test-only scalar TD(λ) reference
// (support/td_lambda.hpp).

#pragma once

#include "rl/q_table.hpp"
#include "rl/types.hpp"
#include "util/rng.hpp"

namespace coreda::rl {

/// ε-greedy with optional multiplicative decay per episode.
///
/// With a zero-initialized QTable the greedy arm is itself a uniform random
/// tie-break, so the initial behaviour matches the paper's "start from a
/// random policy" regardless of ε.
class EpsilonGreedyPolicy {
 public:
  /// Throws std::invalid_argument for epsilon outside [0, 1] or decay
  /// outside (0, 1].
  explicit EpsilonGreedyPolicy(double epsilon, double decay = 1.0,
                               double min_epsilon = 0.0);

  /// Picks a uniformly random action with probability ε, else the greedy
  /// one with random tie-breaking.
  ActionId select(const QTable& q, StateId state, util::Rng& rng);

  /// Applies one decay step (call between episodes).
  void decay_epsilon() noexcept;

  /// Restarts the decay schedule from `epsilon` (same validation as the
  /// constructor). Lets a long-lived learner begin a fresh training run —
  /// the serving tier's retrain lanes — without rebuilding the policy.
  void reset_epsilon(double epsilon);

  double epsilon() const noexcept { return epsilon_; }

 private:
  double epsilon_;
  double decay_;
  double min_epsilon_;
};

}  // namespace coreda::rl
