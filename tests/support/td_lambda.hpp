// The test-only scalar TD(λ) reference: one Watkins Q(λ) learner over an
// rl::QTable, one transition at a time, with replacing traces. The library
// trains through rl::LaneEngine alone; the lane, learner and planner tests
// pin it to this reference bit for bit.

#pragma once

#include <span>

#include "rl/q_table.hpp"
#include "rl/types.hpp"
#include "support/traces.hpp"

namespace coreda::rl {

/// Watkins' TD(λ) Q-Learning — the algorithm the paper runs via
/// RL Toolbox 2.0 (its planning subsystem, §2.2).
///
/// Off-policy: the TD target bootstraps from max_a' Q(s',a') regardless of
/// the action the behaviour policy will actually take. Eligibility traces
/// credit earlier (s,a) pairs of the same episode, which is what lets the
/// big terminal reward (1000 for completing an ADL) propagate down a
/// four-step routine in a handful of episodes rather than four separate
/// sweeps.
class TdLambdaQLearning {
 public:
  /// Throws std::invalid_argument when alpha/gamma/lambda are outside
  /// [0, 1] or alpha is zero.
  TdLambdaQLearning(std::size_t num_states, std::size_t num_actions,
                    TdLambdaConfig config = TdLambdaConfig());

  /// Resets traces at an episode boundary (the Q table persists).
  void begin_episode();

  /// Performs one backup for transition `t`. `t.action` must be the action
  /// actually taken in `t.state`. Returns the TD error δ.
  double observe(const Transition& t);

  /// Counterfactual sweep: a one-step backup of every action a != taken, in
  /// ascending order, toward rewards[a] + γ max Q(s') (rewards[a] alone when
  /// `terminal`), without touching the eligibility traces. Used by offline
  /// trainers in environments whose transitions do not depend on the action
  /// (the reward of every action is then computable from the recorded
  /// trajectory). The bootstrap max Q(s') is re-read per action only in the
  /// aliased s == s' case, where the sweep's own writes can move the row
  /// maximum. `rewards` must be num_actions() wide (std::invalid_argument
  /// otherwise).
  void update_counterfactual_row(StateId s, std::span<const double> rewards,
                                 ActionId taken, StateId next_state,
                                 bool terminal);

  const QTable& q() const noexcept { return q_; }
  QTable& q() noexcept { return q_; }
  const TdLambdaConfig& config() const noexcept { return config_; }
  const EligibilityTraces& traces() const noexcept { return traces_; }
  std::uint64_t updates() const noexcept { return updates_; }

 private:
  TdLambdaConfig config_;
  QTable q_;
  EligibilityTraces traces_;
  std::uint64_t updates_ = 0;
};

}  // namespace coreda::rl
