#pragma once

#include <optional>
#include <span>
#include <vector>

#include "adl/routine.hpp"
#include "planning/codec.hpp"
#include "planning/reward.hpp"
#include "rl/policy.hpp"
#include "rl/td_lambda.hpp"
#include "util/rng.hpp"

namespace coreda::planning {

/// The TD(λ) defaults the planning subsystem uses: optimistic initial Q at
/// the terminal reward so every prompt is tried before the policy commits —
/// without this, an early lucky action can absorb the bootstrap value and
/// ε-greedy exploration alone takes hundreds of episodes to displace it.
inline rl::TdLambdaConfig default_planner_td() {
  rl::TdLambdaConfig td;
  td.initial_q = 1000.0;
  // A small step size keeps the value estimates of aliased contexts (e.g.
  // tea-making's <idle, tea-box> state when the pot's weak signal was
  // missed) statistically separated instead of flapping.
  td.alpha = 0.1;
  return td;
}

/// Everything that parameterizes the planning subsystem's learner.
struct LearnerConfig {
  rl::TdLambdaConfig td = default_planner_td();
  RewardConfig reward{};
  /// ε-greedy exploration schedule. The initial policy is effectively
  /// random (zero Q table + random tie-breaks), and ε decays per training
  /// episode toward `min_epsilon`, which bounds the residual prompting
  /// mistakes a still-exploring deployed system would make.
  double epsilon = 0.2;
  double epsilon_decay = 0.978;
  double min_epsilon = 0.005;
  /// Offline training consumes *recorded* processes, so the user's next
  /// step never depends on the prompt the learner would have sent — the
  /// reward of every candidate prompt is computable from the recording.
  /// When enabled, each transition also applies a one-step counterfactual
  /// backup to every non-taken action, which removes the undersampling
  /// pathology of pure trajectory sampling on tiny exploration budgets.
  bool counterfactual_sweep = true;
};

/// A prompt the planner wants delivered, with its value estimate.
struct PlannedPrompt {
  PlannerAction action{};
  double q = 0.0;
};

/// The planning subsystem: learns one user's routine of one ADL with TD(λ)
/// Q-Learning and predicts the next step from the <prev, cur> StepId pair
/// (paper §2.2, Figure 3).
///
/// Training consumes StepId sequences as delivered by the sensing
/// subsystem — one sequence per completed ADL process ("training sample" in
/// the paper). Sequences may contain sensing noise (missed or spurious
/// steps); transitions that fall outside the codec vocabulary are counted
/// and skipped rather than corrupting the table.
class RoutineLearner {
 public:
  RoutineLearner(const adl::Adl& adl, util::Rng rng,
                 LearnerConfig config = LearnerConfig());

  /// Learns from one complete ADL process. Steps outside the ADL vocabulary
  /// are ignored (sensing glitches from other rooms' tools).
  void train_episode(std::span<const adl::StepId> steps);

  /// Greedy prompt for the given context; nullopt when the context is
  /// outside the vocabulary. The terminal state of the routine yields
  /// whatever the table says, but callers normally stop prompting there.
  std::optional<PlannedPrompt> predict(PlannerState state) const;

  /// Convenience: predict from raw StepIds.
  std::optional<PlannedPrompt> predict(adl::StepId prev,
                                       adl::StepId cur) const {
    return predict(PlannerState{prev, cur});
  }

  /// The contexts <S_{i-1}, S_i> of the reference routine from which a next
  /// step exists (the states scored by the learning curve).
  std::vector<PlannerState> predicting_states() const;

  /// True when the greedy prompt in `state` names the reference routine's
  /// next tool (the Figure 4 notion of a "correct" policy entry).
  bool greedy_correct(PlannerState state) const;

  /// Fraction of predicting states with a correct greedy prompt.
  double greedy_accuracy() const;

  /// Expected per-prompt accuracy of the *behaviour* policy (ε-greedy over
  /// the current table): (1-ε)·[greedy correct] + ε·(correct/|A|) averaged
  /// over predicting states. This is the smooth quantity whose 95 %/98 %
  /// crossings reproduce the paper's Figure 4 convergence numbers.
  double behaviour_accuracy() const;

  /// Replaces the value table with `q` (policy restore).
  /// Throws std::invalid_argument on a dimension mismatch.
  void import_q(const rl::QTable& q);

  /// Re-arms the learner for a fresh training run over an adopted table:
  /// imports `q`, replaces the exploration RNG, and restarts the ε decay
  /// schedule from the configured initial value. The retrain outcome is a
  /// pure function of (`q`, `rng`, the episodes trained next), independent
  /// of whatever this learner trained before — which is what lets the
  /// serving tier's retrain lanes reuse one warm learner per lane across
  /// users and stay deterministic at any job count. Allocation-free (same
  /// shape, same codecs; only values and RNG state change).
  void begin_retraining(const rl::QTable& q, util::Rng rng);

  double epsilon() const noexcept { return policy_.epsilon(); }
  std::size_t episodes_trained() const noexcept { return episodes_; }
  std::uint64_t skipped_steps() const noexcept { return skipped_; }
  const rl::QTable& q() const noexcept { return learner_.q(); }
  const StateCodec& state_codec() const noexcept { return states_; }
  const ActionCodec& action_codec() const noexcept { return actions_; }
  const adl::AdlRoutine& reference_routine() const noexcept {
    return *routine_;
  }

 private:
  const adl::AdlRoutine* routine_;  ///< reference (primary) routine
  LearnerConfig config_;
  StateCodec states_;
  ActionCodec actions_;
  CoredaRewardFunction reward_;
  rl::TdLambdaQLearning learner_;
  rl::EpsilonGreedyPolicy policy_;
  util::Rng rng_;
  std::size_t episodes_ = 0;
  std::uint64_t skipped_ = 0;

  // --- training hot path (see DESIGN.md) ----------------------------------
  // Rewards depend only on (action, actual next step, completes-flag), so
  // both reward matrices are built once in the ctor; train_episode then
  // reads one row per transition instead of decoding every action and
  // re-evaluating the reward function |A| times. Layout: symbol-major,
  // row width = num_actions().
  std::vector<PlannerAction> decoded_actions_;  ///< ActionId -> action
  std::vector<double> step_rewards_;      ///< completes == false rows
  std::vector<double> terminal_rewards_;  ///< completes == true rows
  // Scratch for train_episode, reused across calls so the steady-state
  // episode performs zero heap allocations: the filtered step sequence
  // (idle-prefixed) and each step's codec symbol index.
  std::vector<adl::StepId> episode_steps_;
  std::vector<std::uint32_t> episode_symbols_;
};

}  // namespace coreda::planning
