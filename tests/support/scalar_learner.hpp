// The scalar references of the planners' training arithmetic: one user's
// Watkins TD(λ) Q-learning run through the test-only scalar stack
// (support/td_lambda.hpp: TdLambdaQLearning + EligibilityTraces +
// EpsilonGreedyPolicy), one transition at a time.
//
//   * ScalarLearner: states <StepID_{i-1}, StepID_i>, with the planner's
//     episode protocol — vocabulary filter, idle prefix, precomputed reward
//     rows, terminal only on completion, ε decay per episode.
//     planning::RoutineLearner and planning::LaneTrainer train through
//     rl::LaneEngine; the lane, learner and retrain tests pin them to this
//     reference bit for bit (Q values, RNG draws, ε, counters).
//   * ScalarMultiRoutineLearner: planning::MultiRoutineLearner's training
//     loop from before it moved onto rl::LaneEngine, kept as its oracle.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "adl/routine.hpp"
#include "planning/codec.hpp"
#include "planning/learner.hpp"
#include "planning/multi_routine.hpp"
#include "planning/reward.hpp"
#include "support/policy.hpp"
#include "support/td_lambda.hpp"
#include "util/rng.hpp"

namespace coreda::planning {

class ScalarLearner {
 public:
  ScalarLearner(const adl::Adl& adl, util::Rng rng,
                LearnerConfig config = LearnerConfig())
      : routine_(&adl.primary_routine()),
        config_(config),
        states_(adl.tools()),
        actions_(adl.tools()),
        learner_(states_.num_states(), actions_.num_actions(), config.td),
        policy_(config.epsilon, config.epsilon_decay, config.min_epsilon),
        rng_(rng) {
    // Rewards depend only on (action, actual next step, completes-flag), so
    // both reward matrices are built once; train_episode reads one row per
    // transition. Layout: symbol-major, row width = num_actions().
    const CoredaRewardFunction reward(config.reward);
    const std::size_t num_actions = actions_.num_actions();
    for (rl::ActionId a = 0; a < num_actions; ++a) {
      decoded_actions_.push_back(actions_.decode(a));
    }
    const auto& symbols = states_.symbols();
    step_rewards_.resize(symbols.size() * num_actions);
    terminal_rewards_.resize(symbols.size() * num_actions);
    for (std::size_t sym = 0; sym < symbols.size(); ++sym) {
      for (rl::ActionId a = 0; a < num_actions; ++a) {
        step_rewards_[sym * num_actions + a] =
            reward(decoded_actions_[a], symbols[sym], /*completes=*/false);
        terminal_rewards_[sym * num_actions + a] =
            reward(decoded_actions_[a], symbols[sym], /*completes=*/true);
      }
    }
  }

  void train_episode(std::span<const adl::StepId> steps) {
    // Keep only steps the codec knows, behind the idle prefix. Encoding
    // <idle, s> yields symbol_index(s), so the encode doubles as the
    // vocabulary test.
    episode_steps_.clear();
    episode_symbols_.clear();
    episode_steps_.push_back(adl::kIdleStep);
    episode_symbols_.push_back(0);
    for (adl::StepId s : steps) {
      if (const auto sym = states_.encode(PlannerState{adl::kIdleStep, s})) {
        episode_steps_.push_back(s);
        episode_symbols_.push_back(static_cast<std::uint32_t>(*sym));
      } else {
        ++skipped_;
      }
    }

    ++episodes_;
    if (episode_steps_.size() < 3) {  // fewer than two valid steps
      policy_.decay_epsilon();
      return;
    }

    const std::size_t num_symbols = states_.symbols().size();
    const std::size_t num_actions = actions_.num_actions();
    learner_.begin_episode();
    for (std::size_t i = 1; i < episode_steps_.size(); ++i) {
      const std::uint32_t prev_sym = i >= 2 ? episode_symbols_[i - 2] : 0;
      const std::uint32_t cur_sym = episode_symbols_[i - 1];
      const std::uint32_t next_sym = episode_symbols_[i];
      const auto s =
          static_cast<rl::StateId>(prev_sym * num_symbols + cur_sym);
      const auto s_next =
          static_cast<rl::StateId>(cur_sym * num_symbols + next_sym);

      const rl::ActionId a = policy_.select(learner_.q(), s, rng_);

      // Terminal only when the ADL actually completed; a truncated
      // sequence just ends.
      const bool completes = i + 1 == episode_steps_.size() &&
                             routine_->is_terminal(episode_steps_[i]);
      const std::span<const double> rewards{
          (completes ? terminal_rewards_ : step_rewards_).data() +
              next_sym * num_actions,
          num_actions};

      learner_.observe(rl::Transition{s, a, rewards[a], s_next,
                                      /*terminal=*/completes});
      if (config_.counterfactual_sweep) {
        learner_.update_counterfactual_row(s, rewards, a, s_next, completes);
      }
    }
    policy_.decay_epsilon();
  }

  void import_q(const rl::QTable& q) {
    rl::QTable& mine = learner_.q();
    if (q.num_states() != mine.num_states() ||
        q.num_actions() != mine.num_actions()) {
      throw std::invalid_argument("ScalarLearner::import_q: shape mismatch");
    }
    for (rl::StateId s = 0; s < q.num_states(); ++s) {
      for (rl::ActionId a = 0; a < q.num_actions(); ++a) {
        mine.set(s, a, q.get(s, a));
      }
    }
  }

  void begin_retraining(const rl::QTable& q, util::Rng rng) {
    import_q(q);
    rng_ = rng;
    policy_.reset_epsilon(config_.epsilon);
  }

  std::optional<PlannedPrompt> predict(PlannerState state) const {
    const auto s = states_.encode(state);
    if (!s) return std::nullopt;
    const rl::ActionId a = learner_.q().best_action(*s);
    return PlannedPrompt{decoded_actions_[a], learner_.q().get(*s, a)};
  }

  /// Fraction of the reference routine's predicting states whose greedy
  /// prompt names the routine's next tool.
  double greedy_accuracy() const {
    std::size_t hits = 0;
    std::size_t states = 0;
    const auto score = [&](PlannerState state, adl::StepId want) {
      ++states;
      const auto prompt = predict(state);
      if (prompt && prompt->action.tool == want) ++hits;
    };
    score(PlannerState{adl::kIdleStep, adl::kIdleStep},
          routine_->first_step());
    adl::StepId prev = adl::kIdleStep;
    const auto& steps = routine_->steps();
    for (std::size_t i = 0; i + 1 < steps.size(); ++i) {
      score(PlannerState{prev, steps[i].step_id()},
            routine_->next_after(steps[i].step_id()));
      prev = steps[i].step_id();
    }
    return static_cast<double>(hits) / static_cast<double>(states);
  }

  double epsilon() const noexcept { return policy_.epsilon(); }
  std::size_t episodes_trained() const noexcept { return episodes_; }
  std::uint64_t skipped_steps() const noexcept { return skipped_; }
  const rl::QTable& q() const noexcept { return learner_.q(); }

 private:
  const adl::AdlRoutine* routine_;
  LearnerConfig config_;
  StateCodec states_;
  ActionCodec actions_;
  rl::TdLambdaQLearning learner_;
  rl::EpsilonGreedyPolicy policy_;
  util::Rng rng_;
  std::size_t episodes_ = 0;
  std::uint64_t skipped_ = 0;
  std::vector<PlannerAction> decoded_actions_;  ///< ActionId -> action
  std::vector<double> step_rewards_;            ///< completes == false rows
  std::vector<double> terminal_rewards_;        ///< completes == true rows
  std::vector<adl::StepId> episode_steps_;      ///< filtered, idle-prefixed
  std::vector<std::uint32_t> episode_symbols_;  ///< their symbol indices
};

/// MultiRoutineLearner's scalar loop, as it was: each raw history window is
/// encoded, a transition whose s or s' window holds a step outside the
/// vocabulary is skipped (the traces live on across it), and the last
/// transition is terminal when the episode's last step ends one of the
/// ADL's routines. No counterfactual sweep. On episodes without foreign
/// steps it is the lane-engine port's reference bit for bit.
class ScalarMultiRoutineLearner {
 public:
  ScalarMultiRoutineLearner(const adl::Adl& adl, std::size_t history_depth,
                            util::Rng rng,
                            LearnerConfig config = LearnerConfig())
      : adl_(&adl),
        codec_(adl.tools(), history_depth),
        actions_(adl.tools()),
        reward_(config.reward),
        learner_(codec_.num_states(), actions_.num_actions(), config.td),
        policy_(config.epsilon, config.epsilon_decay, config.min_epsilon),
        rng_(rng) {}

  void train_episode(std::span<const adl::StepId> steps) {
    ++episodes_;
    if (steps.size() < 2) {
      policy_.decay_epsilon();
      return;
    }
    learner_.begin_episode();
    for (std::size_t i = 1; i < steps.size(); ++i) {
      const auto s = codec_.encode(steps.subspan(0, i));
      const auto s_next = codec_.encode(steps.subspan(0, i + 1));
      if (!s || !s_next) continue;

      const rl::ActionId a = policy_.select(learner_.q(), *s, rng_);
      const PlannerAction action = actions_.decode(a);
      const adl::StepId next = steps[i];

      bool completes = false;
      if (i + 1 == steps.size()) {
        for (const adl::AdlRoutine& r : adl_->routines()) {
          if (r.is_terminal(next)) completes = true;
        }
      }
      const double r = reward_(action, next, completes);
      // Terminal only on genuine completion (see RoutineLearner for why).
      learner_.observe(rl::Transition{*s, a, r, *s_next, completes});
    }
    policy_.decay_epsilon();
  }

  double epsilon() const noexcept { return policy_.epsilon(); }
  std::size_t episodes_trained() const noexcept { return episodes_; }
  const rl::QTable& q() const noexcept { return learner_.q(); }

 private:
  const adl::Adl* adl_;
  HistoryCodec codec_;
  ActionCodec actions_;
  CoredaRewardFunction reward_;
  rl::TdLambdaQLearning learner_;
  rl::EpsilonGreedyPolicy policy_;
  util::Rng rng_;
  std::size_t episodes_ = 0;
};

}  // namespace coreda::planning
