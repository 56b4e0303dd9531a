#pragma once

#include <optional>
#include <span>
#include <vector>

#include "adl/routine.hpp"
#include "planning/codec.hpp"
#include "planning/lane_trainer.hpp"
#include "util/rng.hpp"

namespace coreda::planning {

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
///
/// Training runs through a width-1 LaneTrainer, so every TD(λ) update runs
/// in rl::LaneEngine::train_episode, and the planner inherits the engine's
/// bound of at most 64 actions (32 tools) per ADL; every library ADL has at
/// most 8. Copyable and movable; q() stays at one address for the
/// learner's lifetime.
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
  void import_q(const rl::QTable& q) { trainer_.import_q(0, q); }

  /// Re-arms the learner for a fresh training run over an adopted table:
  /// imports `q`, replaces the exploration RNG, and restarts the ε decay
  /// schedule from the configured initial value. The retrain outcome is a
  /// pure function of (`q`, `rng`, the episodes trained next), independent
  /// of whatever this learner trained before, so one warm learner can
  /// retrain user after user deterministically. Allocation-free (same
  /// shape, same codecs; only values and RNG state change).
  void begin_retraining(const rl::QTable& q, util::Rng rng) {
    trainer_.begin_retraining(0, q, rng);
  }

  double epsilon() const noexcept { return trainer_.epsilon(0); }
  std::size_t episodes_trained() const noexcept {
    return trainer_.episodes_trained(0);
  }
  std::uint64_t skipped_steps() const noexcept {
    return trainer_.skipped_steps(0);
  }
  const rl::QTable& q() const noexcept { return trainer_.q(0); }
  const StateCodec& state_codec() const noexcept {
    return trainer_.state_codec();
  }
  const ActionCodec& action_codec() const noexcept {
    return trainer_.action_codec();
  }
  const adl::AdlRoutine& reference_routine() const noexcept {
    return trainer_.reference_routine();
  }

 private:
  LaneTrainer trainer_;
};

}  // namespace coreda::planning
