#pragma once

#include <optional>
#include <span>
#include <vector>

#include "adl/routine.hpp"
#include "planning/codec.hpp"
#include "planning/learner.hpp"
#include "rl/lane_engine.hpp"
#include "util/rng.hpp"

namespace coreda::planning {

/// Encodes the last `depth` StepIds as one dense state (front-padded with
/// the idle step when the history is shorter). depth == 2 reproduces the
/// paper's <StepID_{i-1}, StepID_i> state exactly; deeper histories are the
/// mechanism behind the multi-routine extension.
class HistoryCodec {
 public:
  /// Throws std::invalid_argument on depth 0, duplicates, or id 0 in the
  /// vocabulary.
  HistoryCodec(std::vector<adl::StepId> step_ids, std::size_t depth);

  std::size_t depth() const noexcept { return depth_; }
  std::size_t num_states() const noexcept { return num_states_; }

  /// Encodes the trailing `depth` entries of `history` (shorter histories
  /// are padded with idle in front). nullopt if any used entry is outside
  /// the vocabulary.
  std::optional<rl::StateId> encode(
      std::span<const adl::StepId> history) const noexcept;

 private:
  std::optional<std::size_t> symbol_index(adl::StepId id) const noexcept;

  std::vector<adl::StepId> symbols_;
  std::size_t depth_;
  std::size_t num_states_;
};

/// Multi-routine planner — the paper's future-work item #1.
///
/// A user may have several acceptable routines for one ADL (dressing
/// shirt-first or trousers-first). The prototype's pair state cannot
/// represent "which routine am I in" when the routines share a transition;
/// widening the state to the last `depth` steps disambiguates any two
/// routines that differ within that horizon. The A5 experiment shows
/// depth 2 (the paper's encoding) mis-prompting at the shared context while
/// depth 3 reaches full accuracy on both dressing routines.
///
/// Training runs on a width-1 rl::LaneEngine with a default LearnerConfig's
/// TD(λ) parameters, rewards and ε schedule, and no counterfactual sweep.
/// Steps outside the vocabulary (the ADL's tools plus idle) are dropped
/// before the history is encoded, the rule RoutineLearner follows, so an
/// episode is one contiguous chain of states. Only episodes that hold such
/// a step train differently from the scalar loop this replaced, which
/// encoded raw windows and skipped every transition whose window held one.
class MultiRoutineLearner {
 public:
  MultiRoutineLearner(const adl::Adl& adl, std::size_t history_depth,
                      util::Rng rng);

  /// Learns from one complete process following *any* routine of the ADL:
  /// one engine pass over the kept steps when there are at least two. The
  /// last transition is terminal when the last kept step ends one of the
  /// ADL's routines. ε decays on every call.
  void train_episode(std::span<const adl::StepId> steps);

  /// Greedy prompt given the observed history (most recent step last).
  std::optional<PlannedPrompt> predict(
      std::span<const adl::StepId> history) const;

  /// Fraction of (routine, position) contexts across all routines whose
  /// greedy prompt names that routine's next tool.
  double routine_accuracy() const;

  /// Accuracy over a single routine's contexts.
  double routine_accuracy(const adl::AdlRoutine& routine) const;

  double epsilon() const noexcept { return epsilon_; }
  std::size_t episodes_trained() const noexcept { return episodes_; }
  const HistoryCodec& codec() const noexcept { return codec_; }
  const rl::QTable& q() const noexcept { return engine_.q(0); }

 private:
  const adl::Adl* adl_;
  HistoryCodec codec_;
  ActionCodec actions_;
  std::vector<double> step_rewards_;      ///< symbol-major, width A
  std::vector<double> terminal_rewards_;  ///< symbol-major, width A
  rl::LaneEngine engine_;
  util::Rng rng_;
  double epsilon_;
  std::size_t episodes_ = 0;
  // Episode scratch: the kept steps, their states and reward rows.
  std::vector<adl::StepId> kept_;
  std::vector<rl::StateId> states_;
  std::vector<const double*> rewards_;
};

}  // namespace coreda::planning
