#include "planning/learner.hpp"

namespace coreda::planning {

RoutineLearner::RoutineLearner(const adl::Adl& adl, util::Rng rng,
                               LearnerConfig config)
    : trainer_(adl, /*width=*/1, config) {
  trainer_.reset_slot(0, rng);
}

void RoutineLearner::train_episode(std::span<const adl::StepId> steps) {
  trainer_.queue_episode(0, steps);
  trainer_.train_queued();
}

std::optional<PlannedPrompt> RoutineLearner::predict(
    PlannerState state) const {
  const auto s = state_codec().encode(state);
  if (!s) return std::nullopt;
  const rl::QTable& table = q();
  const rl::ActionId a = table.best_action(*s);
  return PlannedPrompt{trainer_.action(a), table.get(*s, a)};
}

std::vector<PlannerState> RoutineLearner::predicting_states() const {
  std::vector<PlannerState> out;
  // The fully-idle context prompts the first step (session start).
  out.push_back(PlannerState{adl::kIdleStep, adl::kIdleStep});
  adl::StepId prev = adl::kIdleStep;
  const auto& steps = reference_routine().steps();
  // The terminal step has no successor to prompt, so it is excluded.
  for (std::size_t i = 0; i + 1 < steps.size(); ++i) {
    out.push_back(PlannerState{prev, steps[i].step_id()});
    prev = steps[i].step_id();
  }
  return out;
}

bool RoutineLearner::greedy_correct(PlannerState state) const {
  const auto prompt = predict(state);
  if (!prompt) return false;
  const adl::AdlRoutine& routine = reference_routine();
  const adl::StepId want = state.cur == adl::kIdleStep
                               ? routine.first_step()
                               : routine.next_after(state.cur);
  return prompt->action.tool == want;
}

double RoutineLearner::greedy_accuracy() const {
  return trainer_.greedy_accuracy(0);
}

double RoutineLearner::behaviour_accuracy() const {
  const auto states = predicting_states();
  const double eps = epsilon();
  // Exploring uniformly, both reminding levels of the correct tool count as
  // a correct prompt.
  const double explore_hit =
      2.0 / static_cast<double>(action_codec().num_actions());
  double sum = 0.0;
  for (const PlannerState& s : states) {
    const double greedy_hit = greedy_correct(s) ? 1.0 : 0.0;
    sum += (1.0 - eps) * greedy_hit + eps * explore_hit;
  }
  return sum / static_cast<double>(states.size());
}

}  // namespace coreda::planning
