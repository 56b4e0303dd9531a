#include "planning/multi_routine.hpp"

#include <algorithm>
#include <stdexcept>

namespace coreda::planning {

HistoryCodec::HistoryCodec(std::vector<adl::StepId> step_ids,
                           std::size_t depth)
    : depth_(depth) {
  if (depth == 0) {
    throw std::invalid_argument("HistoryCodec: depth must be >= 1");
  }
  symbols_.push_back(adl::kIdleStep);
  for (adl::StepId id : step_ids) {
    if (id == adl::kIdleStep) {
      throw std::invalid_argument("HistoryCodec: StepId 0 is implicit");
    }
    if (std::find(symbols_.begin(), symbols_.end(), id) != symbols_.end()) {
      throw std::invalid_argument("HistoryCodec: duplicate StepId");
    }
    symbols_.push_back(id);
  }
  num_states_ = 1;
  for (std::size_t i = 0; i < depth_; ++i) num_states_ *= symbols_.size();
}

std::optional<std::size_t> HistoryCodec::symbol_index(
    adl::StepId id) const noexcept {
  const auto it = std::find(symbols_.begin(), symbols_.end(), id);
  if (it == symbols_.end()) return std::nullopt;
  return static_cast<std::size_t>(it - symbols_.begin());
}

std::optional<rl::StateId> HistoryCodec::encode(
    std::span<const adl::StepId> history) const noexcept {
  std::size_t id = 0;
  for (std::size_t slot = 0; slot < depth_; ++slot) {
    // slot 0 is the oldest of the window; pad with idle when history is
    // shorter than the depth.
    adl::StepId step = adl::kIdleStep;
    if (history.size() + slot >= depth_) {
      step = history[history.size() + slot - depth_];
    }
    const auto idx = symbol_index(step);
    if (!idx) return std::nullopt;
    id = id * symbols_.size() + *idx;
  }
  return static_cast<rl::StateId>(id);
}

namespace {

std::vector<adl::StepId> step_vocabulary(const adl::Adl& adl) {
  std::vector<adl::StepId> out;
  for (adl::ToolId t : adl.tools()) out.push_back(t);
  return out;
}

/// The planning subsystem's defaults, which the learner trains with.
const LearnerConfig& defaults() {
  static const LearnerConfig config;
  return config;
}

}  // namespace

MultiRoutineLearner::MultiRoutineLearner(const adl::Adl& adl,
                                         std::size_t history_depth,
                                         util::Rng rng)
    : adl_(&adl),
      codec_(step_vocabulary(adl), history_depth),
      actions_(adl.tools()),
      // One trace entry per transition; the engine grows past 16 on demand.
      engine_(1, codec_.num_states(), actions_.num_actions(), 16,
              defaults().td),
      rng_(rng),
      epsilon_(defaults().epsilon) {
  // Rewards depend only on (action, next step, completes), so both reward
  // matrices are built once, one row per vocabulary symbol. A one-step
  // history encodes as its step's symbol index.
  const CoredaRewardFunction reward(defaults().reward);
  const std::size_t num_actions = actions_.num_actions();
  std::vector<adl::StepId> symbols = step_vocabulary(adl);
  symbols.push_back(adl::kIdleStep);
  step_rewards_.resize(symbols.size() * num_actions);
  terminal_rewards_.resize(symbols.size() * num_actions);
  for (const adl::StepId step : symbols) {
    const std::size_t row = *codec_.encode(std::span(&step, 1)) * num_actions;
    for (rl::ActionId a = 0; a < num_actions; ++a) {
      const PlannerAction action = actions_.decode(a);
      step_rewards_[row + a] = reward(action, step, /*completes=*/false);
      terminal_rewards_[row + a] = reward(action, step, /*completes=*/true);
    }
  }
}

void MultiRoutineLearner::train_episode(std::span<const adl::StepId> steps) {
  ++episodes_;
  // Keep the steps the codec knows (the encode doubles as the vocabulary
  // test); transition t arrives at kept step t + 1 and reads its row.
  const std::size_t num_actions = actions_.num_actions();
  kept_.clear();
  rewards_.clear();
  std::size_t last_row = 0;
  for (const adl::StepId step : steps) {
    const auto sym = codec_.encode(std::span(&step, 1));
    if (!sym) continue;
    last_row = *sym * num_actions;
    if (!kept_.empty()) rewards_.push_back(step_rewards_.data() + last_row);
    kept_.push_back(step);
  }
  if (kept_.size() >= 2) {
    states_.resize(kept_.size());
    for (std::size_t i = 0; i < kept_.size(); ++i) {
      states_[i] = *codec_.encode(std::span(kept_).first(i + 1));
    }
    // Terminal only on genuine completion (see LaneTrainer::queue_episode).
    bool completes = false;
    for (const adl::AdlRoutine& r : adl_->routines()) {
      if (r.is_terminal(kept_.back())) completes = true;
    }
    if (completes) rewards_.back() = terminal_rewards_.data() + last_row;
    engine_.train_episode(
        0,
        rl::Trajectory{states_.data(), rewards_.data(),
                       static_cast<std::uint32_t>(rewards_.size()), completes},
        epsilon_, rng_, /*sweep=*/false);
  }
  epsilon_ = std::max(defaults().min_epsilon,
                      epsilon_ * defaults().epsilon_decay);
}

std::optional<PlannedPrompt> MultiRoutineLearner::predict(
    std::span<const adl::StepId> history) const {
  const auto s = codec_.encode(history);
  if (!s) return std::nullopt;
  const rl::ActionId a = q().best_action(*s);
  return PlannedPrompt{actions_.decode(a), q().get(*s, a)};
}

double MultiRoutineLearner::routine_accuracy(
    const adl::AdlRoutine& routine) const {
  const auto& steps = routine.steps();
  std::size_t hits = 0;
  std::size_t total = 0;
  std::vector<adl::StepId> history;
  for (std::size_t i = 0; i + 1 < steps.size(); ++i) {
    history.push_back(steps[i].step_id());
    const auto prompt = predict(history);
    ++total;
    if (prompt && prompt->action.tool == steps[i + 1].tool) ++hits;
  }
  return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                   : 0.0;
}

double MultiRoutineLearner::routine_accuracy() const {
  double sum = 0.0;
  for (const adl::AdlRoutine& r : adl_->routines()) {
    sum += routine_accuracy(r);
  }
  return sum / static_cast<double>(adl_->routines().size());
}

}  // namespace coreda::planning
