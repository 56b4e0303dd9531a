#include "planning/lane_trainer.hpp"

#include <algorithm>
#include <stdexcept>

namespace coreda::planning {

namespace {

/// Returns `config` once its ε schedule is in bounds.
const LearnerConfig& checked(const LearnerConfig& config) {
  if (config.epsilon < 0.0 || config.epsilon > 1.0 ||
      config.epsilon_decay <= 0.0 || config.epsilon_decay > 1.0 ||
      config.min_epsilon < 0.0 || config.min_epsilon > config.epsilon) {
    throw std::invalid_argument("LaneTrainer: invalid epsilon schedule");
  }
  return config;
}

}  // namespace

LaneTrainer::LaneTrainer(const adl::Adl& adl, std::size_t width,
                         LearnerConfig config, std::size_t max_episode_steps)
    : routine_(&adl.primary_routine()),
      config_(checked(config)),
      // ToolIds double as StepIds, so the step vocabulary is the tool set.
      states_(adl.tools()),
      actions_(adl.tools()),
      engine_(width, states_.num_states(), actions_.num_actions(),
              // One trace entry per transition; the idle prefix adds one
              // step but no trailing transition.
              max_episode_steps == 0 ? 16 : max_episode_steps,
              config.td),
      slots_(width) {
  const std::size_t num_actions = actions_.num_actions();
  decoded_actions_.reserve(num_actions);
  for (rl::ActionId a = 0; a < num_actions; ++a) {
    decoded_actions_.push_back(actions_.decode(a));
  }
  const CoredaRewardFunction reward(config.reward);
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

  // Direct-index symbol lookup: step ids are small (< 64 across the ADL
  // library), so a flat table replaces StateCodec::encode's linear find
  // per step with one load. Result-equal to the codec by construction.
  adl::StepId max_id = 0;
  for (const adl::StepId id : symbols) max_id = std::max(max_id, id);
  tool_to_symbol_.assign(static_cast<std::size_t>(max_id) + 1, -1);
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    tool_to_symbol_[symbols[i]] = static_cast<std::int32_t>(i);
  }
  terminal_symbol_ = static_cast<std::uint32_t>(
      tool_to_symbol_[routine_->steps().back().step_id()]);

  // Pre-resolve the predicting states (RoutineLearner::predicting_states):
  // the fully-idle context plus each non-terminal routine position.
  scored_states_.reserve(routine_->steps().size());
  const auto add_scored = [&](PlannerState ps, adl::StepId want) {
    ++predicting_states_;  // unencodable states still count in the mean
    if (const auto s = states_.encode(ps)) {
      scored_states_.push_back(ScoredState{*s, want});
    }
  };
  add_scored(PlannerState{adl::kIdleStep, adl::kIdleStep},
             routine_->first_step());
  adl::StepId prev = adl::kIdleStep;
  const auto& steps = routine_->steps();
  for (std::size_t i = 0; i + 1 < steps.size(); ++i) {
    add_scored(PlannerState{prev, steps[i].step_id()},
               routine_->next_after(steps[i].step_id()));
    prev = steps[i].step_id();
  }

  for (Slot& slot : slots_) {
    slot.epsilon = config_.epsilon;
    if (max_episode_steps > 0) {
      slot.states.resize(max_episode_steps + 1);
      slot.rewards.resize(max_episode_steps + 1);
    }
  }
}

void LaneTrainer::check_slot(std::size_t slot) const {
  if (slot >= slots_.size()) {
    throw std::out_of_range("LaneTrainer: slot out of range");
  }
}

void LaneTrainer::reset_slot(std::size_t slot, util::Rng rng) {
  check_slot(slot);
  Slot& sl = slots_[slot];
  sl.rng = rng;
  sl.epsilon = config_.epsilon;
  sl.episodes = 0;
  sl.skipped = 0;
  sl.queued = false;
  double* q = engine_.slot_q(slot);
  std::fill(q, q + num_states() * num_actions(), config_.td.initial_q);
}

void LaneTrainer::begin_retraining(std::size_t slot, const rl::QTable& q,
                                   util::Rng rng) {
  import_q(slot, q);
  Slot& sl = slots_[slot];
  sl.rng = rng;
  sl.epsilon = config_.epsilon;
  sl.queued = false;
}

void LaneTrainer::queue_episode(std::size_t slot,
                                std::span<const adl::StepId> steps) {
  check_slot(slot);
  Slot& sl = slots_[slot];
  if (sl.queued) {
    throw std::logic_error("LaneTrainer: slot already has a queued episode");
  }
  if (sl.states.size() < steps.size() + 1) {
    sl.states.resize(steps.size() + 1);
    sl.rewards.resize(steps.size() + 1);
  }
  const std::size_t num_symbols = states_.symbols().size();
  const std::size_t num_actions = actions_.num_actions();
  rl::StateId* states = sl.states.data();
  const double** rewards = sl.rewards.data();
  states[0] = 0;  // <idle, idle>: the idle prefix
  // Branch-free filter: every step writes the next slot, and only a step in
  // the vocabulary advances past it.
  std::uint32_t cur = 0;
  std::uint32_t n = 0;
  for (const adl::StepId s : steps) {
    const std::int32_t sym =
        s < tool_to_symbol_.size() ? tool_to_symbol_[s] : -1;
    const std::uint32_t next = sym >= 0 ? static_cast<std::uint32_t>(sym) : cur;
    states[n + 1] = static_cast<rl::StateId>(cur * num_symbols + next);
    rewards[n] = step_rewards_.data() + next * num_actions;
    cur = next;
    n += sym >= 0 ? 1 : 0;
  }
  sl.skipped += steps.size() - n;
  // The episode completes when the last valid step is the routine's last.
  sl.terminal = n >= 1 && cur == terminal_symbol_;
  if (sl.terminal) {
    rewards[n - 1] = terminal_rewards_.data() + cur * num_actions;
  }
  sl.transitions = n;
  sl.queued = true;
}

void LaneTrainer::train_queued() {
  const bool sweep = config_.counterfactual_sweep;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& sl = slots_[i];
    if (!sl.queued) continue;
    sl.queued = false;
    ++sl.episodes;
    // Fewer than two valid steps train nothing; ε still decays.
    if (sl.transitions >= 2) {
      engine_.train_episode(
          i,
          rl::Trajectory{sl.states.data(), sl.rewards.data(), sl.transitions,
                         sl.terminal},
          sl.epsilon, sl.rng, sweep);
    }
    sl.epsilon =
        std::max(config_.min_epsilon, sl.epsilon * config_.epsilon_decay);
  }
}

double LaneTrainer::greedy_accuracy(std::size_t slot) const {
  check_slot(slot);
  const double* q = engine_.slot_q(slot);
  const std::size_t num_actions = actions_.num_actions();
  std::size_t hits = 0;
  for (const ScoredState& sc : scored_states_) {
    const double* row = q + static_cast<std::size_t>(sc.state) * num_actions;
    // QTable::best_action(s): first-max index.
    std::size_t best = 0;
    for (std::size_t a = 1; a < num_actions; ++a) {
      if (row[a] > row[best]) best = a;
    }
    if (decoded_actions_[best].tool == sc.want) ++hits;
  }
  return static_cast<double>(hits) /
         static_cast<double>(predicting_states_);
}

double LaneTrainer::q_sum(std::size_t slot) const {
  check_slot(slot);
  const double* q = engine_.slot_q(slot);
  const std::size_t n = num_states() * num_actions();
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += q[i];
  return sum;
}

}  // namespace coreda::planning
