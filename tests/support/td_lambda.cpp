#include "support/td_lambda.hpp"

#include <stdexcept>

namespace coreda::rl {

namespace {

void validate(const TdLambdaConfig& c) {
  if (c.alpha <= 0.0 || c.alpha > 1.0) {
    throw std::invalid_argument("TdLambdaConfig: alpha must be in (0,1]");
  }
  if (c.gamma < 0.0 || c.gamma > 1.0) {
    throw std::invalid_argument("TdLambdaConfig: gamma must be in [0,1]");
  }
  if (c.lambda < 0.0 || c.lambda > 1.0) {
    throw std::invalid_argument("TdLambdaConfig: lambda must be in [0,1]");
  }
}

}  // namespace

TdLambdaQLearning::TdLambdaQLearning(std::size_t num_states,
                                     std::size_t num_actions,
                                     TdLambdaConfig config)
    : config_((validate(config), config)),
      q_(num_states, num_actions, config.initial_q),
      traces_(num_states, num_actions, TraceType::kReplacing) {}

void TdLambdaQLearning::begin_episode() { traces_.clear(); }

double TdLambdaQLearning::observe(const Transition& t) {
  // Watkins' condition for keeping traces is "the behaviour followed the
  // greedy policy". We apply it strictly: a *tied* maximum is treated as
  // non-greedy, because with ties (e.g. an optimistic fresh table) the TD
  // error of the taken action says nothing about the value of the path the
  // earlier pairs bootstrapped through — propagating it backward would drag
  // correct earlier actions down with every exploratory mistake.
  const bool strictly_greedy =
      !config_.watkins_cut || q_.is_uniquely_greedy(t.state, t.action);

  const double target =
      t.terminal ? t.reward : t.reward + config_.gamma * q_.max_q(t.next_state);
  const double delta = target - q_.get(t.state, t.action);
  ++updates_;

  if (!strictly_greedy) {
    // Exploratory step: one-step update of the taken pair only, and the
    // trace history is no longer on the greedy path — drop it.
    q_.add(t.state, t.action, config_.alpha * delta);
    traces_.clear();
    return delta;
  }

  traces_.clear_state_actions(t.state, t.action);
  traces_.visit(t.state, t.action);
  traces_.for_each([this, delta](StateId s, ActionId a, double e) {
    q_.add(s, a, config_.alpha * delta * e);
  });

  if (t.terminal) {
    traces_.clear();
  } else {
    traces_.decay(config_.gamma * config_.lambda);
  }
  return delta;
}

void TdLambdaQLearning::update_counterfactual_row(
    StateId s, std::span<const double> rewards, ActionId taken,
    StateId next_state, bool terminal) {
  const std::span<double> row = q_.row_mut(s);
  if (rewards.size() != row.size()) {
    throw std::invalid_argument(
        "TdLambdaQLearning::update_counterfactual_row: width mismatch");
  }
  // When the sweep writes into the very row it bootstraps from (s == s'),
  // each update can move max Q(s'), so it is re-read per action.
  const bool aliased = !terminal && next_state == s;
  double bootstrap = (terminal || aliased)
                         ? 0.0
                         : config_.gamma * q_.max_q(next_state);
  for (ActionId a = 0; a < row.size(); ++a) {
    if (a == taken) continue;
    if (aliased) bootstrap = config_.gamma * q_.max_q(next_state);
    const double target = terminal ? rewards[a] : rewards[a] + bootstrap;
    const double delta = target - row[a];
    row[a] += config_.alpha * delta;
    ++updates_;
  }
}

}  // namespace coreda::rl
