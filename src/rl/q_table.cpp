#include "rl/q_table.hpp"

#include <algorithm>
#include <stdexcept>

namespace coreda::rl {

QTable::QTable(std::size_t num_states, std::size_t num_actions,
               double initial_value)
    : num_states_(num_states), num_actions_(num_actions) {
  if (num_states == 0 || num_actions == 0) {
    throw std::invalid_argument("QTable: dimensions must be positive");
  }
  values_.assign(num_states * num_actions, initial_value);
}

std::size_t QTable::index(StateId s, ActionId a) const {
  if (s >= num_states_ || a >= num_actions_) {
    throw std::out_of_range("QTable: state/action out of range");
  }
  return static_cast<std::size_t>(s) * num_actions_ + a;
}

double QTable::get(StateId s, ActionId a) const { return values_[index(s, a)]; }

void QTable::set(StateId s, ActionId a, double value) {
  values_[index(s, a)] = value;
}

void QTable::add(StateId s, ActionId a, double delta) {
  values_[index(s, a)] += delta;
}

std::span<const double> QTable::row(StateId s) const {
  return {values_.data() + index(s, 0), num_actions_};
}

std::span<double> QTable::row_mut(StateId s) {
  return {values_.data() + index(s, 0), num_actions_};
}

double QTable::max_q(StateId s) const {
  const auto r = row(s);
  return *std::max_element(r.begin(), r.end());
}

ActionId QTable::best_action(StateId s) const {
  const auto r = row(s);
  return static_cast<ActionId>(
      std::max_element(r.begin(), r.end()) - r.begin());
}

ActionId QTable::best_action(StateId s, util::Rng& rng) const {
  const auto r = row(s);
  const double best = *std::max_element(r.begin(), r.end());
  // Reservoir-sample uniformly among the ties in one pass.
  ActionId chosen = 0;
  std::size_t ties = 0;
  for (ActionId a = 0; a < r.size(); ++a) {
    if (r[a] == best) {
      ++ties;
      if (rng.uniform() < 1.0 / static_cast<double>(ties)) chosen = a;
    }
  }
  return chosen;
}

bool QTable::is_uniquely_greedy(StateId s, ActionId a,
                                double tolerance) const {
  const auto r = row(s);
  const double max = *std::max_element(r.begin(), r.end());
  if (r[a] < max - tolerance) return false;
  std::size_t ties = 0;
  for (double v : r) {
    if (v >= max - tolerance) ++ties;
  }
  return ties == 1;
}

void QTable::fill(double value) {
  std::fill(values_.begin(), values_.end(), value);
}

}  // namespace coreda::rl
