#pragma once

#include <span>
#include <vector>

#include "rl/types.hpp"
#include "util/rng.hpp"

namespace coreda::rl {

/// Dense tabular action-value function Q(s, a).
///
/// The CoReDA state/action spaces are tiny (tens of states, tens of
/// actions), so a flat row-major matrix is both the simplest and the fastest
/// representation. Ties in argmax are broken by the caller-supplied Rng so a
/// zero-initialized table behaves as the paper's "random [initial] policy";
/// the deterministic best_action() overload breaks ties toward the lowest
/// action id for reproducible greedy evaluation.
class QTable {
 public:
  /// Throws std::invalid_argument when either dimension is zero.
  QTable(std::size_t num_states, std::size_t num_actions,
         double initial_value = 0.0);

  std::size_t num_states() const noexcept { return num_states_; }
  std::size_t num_actions() const noexcept { return num_actions_; }

  double get(StateId s, ActionId a) const;
  void set(StateId s, ActionId a, double value);
  void add(StateId s, ActionId a, double delta);

  /// The whole row for state `s` (one value per action).
  std::span<const double> row(StateId s) const;

  /// Mutable view of row `s` — the hot-path API that lets a learner apply a
  /// fused per-action update without one bounds check per cell.
  std::span<double> row_mut(StateId s);

  /// Highest Q value in state `s`.
  double max_q(StateId s) const;

  /// Greedy action, ties broken toward the lowest action id.
  ActionId best_action(StateId s) const;

  /// Greedy action, ties broken uniformly at random.
  ActionId best_action(StateId s, util::Rng& rng) const;

  /// Whether `a` is the *unique* maximizer of row `s`. Distinguishes a
  /// sharp greedy choice from a tie — Watkins' trace-keeping condition
  /// ("the behaviour followed the greedy policy") is only meaningful when
  /// the greedy policy is unambiguous.
  bool is_uniquely_greedy(StateId s, ActionId a,
                          double tolerance = 1e-12) const;

  void fill(double value);

  /// The values, row-major (num_states() x num_actions()): the unchecked
  /// view the lane engine trains a slot's table through.
  double* data() noexcept { return values_.data(); }
  const double* data() const noexcept { return values_.data(); }

 private:
  std::size_t index(StateId s, ActionId a) const;

  std::size_t num_states_;
  std::size_t num_actions_;
  std::vector<double> values_;
};

}  // namespace coreda::rl
