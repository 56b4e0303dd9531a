#pragma once

#include <cstdint>

namespace coreda::rl {

/// Dense, zero-based identifiers. Adapters (e.g. coreda::planning's codecs)
/// are responsible for mapping domain objects to contiguous id ranges.
using StateId = std::uint32_t;
using ActionId = std::uint32_t;

/// One experience tuple <s, a, r, s'> plus the terminal flag. When
/// `terminal` is true the successor state's value is not bootstrapped.
struct Transition {
  StateId state = 0;
  ActionId action = 0;
  double reward = 0.0;
  StateId next_state = 0;
  bool terminal = false;
};

/// Hyper-parameters of Watkins' TD(λ) Q-Learning — the algorithm the paper
/// runs via RL Toolbox 2.0 (its planning subsystem, §2.2) — with replacing
/// eligibility traces (Singh & Sutton).
struct TdLambdaConfig {
  double alpha = 0.2;   ///< learning rate
  double gamma = 0.9;   ///< discount ("converge factor" β in the paper)
  double lambda = 0.7;  ///< trace decay; 0 reduces to one-step Q-Learning
  /// Watkins' Q(λ): cut all traces after a non-greedy (exploratory) action,
  /// keeping the backup target consistent with the greedy policy.
  bool watkins_cut = true;
  /// Initial Q value. Optimistic initialization (>= the best attainable
  /// return) makes the greedy policy try untested actions first, which is
  /// what keeps tabular Q-Learning from locking onto a lucky early action
  /// in reward-sparse tasks.
  double initial_q = 0.0;
};

}  // namespace coreda::rl
