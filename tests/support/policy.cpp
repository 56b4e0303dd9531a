#include "support/policy.hpp"

#include <algorithm>
#include <stdexcept>

namespace coreda::rl {

EpsilonGreedyPolicy::EpsilonGreedyPolicy(double epsilon, double decay,
                                         double min_epsilon)
    : epsilon_(epsilon), decay_(decay), min_epsilon_(min_epsilon) {
  if (epsilon < 0.0 || epsilon > 1.0) {
    throw std::invalid_argument("EpsilonGreedyPolicy: epsilon not in [0,1]");
  }
  if (decay <= 0.0 || decay > 1.0) {
    throw std::invalid_argument("EpsilonGreedyPolicy: decay not in (0,1]");
  }
  if (min_epsilon < 0.0 || min_epsilon > epsilon) {
    throw std::invalid_argument(
        "EpsilonGreedyPolicy: min_epsilon not in [0, epsilon]");
  }
}

ActionId EpsilonGreedyPolicy::select(const QTable& q, StateId state,
                                     util::Rng& rng) {
  if (rng.bernoulli(epsilon_)) {
    return static_cast<ActionId>(rng.pick_index(q.num_actions()));
  }
  return q.best_action(state, rng);
}

void EpsilonGreedyPolicy::decay_epsilon() noexcept {
  epsilon_ = std::max(min_epsilon_, epsilon_ * decay_);
}

void EpsilonGreedyPolicy::reset_epsilon(double epsilon) {
  if (epsilon < 0.0 || epsilon > 1.0) {
    throw std::invalid_argument("EpsilonGreedyPolicy: epsilon not in [0,1]");
  }
  if (min_epsilon_ > epsilon) {
    throw std::invalid_argument(
        "EpsilonGreedyPolicy: epsilon below configured min_epsilon");
  }
  epsilon_ = epsilon;
}

}  // namespace coreda::rl
