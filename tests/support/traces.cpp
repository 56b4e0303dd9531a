#include "support/traces.hpp"

#include <limits>
#include <stdexcept>

namespace coreda::rl {

EligibilityTraces::EligibilityTraces(std::size_t num_states,
                                     std::size_t num_actions, TraceType type,
                                     double cutoff)
    : type_(type),
      cutoff_(cutoff),
      num_states_(num_states),
      num_actions_(num_actions) {
  if (num_states == 0 || num_actions == 0) {
    throw std::invalid_argument(
        "EligibilityTraces: dimensions must be positive");
  }
  if (num_states > (std::numeric_limits<std::uint32_t>::max() - 1) /
                       num_actions) {
    throw std::invalid_argument(
        "EligibilityTraces: state-action space overflows 32-bit indexing");
  }
  if (cutoff < 0.0) {
    throw std::invalid_argument("EligibilityTraces: cutoff must be >= 0");
  }
  values_.assign(num_states * num_actions, 0.0);
  pos_.assign(num_states * num_actions, kInactive);
  active_.reserve(num_states * num_actions);
}

std::size_t EligibilityTraces::index(StateId s, ActionId a) const {
  if (s >= num_states_ || a >= num_actions_) {
    throw std::out_of_range("EligibilityTraces: state/action out of range");
  }
  return static_cast<std::size_t>(s) * num_actions_ + a;
}

void EligibilityTraces::deactivate_at(std::size_t position) noexcept {
  const std::uint32_t idx = active_[position];
  const std::uint32_t last = active_.back();
  active_[position] = last;
  pos_[last] = static_cast<std::uint32_t>(position);
  active_.pop_back();
  pos_[idx] = kInactive;
  values_[idx] = 0.0;
}

void EligibilityTraces::visit(StateId s, ActionId a) {
  const std::size_t idx = index(s, a);
  if (pos_[idx] == kInactive) {
    pos_[idx] = static_cast<std::uint32_t>(active_.size());
    active_.push_back(static_cast<std::uint32_t>(idx));
    values_[idx] = 1.0;
    return;
  }
  if (type_ == TraceType::kAccumulating) {
    values_[idx] += 1.0;
  } else {
    values_[idx] = 1.0;
  }
}

void EligibilityTraces::clear_state_actions(StateId s, ActionId keep) {
  const std::size_t base = index(s, 0);
  for (std::size_t a = 0; a < num_actions_; ++a) {
    if (a == keep) continue;
    const std::uint32_t p = pos_[base + a];
    if (p != kInactive) deactivate_at(p);
  }
}

void EligibilityTraces::decay(double factor) {
  for (std::size_t i = 0; i < active_.size();) {
    const std::uint32_t idx = active_[i];
    values_[idx] *= factor;
    if (values_[idx] < cutoff_) {
      // Swap-pop pulls an unprocessed entry into slot i; stay put.
      deactivate_at(i);
    } else {
      ++i;
    }
  }
}

void EligibilityTraces::clear() noexcept {
  for (const std::uint32_t idx : active_) {
    values_[idx] = 0.0;
    pos_[idx] = kInactive;
  }
  active_.clear();
}

double EligibilityTraces::get(StateId s, ActionId a) const {
  return values_[index(s, a)];
}

std::vector<EligibilityTraces::Entry> EligibilityTraces::entries() const {
  std::vector<Entry> out;
  out.reserve(active_.size());
  for (const std::uint32_t idx : active_) {
    out.push_back(Entry{static_cast<StateId>(idx / num_actions_),
                        static_cast<ActionId>(idx % num_actions_),
                        values_[idx]});
  }
  return out;
}

}  // namespace coreda::rl
