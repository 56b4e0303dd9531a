// Eligibility traces of the test-only scalar TD(λ) reference
// (support/td_lambda.hpp).

#pragma once

#include <cstdint>
#include <vector>

#include "rl/types.hpp"

namespace coreda::rl {

enum class TraceType : std::uint8_t {
  kAccumulating,  ///< e(s,a) += 1 on visit
  kReplacing,     ///< e(s,a) = 1 on visit
};

/// Dense eligibility traces for TD(λ) over a fixed S×A space.
///
/// Storage is a flat S×A value array plus a compact list of active flat
/// indices (and the inverse position map), so every operation touches only
/// live traces and never the heap:
///
///   * visit / get / clear_state_actions are O(1) / O(1) / O(num_actions)
///     — the former unordered_map representation paid an O(active) erase
///     scan per replacing-trace visit;
///   * decay and the learner's trace sweep walk the active list only, with
///     O(1) swap-pop compaction when an entry falls below `cutoff`;
///   * after construction no operation allocates, which is what makes the
///     per-episode training path allocation-free.
///
/// Traces decay geometrically by γλ each step; entries falling below
/// `cutoff` are dropped so the active set stays proportional to the recent
/// trajectory length rather than |S|×|A|.
class EligibilityTraces {
 public:
  struct Entry {
    StateId state;
    ActionId action;
    double value;
  };

  /// Throws std::invalid_argument when a dimension is zero, the flat space
  /// overflows 32-bit indexing, or `cutoff` is negative.
  EligibilityTraces(std::size_t num_states, std::size_t num_actions,
                    TraceType type = TraceType::kReplacing,
                    double cutoff = 1e-8);

  std::size_t num_states() const noexcept { return num_states_; }
  std::size_t num_actions() const noexcept { return num_actions_; }

  /// Marks (s, a) visited per the trace type.
  void visit(StateId s, ActionId a);

  /// For replacing traces: clears the traces of every *other* action in
  /// state `s` (Singh & Sutton's variant); call before visit().
  void clear_state_actions(StateId s, ActionId keep);

  /// Multiplies every trace by `factor` (= γλ), dropping tiny entries.
  void decay(double factor);

  /// Removes all traces (episode boundary, or Watkins' cut after a
  /// non-greedy action).
  void clear() noexcept;

  /// Throws std::out_of_range outside the S×A space.
  double get(StateId s, ActionId a) const;
  std::size_t active_count() const noexcept { return active_.size(); }

  /// Snapshot of all active traces (unspecified order).
  std::vector<Entry> entries() const;

  /// Applies `fn(state, action, trace)` to every active trace.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const std::uint32_t idx : active_) {
      fn(static_cast<StateId>(idx / num_actions_),
         static_cast<ActionId>(idx % num_actions_), values_[idx]);
    }
  }

 private:
  static constexpr std::uint32_t kInactive = 0xffffffffu;

  std::size_t index(StateId s, ActionId a) const;

  /// Swap-pop removal of the active entry at `position` in active_.
  void deactivate_at(std::size_t position) noexcept;

  TraceType type_;
  double cutoff_;
  std::size_t num_states_;
  std::size_t num_actions_;
  std::vector<double> values_;        ///< S×A, 0.0 when inactive
  std::vector<std::uint32_t> active_; ///< flat indices of live traces
  std::vector<std::uint32_t> pos_;    ///< flat index -> slot in active_
};

}  // namespace coreda::rl
