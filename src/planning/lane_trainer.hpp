#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "adl/routine.hpp"
#include "planning/codec.hpp"
#include "planning/learner.hpp"
#include "rl/lane_engine.hpp"
#include "util/rng.hpp"

namespace coreda::planning {

/// Lockstep trainer: N same-routine users trained through one rl::LaneEngine
/// lane, byte-identical per user to N independent RoutineLearners.
///
/// "Same routine" means the same reference Adl — the users share the codec
/// vocabulary (tool set AND first-seen order), hence the same Q-table shape
/// and reward slabs. Group a fleet by routine signature before batching;
/// tests/planning/lane_trainer_test.cpp proves the per-user equivalence
/// across widths and ragged batches.
///
/// Usage per round: queue_episode(slot, steps) for any subset of slots, then
/// train_queued() once. Slots advance independently (their ε schedules,
/// RNG streams and tables never interact), so the round trains them one
/// after another, each episode in one rl::LaneEngine::train_episode pass.
/// Every per-slot call below throws std::out_of_range for slot >= width().
class LaneTrainer {
 public:
  /// `max_episode_steps`, when nonzero, pre-sizes every per-slot scratch
  /// buffer and the trace slabs so steady-state training performs zero heap
  /// allocations (the retrain scheduler passes its transcript slot width).
  LaneTrainer(const adl::Adl& adl, std::size_t width,
              LearnerConfig config = LearnerConfig(),
              std::size_t max_episode_steps = 0);

  std::size_t width() const noexcept { return slots_.size(); }
  std::size_t num_states() const noexcept { return states_.num_states(); }
  std::size_t num_actions() const noexcept { return actions_.num_actions(); }
  const LearnerConfig& config() const noexcept { return config_; }
  const rl::LaneEngine& engine() const noexcept { return engine_; }

  /// Re-arms the slot for a fresh user: optimistic-initial table, ε
  /// restarted, new RNG. Equivalent to constructing a
  /// RoutineLearner(adl, rng, config).
  void reset_slot(std::size_t slot, util::Rng rng);

  /// Re-arms the slot on an adopted table —
  /// RoutineLearner::begin_retraining. Throws std::invalid_argument on a
  /// shape mismatch.
  void begin_retraining(std::size_t slot, const rl::QTable& q, util::Rng rng);

  /// Queues one recorded ADL process for the slot (at most one per slot per
  /// round). Vocabulary filtering happens here, exactly as
  /// RoutineLearner::train_episode's prologue, and the episode is encoded
  /// as the engine's trajectory.
  void queue_episode(std::size_t slot, std::span<const adl::StepId> steps);

  /// Trains every queued slot's episode, slot after slot, each in one
  /// engine pass. Clears the queue.
  void train_queued();

  /// RoutineLearner::greedy_accuracy over the slot's table.
  double greedy_accuracy(std::size_t slot) const;

  /// Sum of the slot's Q values in state-major, action-minor order — the
  /// accumulation order of bench_fleet_throughput's per-user checksum.
  double q_sum(std::size_t slot) const;

  /// Scatters the slot's table into `q` (shape-checked).
  void export_q(std::size_t slot, rl::QTable& q) const {
    engine_.store(slot, q);
  }

  double epsilon(std::size_t slot) const { return slots_.at(slot).epsilon; }
  std::size_t episodes_trained(std::size_t slot) const {
    return slots_.at(slot).episodes;
  }
  std::uint64_t skipped_steps(std::size_t slot) const {
    return slots_.at(slot).skipped;
  }

 private:
  void check_slot(std::size_t slot) const;

  struct Slot {
    util::Rng rng{0};
    double epsilon = 0.0;
    std::size_t episodes = 0;
    std::uint64_t skipped = 0;
    bool queued = false;
    /// The queued episode as an rl::Trajectory: the filtered, idle-prefixed
    /// steps encoded as states (transitions + 1 of them) and each
    /// transition's reward row — the terminal row for the last one when the
    /// last valid step completes the routine. Grow-only scratch.
    std::uint32_t transitions = 0;
    bool terminal = false;
    std::vector<rl::StateId> states;
    std::vector<const double*> rewards;
  };

  /// A predicting state pre-resolved against the codec: the encoded StateId
  /// and the ActionIds that count as a correct greedy prompt (both
  /// reminding levels of the wanted tool).
  struct ScoredState {
    rl::StateId state = 0;
    adl::ToolId want = 0;
  };

  const adl::AdlRoutine* routine_;
  LearnerConfig config_;
  StateCodec states_;
  ActionCodec actions_;
  CoredaRewardFunction reward_;
  std::vector<PlannerAction> decoded_actions_;
  std::vector<double> step_rewards_;      ///< symbol-major, width A
  std::vector<double> terminal_rewards_;  ///< symbol-major, width A
  std::vector<std::int32_t> tool_to_symbol_;  ///< StepId -> symbol, -1 miss
  std::uint32_t terminal_symbol_ = 0;  ///< the routine's last step
  std::vector<ScoredState> scored_states_;
  std::size_t predicting_states_ = 0;  ///< accuracy denominator
  rl::LaneEngine engine_;
  std::vector<Slot> slots_;
};

}  // namespace coreda::planning
