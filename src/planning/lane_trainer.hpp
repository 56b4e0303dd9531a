#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "adl/routine.hpp"
#include "planning/codec.hpp"
#include "planning/reward.hpp"
#include "rl/lane_engine.hpp"
#include "util/rng.hpp"

namespace coreda::planning {

/// The TD(λ) defaults the planning subsystem uses: optimistic initial Q at
/// the terminal reward so every prompt is tried before the policy commits —
/// without this, an early lucky action can absorb the bootstrap value and
/// ε-greedy exploration alone takes hundreds of episodes to displace it.
inline rl::TdLambdaConfig default_planner_td() {
  rl::TdLambdaConfig td;
  td.initial_q = 1000.0;
  // A small step size keeps the value estimates of aliased contexts (e.g.
  // tea-making's <idle, tea-box> state when the pot's weak signal was
  // missed) statistically separated instead of flapping.
  td.alpha = 0.1;
  return td;
}

/// Everything that parameterizes the planning subsystem's learner.
struct LearnerConfig {
  rl::TdLambdaConfig td = default_planner_td();
  RewardConfig reward{};
  /// ε-greedy exploration schedule. The initial policy is effectively
  /// random (zero Q table + random tie-breaks), and ε decays per training
  /// episode toward `min_epsilon`, which bounds the residual prompting
  /// mistakes a still-exploring deployed system would make.
  double epsilon = 0.2;
  double epsilon_decay = 0.978;
  double min_epsilon = 0.005;
  /// Offline training consumes *recorded* processes, so the user's next
  /// step never depends on the prompt the learner would have sent — the
  /// reward of every candidate prompt is computable from the recording.
  /// When enabled, each transition also applies a one-step counterfactual
  /// backup to every non-taken action, which removes the undersampling
  /// pathology of pure trajectory sampling on tiny exploration budgets.
  bool counterfactual_sweep = true;
};

/// Lockstep trainer: N same-routine users trained through one rl::LaneEngine
/// lane. Every TD(λ) update the planner makes runs here: a RoutineLearner
/// is one width-1 trainer, and the retrain lanes and the nightly replay
/// batch users through wider ones.
///
/// Per user, a slot is byte-identical at any width to the scalar reference
/// learner the tests keep (tests/support/scalar_learner.hpp).
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
  /// allocations (the retrain scheduler passes its transcript slot width);
  /// at zero the scratch grows to the longest episode queued. Throws
  /// std::invalid_argument on an ε schedule outside ε in [0, 1], decay in
  /// (0, 1] and min_epsilon in [0, ε], and as rl::LaneEngine does (rows of
  /// more than 64 actions, an invalid TD(λ) config).
  LaneTrainer(const adl::Adl& adl, std::size_t width,
              LearnerConfig config = LearnerConfig(),
              std::size_t max_episode_steps = 0);

  std::size_t width() const noexcept { return slots_.size(); }
  std::size_t num_states() const noexcept { return states_.num_states(); }
  std::size_t num_actions() const noexcept { return actions_.num_actions(); }
  const LearnerConfig& config() const noexcept { return config_; }
  const rl::LaneEngine& engine() const noexcept { return engine_; }
  const StateCodec& state_codec() const noexcept { return states_; }
  const ActionCodec& action_codec() const noexcept { return actions_; }
  const adl::AdlRoutine& reference_routine() const noexcept {
    return *routine_;
  }
  /// The prompt ActionId `a` encodes (decoded once at construction).
  const PlannerAction& action(rl::ActionId a) const noexcept {
    return decoded_actions_[a];
  }

  /// Re-arms the slot for a fresh user: optimistic-initial table, ε
  /// restarted, new RNG, counters zeroed.
  void reset_slot(std::size_t slot, util::Rng rng);

  /// Replaces the slot's table with `q`; its RNG and ε schedule are kept.
  /// Throws std::invalid_argument on a shape mismatch.
  void import_q(std::size_t slot, const rl::QTable& q) {
    engine_.load(slot, q);  // slot- and shape-checked
  }

  /// Re-arms the slot on an adopted table for a fresh training run: imports
  /// `q`, replaces the RNG and restarts ε (the counters keep counting).
  /// Throws std::invalid_argument on a shape mismatch.
  void begin_retraining(std::size_t slot, const rl::QTable& q, util::Rng rng);

  /// Queues one recorded ADL process for the slot (at most one per slot per
  /// round), encoded as the engine's trajectory. Steps outside the codec
  /// vocabulary (sensing glitches from other ADLs' tools) are counted and
  /// skipped. Every recorded process implicitly starts from "nothing is
  /// done" — the paper's StepID 0, prefixed here — so training the
  /// <idle, idle> context teaches the planner to prompt the routine's
  /// first step, which the deployed system needs when a user freezes
  /// before touching a tool. The last transition is terminal only when the
  /// last valid step completes the routine: a sequence truncated by
  /// sensing loss just ends, and flagging it terminal would erase the
  /// bootstrap and drag the correct action toward the bare intermediate
  /// reward.
  void queue_episode(std::size_t slot, std::span<const adl::StepId> steps);

  /// Trains every queued slot's episode, slot after slot, each in one
  /// engine pass. Clears the queue.
  void train_queued();

  /// Fraction of the reference routine's predicting states (the <idle,
  /// idle> context plus each non-terminal step) whose greedy prompt names
  /// the routine's next tool, on the slot's table.
  double greedy_accuracy(std::size_t slot) const;

  /// Sum of the slot's Q values in state-major, action-minor order — the
  /// accumulation order of bench_fleet_throughput's per-user checksum.
  double q_sum(std::size_t slot) const;

  /// The slot's table, at an address stable for the trainer's lifetime.
  const rl::QTable& q(std::size_t slot) const { return engine_.q(slot); }

  /// Copies the slot's table into `q` (shape-checked).
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
  /// and the tool a correct greedy prompt names (at either reminding
  /// level).
  struct ScoredState {
    rl::StateId state = 0;
    adl::ToolId want = 0;
  };

  const adl::AdlRoutine* routine_;
  LearnerConfig config_;
  StateCodec states_;
  ActionCodec actions_;
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
