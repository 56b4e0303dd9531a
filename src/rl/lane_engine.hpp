#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "rl/lane_kernels.hpp"
#include "rl/q_table.hpp"
#include "rl/types.hpp"
#include "util/rng.hpp"

namespace coreda::rl {

/// One recorded episode in the offline setting, where the next state does
/// not depend on the action taken: the states s_0 … s_n and, for each
/// transition t (s_t → s_{t+1}), every action's reward (a row num_actions
/// wide). The last transition is terminal iff `terminal`.
struct Trajectory {
  const StateId* states = nullptr;          ///< transitions + 1 states
  const double* const* rewards = nullptr;  ///< one row per transition
  std::uint32_t transitions = 0;
  bool terminal = false;
};

/// Structure-of-arrays TD(λ) engine, the library's one Watkins Q(λ)
/// learner: one lane holds `width` learners, each with its own Q table (an
/// rl::QTable per slot) and replacing eligibility traces inside shared
/// contiguous slabs, and trains them one recorded episode at a time.
///
/// Why this is faster than `width` scalar learners (the test-only reference
/// in tests/support; measured on bench_fleet_throughput, see DESIGN.md
/// "Lane engine"):
///
///   * the scalar path crosses a translation unit for every table access —
///     q_table.cpp's get/add/max_q/best_action are out-of-line calls with a
///     bounds check per cell; here every hot operation is inlined over raw
///     row pointers;
///   * one transition used to scan its Q row four times (ε-greedy argmax,
///     the Watkins unique-greedy test, the bootstrap max, the
///     counterfactual sweep); here one tie sweep serves selection and the
///     unique-greedy test, the episode pass takes row s's maximum from the
///     previous transition's bootstrap, and the sweep consumes the row
///     exactly once;
///   * train_episode() runs a whole recorded episode in one pass and defers
///     the trace increments of each trace window until it closes (see
///     there and rl/lane_episode.cpp);
///   * an 8-wide lane of tea-making tables (~1.6 KB each) stays
///     L1/L2-resident.
///
/// Bit-exactness contract: for each slot, the sequence of IEEE-754
/// operations applied to its Q values, trace values and Rng stream is
/// operation-for-operation the one the scalar reference's TdLambdaQLearning
/// + EpsilonGreedyPolicy + EligibilityTraces would apply. Slots never
/// interact, so any order of slot work (including lane width and ragged
/// batches) yields byte-identical per-user results — proven by the golden
/// equivalence tests in tests/rl/lane_engine_test.cpp and
/// tests/planning/lane_trainer_test.cpp.
class LaneEngine {
 public:
  /// `trace_capacity` bounds trace entries per slot; one visit per
  /// transition means the longest episode's transition count suffices.
  /// Throws std::invalid_argument on zero dimensions, rows of more than 64
  /// actions (selection keeps a row's ties in one 64-bit mask) or an
  /// invalid config (alpha outside (0, 1], gamma or lambda outside [0, 1]).
  LaneEngine(std::size_t width, std::size_t num_states,
             std::size_t num_actions, std::size_t trace_capacity,
             TdLambdaConfig config = TdLambdaConfig())
      : width_(width),
        num_states_(num_states),
        num_actions_(num_actions),
        config_(config) {
    if (width == 0 || num_states == 0 || num_actions == 0) {
      throw std::invalid_argument("LaneEngine: dimensions must be positive");
    }
    if (num_actions > 64) {
      throw std::invalid_argument("LaneEngine: at most 64 actions per row");
    }
    if (config.alpha <= 0.0 || config.alpha > 1.0 || config.gamma < 0.0 ||
        config.gamma > 1.0 || config.lambda < 0.0 || config.lambda > 1.0) {
      throw std::invalid_argument("LaneEngine: invalid TdLambdaConfig");
    }
    tables_.reserve(width);
    for (std::size_t i = 0; i < width; ++i) {
      tables_.emplace_back(num_states, num_actions, config.initial_q);
    }
    reserve_traces(trace_capacity == 0 ? 1 : trace_capacity);
    trace_len_.assign(width, 0);
    init_window();
  }

  std::size_t width() const noexcept { return width_; }
  std::size_t num_states() const noexcept { return num_states_; }
  std::size_t num_actions() const noexcept { return num_actions_; }
  const TdLambdaConfig& config() const noexcept { return config_; }

  /// The slot's table. Its address is stable for the engine's lifetime.
  /// Throws std::out_of_range for slot >= width().
  const QTable& q(std::size_t slot) const {
    check_slot(slot);
    return tables_[slot];
  }

  /// The slot's Q values (unchecked: for inner loops over a checked slot).
  double* slot_q(std::size_t slot) noexcept { return tables_[slot].data(); }
  const double* slot_q(std::size_t slot) const noexcept {
    return tables_[slot].data();
  }

  /// Copies `q` into the slot's table (same shape: no allocation). Throws
  /// std::out_of_range for slot >= width() and std::invalid_argument on a
  /// shape mismatch.
  void load(std::size_t slot, const QTable& q) {
    check(slot, q);
    tables_[slot] = q;
  }

  /// Copies the slot's table out into `q` (checked as load()).
  void store(std::size_t slot, QTable& q) const {
    check(slot, q);
    q = tables_[slot];
  }

  /// Trains one recorded episode on the slot from cleared traces:
  /// result-identical, RNG draws included, to TdLambdaQLearning::
  /// begin_episode() followed, for every transition, by EpsilonGreedyPolicy
  /// ::select, observe() and (when `sweep`) update_counterfactual_row().
  /// Throws std::out_of_range for slot >= width().
  ///
  /// One pass with deferred traces (rl/lane_episode.cpp). With replacing
  /// traces every entry of a trace window holds p[age], p[0] = 1 and
  /// p[m] = p[m-1] * γλ — one double shared by all entries. While no state
  /// of the open window is revisited, no transition reads a window cell:
  /// selection and the bootstrap read rows s and s', the counterfactual
  /// sweep writes row s but skips the taken cell, the only window cell in
  /// row s. So the pass records each kept transition's cell and α·δ and,
  /// when the window closes (Watkins cut, terminal step, episode end),
  /// applies cell k's increments ad_k·p[0], ad_{k+1}·p[1], … in that order:
  /// the IEEE sequence the per-transition apply performs. A hazard — s' is a
  /// window state or s itself, or the window reaches the age where p drops
  /// below the trace cutoff (40 entries at γλ = 0.63) — applies what is
  /// pending, hands the open window to the per-transition fallback (private
  /// select() + step()) as the slot's trace list and finishes the episode
  /// there; so does ε outside (0, 1), from the first transition.
  ///
  /// Rows of at most 8 actions run in AVX-512 registers when the CPU has
  /// AVX-512F and COREDA_LANE_SIMD is not "0"; the scalar body of the same
  /// pass, over the lane kernels, is the reference. Grows the trace
  /// capacity to the episode's length when needed.
  void train_episode(std::size_t slot, const Trajectory& episode,
                     double epsilon, util::Rng& rng, bool sweep);

  /// Episodes train_episode() finished on the per-transition path (a
  /// hazard, or an ε the one-pass body does not take).
  std::uint64_t sequential_episodes() const noexcept {
    return sequential_episodes_;
  }

 private:
  friend struct EpisodeKernel;  // train_episode's one-pass bodies

  void check_slot(std::size_t slot) const {
    if (slot >= width_) {
      throw std::out_of_range("LaneEngine: slot out of range");
    }
  }
  void check(std::size_t slot, const QTable& q) const {
    check_slot(slot);
    if (q.num_states() != num_states_ || q.num_actions() != num_actions_) {
      throw std::invalid_argument("LaneEngine: table shape mismatch");
    }
  }

  /// Grows the per-slot trace capacity, preserving nothing (every slot's
  /// traces are clear between train_episode() calls).
  void reserve_traces(std::size_t capacity) {
    if (capacity <= trace_cap_ && !trace_val_.empty()) return;
    trace_cap_ = capacity;
    trace_val_.assign(width_ * trace_cap_, 0.0);
    trace_idx_.assign(width_ * trace_cap_, 0);
  }

  /// ε-greedy's choice from a row's RowStats, drawing from `rng` exactly as
  /// EpsilonGreedyPolicy::select + QTable::best_action(s, rng) would after
  /// the bernoulli: pick_index when exploring, else one uniform() per exact
  /// tie. A converged row has exactly one exact tie, where the reservoir's
  /// single draw is uniform() < 1/1, always true — so that draw is consumed
  /// and the tie taken directly.
  static std::size_t choose(const kern::RowStats& st, bool explore,
                            std::size_t num_actions, util::Rng& rng) noexcept {
    if (explore) return rng.pick_index(num_actions);
    if (st.tie_mask != 0 && (st.tie_mask & (st.tie_mask - 1)) == 0) {
      (void)rng.uniform();
      return static_cast<std::size_t>(std::countr_zero(st.tie_mask));
    }
    // QTable::best_action's reservoir over the exact ties.
    std::uint64_t mask = st.tie_mask;
    std::size_t chosen = 0;
    std::size_t seen = 0;
    while (mask != 0) {
      const auto tie = static_cast<std::size_t>(std::countr_zero(mask));
      mask &= mask - 1;
      ++seen;
      if (rng.uniform() < 1.0 / static_cast<double>(seen)) chosen = tie;
    }
    return chosen;
  }

  /// The per-transition fallback's selection: the action plus the Watkins
  /// verdict (QTable::is_uniquely_greedy), from one row_max and one tie
  /// sweep of row s.
  struct Selected {
    ActionId action = 0;
    bool uniquely_greedy = false;
  };
  Selected select(std::size_t slot, StateId s, double epsilon,
                  util::Rng& rng) noexcept {
    const double* row =
        slot_q(slot) + static_cast<std::size_t>(s) * num_actions_;
    const bool explore = rng.bernoulli(epsilon);
    const kern::RowStats st = kern::row_stats_given_max(
        row, kern::row_max(row, num_actions_), kGreedyTolerance,
        num_actions_);
    Selected sel;
    sel.action = static_cast<ActionId>(choose(st, explore, num_actions_, rng));
    sel.uniquely_greedy =
        row[sel.action] >= st.max - kGreedyTolerance && st.near_count == 1;
    return sel;
  }

  /// The per-transition fallback's backup: TdLambdaQLearning::observe, then
  /// update_counterfactual_row when `sweep`. A kept transition's trace decay
  /// is fused into its apply pass: applying entry i touches only its Q cell
  /// and decaying it only its trace value, so per-entry apply-then-decay is
  /// the scalar apply-all-then-decay-all bit for bit. Entries own distinct
  /// cells, so their order (the compact list permutes EligibilityTraces'
  /// swap-pop order) reaches no result. The sweep re-reads max Q(s') after
  /// the apply, as the scalar sweep does.
  void step(std::size_t slot, const Selected& sel, StateId s,
            const double* rewards, StateId next_state, bool terminal,
            bool sweep) noexcept {
    double* q = slot_q(slot);
    const double* next_row =
        q + static_cast<std::size_t>(next_state) * num_actions_;
    const std::size_t sa =
        static_cast<std::size_t>(s) * num_actions_ + sel.action;
    const bool strictly_greedy = !config_.watkins_cut || sel.uniquely_greedy;
    const double reward = rewards[sel.action];
    const double target =
        terminal ? reward
                 : reward + config_.gamma * kern::row_max(next_row,
                                                          num_actions_);
    const double delta = target - q[sa];
    const double ad = config_.alpha * delta;

    if (!strictly_greedy) {
      q[sa] += ad;
      trace_len_[slot] = 0;
    } else {
      double* vals = trace_val_.data() + slot * trace_cap_;
      std::uint32_t* idxs = trace_idx_.data() + slot * trace_cap_;
      std::uint32_t len = trace_len_[slot];

      // clear_state_actions(s, a) fused with the visit(s, a) lookup: one
      // pass drops this row's other entries and spots the kept cell's
      // (unique) entry on the way through.
      const std::uint32_t row_base =
          static_cast<std::uint32_t>(s) * static_cast<std::uint32_t>(
                                              num_actions_);
      const auto keep = static_cast<std::uint32_t>(sa);
      std::uint32_t out = 0;
      std::uint32_t hit = UINT32_MAX;
      for (std::uint32_t i = 0; i < len; ++i) {
        const std::uint32_t idx = idxs[i];
        if (idx - row_base < num_actions_ && idx != keep) continue;
        if (idx == keep) hit = out;
        idxs[out] = idx;
        vals[out] = vals[i];
        ++out;
      }
      len = out;
      if (hit == UINT32_MAX) {
        idxs[len] = keep;
        vals[len] = 1.0;
        ++len;
      } else {
        vals[hit] = 1.0;
      }

      if (terminal) {
        for (std::uint32_t i = 0; i < len; ++i) {
          q[idxs[i]] += ad * vals[i];
        }
        trace_len_[slot] = 0;
      } else {
        // Branchless compaction: always store, advance only on kept
        // entries (NOT decayed >= cutoff: NaN must stay kept, as in
        // EligibilityTraces::decay).
        const double factor = config_.gamma * config_.lambda;
        out = 0;
        for (std::uint32_t i = 0; i < len; ++i) {
          const std::uint32_t idx = idxs[i];
          const double v = vals[i];
          q[idx] += ad * v;
          const double decayed = v * factor;
          vals[out] = decayed;
          idxs[out] = idx;
          out += !(decayed < kTraceCutoff);
        }
        trace_len_[slot] = out;
      }
    }

    if (!sweep) return;
    double* row = q + static_cast<std::size_t>(s) * num_actions_;
    if (terminal) {
      kern::cf_update_terminal(row, rewards, config_.alpha, sel.action,
                               num_actions_);
    } else if (next_state != s) {
      kern::cf_update(row, rewards,
                      config_.gamma * kern::row_max(next_row, num_actions_),
                      config_.alpha, sel.action, num_actions_);
    } else {
      aliased_sweep(row, rewards, sel.action);
    }
  }

  /// The open trace window of the episode train_episode() is running (one
  /// slot at a time), with the tables its bodies share.
  struct Window {
    std::vector<double> decay;         ///< decay[m] = p[m], m <= cap
    std::uint32_t cap = 0;             ///< entries before a hazard
    std::vector<std::uint32_t> cell;   ///< entry k's Q cell
    std::vector<double> ad;            ///< α·δ of transition k
    std::vector<StateId> state;        ///< entry k's state
    std::vector<std::uint64_t> states; ///< bitmap of the window's states
  };
  void init_window();

  /// Aliased sweep (s == s'): each update can move max Q(s'), so the
  /// bootstrap is re-read per action — scalar by necessity.
  void aliased_sweep(double* row, const double* rewards,
                     ActionId taken) noexcept {
    for (ActionId a = 0; a < num_actions_; ++a) {
      if (a == taken) continue;
      const double bootstrap =
          config_.gamma * kern::row_max(row, num_actions_);
      const double target = rewards[a] + bootstrap;
      const double delta = target - row[a];
      row[a] += config_.alpha * delta;
    }
  }

  // QTable::is_uniquely_greedy's default tolerance and EligibilityTraces'
  // default cutoff — the lane engine must agree with both to the bit.
  static constexpr double kGreedyTolerance = 1e-12;
  static constexpr double kTraceCutoff = 1e-8;

  std::size_t width_;
  std::size_t num_states_;
  std::size_t num_actions_;
  std::size_t trace_cap_ = 0;
  TdLambdaConfig config_;
  std::vector<QTable> tables_;              ///< one S x A table per slot
  std::vector<double> trace_val_;           ///< width x trace_cap
  std::vector<std::uint32_t> trace_idx_;    ///< width x trace_cap
  std::vector<std::uint32_t> trace_len_;    ///< active entries per slot
  Window window_;
  std::uint64_t sequential_episodes_ = 0;
};

}  // namespace coreda::rl
