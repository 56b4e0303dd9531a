#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "rl/lane_kernels.hpp"
#include "rl/q_table.hpp"
#include "rl/td_lambda.hpp"
#include "rl/traces.hpp"
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

/// Structure-of-arrays TD(λ) engine: one lane steps `width` learners in
/// lockstep, each with its own Q table and eligibility traces inside shared
/// contiguous slabs.
///
/// Why this is faster than `width` TdLambdaQLearning instances (measured on
/// bench_fleet_throughput; see DESIGN.md "Lane engine"):
///
///   * the scalar path crosses a translation unit for every table access —
///     q_table.cpp's get/add/max_q/best_action are out-of-line calls with a
///     bounds check per cell; here every hot operation is inlined over raw
///     row pointers;
///   * one transition used to scan its Q row four times (ε-greedy argmax,
///     the Watkins unique-greedy test, the bootstrap max, the
///     counterfactual sweep); select() fuses the first two into one pass
///     and the sweep consumes the row exactly once;
///   * eligibility traces drop the dense values/pos bookkeeping of
///     EligibilityTraces for a compact entry list (parallel index/value
///     arrays — SoA), whose decay+compaction is fused into the trace-apply
///     pass (one branchless sweep);
///   * train_episode() runs a whole recorded episode in one pass and defers
///     the trace increments of each trace window until it closes (see
///     there and rl/lane_episode.cpp);
///   * Q slabs of all slots are contiguous, so an 8-wide lane of tea-making
///     tables (~2.8 KB each) stays L1/L2-resident while the lockstep loop
///     interleaves independent per-user dependency chains.
///
/// Bit-exactness contract: for each slot, the sequence of IEEE-754
/// operations applied to its Q values, trace values and Rng stream is
/// operation-for-operation the one TdLambdaQLearning + EpsilonGreedyPolicy
/// + EligibilityTraces would apply. Slots never interact, so any
/// interleaving across slots (including lane width and ragged batches)
/// yields byte-identical per-user results — proven by the golden
/// equivalence tests in tests/rl/lane_engine_test.cpp and
/// tests/planning/lane_trainer_test.cpp. Two non-obvious equivalences the
/// kernels rely on:
///
///   * trace apply/visit/clear touch disjoint cells per entry, so entry
///     *order* never reaches an FP result — the compact entry list may
///     permute entries freely relative to EligibilityTraces' swap-pop
///     order;
///   * fusing a transition's trace decay into its apply pass is safe
///     because apply touches only Q values and decay only trace values —
///     per-entry apply-then-decay equals apply-all-then-decay-all.
class LaneEngine {
 public:
  /// `trace_capacity` bounds trace entries per slot; one visit per
  /// transition means the longest episode's transition count suffices.
  /// Throws std::invalid_argument on zero dimensions or an invalid config
  /// (same validation as TdLambdaQLearning).
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
    if (config.alpha <= 0.0 || config.alpha > 1.0 || config.gamma < 0.0 ||
        config.gamma > 1.0 || config.lambda < 0.0 || config.lambda > 1.0) {
      throw std::invalid_argument("LaneEngine: invalid TdLambdaConfig");
    }
    q_.assign(width * num_states * num_actions, config.initial_q);
    reserve_traces(trace_capacity == 0 ? 1 : trace_capacity);
    trace_len_.assign(width, 0);
    init_window();
  }

  std::size_t width() const noexcept { return width_; }
  std::size_t num_states() const noexcept { return num_states_; }
  std::size_t num_actions() const noexcept { return num_actions_; }
  std::size_t trace_capacity() const noexcept { return trace_cap_; }
  const TdLambdaConfig& config() const noexcept { return config_; }

  /// Grows the per-slot trace capacity (preserving nothing — callers grow
  /// between episodes, when every slot's traces are clear).
  void reserve_traces(std::size_t capacity) {
    if (capacity <= trace_cap_ && !trace_val_.empty()) return;
    trace_cap_ = capacity;
    trace_val_.assign(width_ * trace_cap_, 0.0);
    trace_idx_.assign(width_ * trace_cap_, 0);
  }

  double* slot_q(std::size_t slot) noexcept {
    return q_.data() + slot * num_states_ * num_actions_;
  }
  const double* slot_q(std::size_t slot) const noexcept {
    return q_.data() + slot * num_states_ * num_actions_;
  }

  /// Gather: copies `q` into the slot's slab (shapes must match — throws
  /// std::invalid_argument otherwise) and clears its traces.
  void load(std::size_t slot, const QTable& q) {
    if (q.num_states() != num_states_ || q.num_actions() != num_actions_) {
      throw std::invalid_argument("LaneEngine::load: table shape mismatch");
    }
    double* dst = slot_q(slot);
    for (StateId s = 0; s < num_states_; ++s) {
      const std::span<const double> row = q.row(s);
      for (ActionId a = 0; a < num_actions_; ++a) {
        dst[static_cast<std::size_t>(s) * num_actions_ + a] = row[a];
      }
    }
    begin_episode(slot);
  }

  /// Scatter: copies the slot's table back out.
  void store(std::size_t slot, QTable& q) const {
    if (q.num_states() != num_states_ || q.num_actions() != num_actions_) {
      throw std::invalid_argument("LaneEngine::store: table shape mismatch");
    }
    const double* src = slot_q(slot);
    for (StateId s = 0; s < num_states_; ++s) {
      const std::span<double> row = q.row_mut(s);
      for (ActionId a = 0; a < num_actions_; ++a) {
        row[a] = src[static_cast<std::size_t>(s) * num_actions_ + a];
      }
    }
  }

  /// Resets the slot's traces (QTable persists) — TdLambdaQLearning::
  /// begin_episode.
  void begin_episode(std::size_t slot) noexcept { trace_len_[slot] = 0; }

  /// Everything observe() needs from action selection, computed in the same
  /// row pass: ε-greedy's choice plus the Watkins unique-greedy verdict.
  struct Selected {
    ActionId action = 0;
    bool uniquely_greedy = false;
  };

  /// A row maximum carried from one transition to the next: step()'s
  /// bootstrap scan of Q(s') is over the very row the NEXT transition's
  /// select() will scan (s_{t+1} == s'_t in a trajectory), so when step()
  /// can prove it wrote nothing into that row, the max is still exact and
  /// select() may skip its reduction. `valid` is the proof bit.
  struct MaxCarry {
    double max = 0.0;
    bool valid = false;
  };

  /// ε-greedy selection, drawing from `rng` exactly as EpsilonGreedyPolicy
  /// ::select + QTable::best_action(s, rng) would (bernoulli, then either
  /// pick_index or one uniform() per exact tie), fused with the
  /// is_uniquely_greedy(s, a) row test observe() needs.
  ///
  /// One scan computes the exact-tie count, the first tie's index and the
  /// tolerance-tie count together (branch-free accumulation — the separate
  /// reservoir loop + count_ge pass cost two data-dependent branch streams
  /// per transition). A converged row has exactly one exact tie, where the
  /// reservoir provably picks the argmax: its single draw is
  /// uniform() < 1/1, always true — so the fast path consumes the one
  /// draw and selects first_tie directly. Multi-tie rows (the optimistic
  /// cold start) fall back to the verbatim reservoir loop.
  Selected select(std::size_t slot, StateId s, double epsilon,
                  util::Rng& rng) noexcept {
    return select(slot, s, epsilon, rng, MaxCarry{});
  }

  /// select() with a carried row maximum (see MaxCarry): when `carry.valid`,
  /// the row scan skips its max reduction — `carry.max` is bitwise what the
  /// reduction would return, because the bytes of row s are unchanged since
  /// the previous step() computed it. Draw order and results are identical
  /// to the unhinted overload in every case.
  Selected select(std::size_t slot, StateId s, double epsilon,
                  util::Rng& rng, MaxCarry carry) noexcept {
    const double* row = slot_q(slot) + static_cast<std::size_t>(s) *
                                           num_actions_;
    Selected sel;
    const bool explore = rng.bernoulli(epsilon);
    if (num_actions_ <= 64) {
      const kern::RowStats st =
          carry.valid
              ? kern::row_stats_given_max(row, carry.max, kGreedyTolerance,
                                          num_actions_)
              : kern::row_stats(row, kGreedyTolerance, num_actions_);
      if (explore) {
        sel.action = static_cast<ActionId>(rng.pick_index(num_actions_));
      } else if (st.tie_mask != 0 &&
                 (st.tie_mask & (st.tie_mask - 1)) == 0) {
        // A single exact tie: the reservoir's one draw is uniform() < 1/1,
        // always accepted — consume it and take the argmax directly.
        (void)rng.uniform();
        sel.action = static_cast<ActionId>(__builtin_ctzll(st.tie_mask));
      } else {
        // Reservoir-sample uniformly among the exact ties, one uniform()
        // per tie — QTable::best_action(s, rng) verbatim, walking the mask.
        std::uint64_t mask = st.tie_mask;
        ActionId chosen = 0;
        std::size_t seen = 0;
        while (mask != 0) {
          const auto a = static_cast<ActionId>(__builtin_ctzll(mask));
          mask &= mask - 1;
          ++seen;
          if (rng.uniform() < 1.0 / static_cast<double>(seen)) chosen = a;
        }
        sel.action = chosen;
      }
      sel.uniquely_greedy =
          row[sel.action] >= st.max - kGreedyTolerance && st.near_count == 1;
      return sel;
    }
    // Wide-row fallback (> 64 actions): the unfused reference scans.
    const double max = kern::row_max(row, num_actions_);
    if (explore) {
      sel.action = static_cast<ActionId>(rng.pick_index(num_actions_));
    } else {
      ActionId chosen = 0;
      std::size_t ties = 0;
      for (ActionId a = 0; a < num_actions_; ++a) {
        if (row[a] == max) {
          ++ties;
          if (rng.uniform() < 1.0 / static_cast<double>(ties)) chosen = a;
        }
      }
      sel.action = chosen;
    }
    sel.uniquely_greedy =
        row[sel.action] >= max - kGreedyTolerance &&
        kern::count_ge(row, max - kGreedyTolerance, num_actions_) == 1;
    return sel;
  }

  /// One TD(λ) backup — TdLambdaQLearning::observe with `sel` carrying the
  /// pre-computed Watkins test. The trace decay of a kept (greedy,
  /// non-terminal) transition is *fused into the apply pass*: applying
  /// entry i touches only Q cells and decaying it touches only its trace
  /// value, so apply-then-decay per entry is the same IEEE sequence as the
  /// scalar path's apply-all-then-decay-all — one pass instead of two plus
  /// a dispatch.
  double observe(std::size_t slot, const Selected& sel, StateId s,
                 double reward, StateId next_state, bool terminal) noexcept {
    double* q = slot_q(slot);
    const std::size_t sa =
        static_cast<std::size_t>(s) * num_actions_ + sel.action;
    const bool strictly_greedy = !config_.watkins_cut || sel.uniquely_greedy;

    const double target =
        terminal ? reward
                 : reward + config_.gamma *
                                kern::row_max(q + static_cast<std::size_t>(
                                                      next_state) *
                                                      num_actions_,
                                              num_actions_);
    const double delta = target - q[sa];

    if (!strictly_greedy) {
      q[sa] += config_.alpha * delta;
      trace_len_[slot] = 0;
      return delta;
    }

    double* vals = trace_val_.data() + slot * trace_cap_;
    std::uint32_t* idxs = trace_idx_.data() + slot * trace_cap_;
    std::uint32_t len = trace_len_[slot];

    if (config_.trace_type == TraceType::kReplacing) {
      // clear_state_actions(s, sel.action) fused with the visit(s, a)
      // lookup: one pass drops this row's other entries and spots the kept
      // cell's (unique) entry on the way through.
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
    } else {
      // visit(s, a): replace or append (accumulating adds).
      std::uint32_t hit = len;
      for (std::uint32_t i = 0; i < len; ++i) {
        if (idxs[i] == sa) {
          hit = i;
          break;
        }
      }
      if (hit == len) {
        idxs[len] = static_cast<std::uint32_t>(sa);
        vals[len] = 1.0;
        ++len;
      } else {
        vals[hit] += 1.0;
      }
    }

    const double ad = config_.alpha * delta;
    if (terminal) {
      // Apply only — the episode ends here, traces reset.
      for (std::uint32_t i = 0; i < len; ++i) {
        q[idxs[i]] += ad * vals[i];
      }
      trace_len_[slot] = 0;
      return delta;
    }

    // Fused apply + decay + compact: each entry owns a distinct Q cell and
    // its own trace value, so per-entry apply-then-decay equals the scalar
    // apply-all-then-decay-all bit for bit. Branchless compaction: always
    // store, advance only on kept entries (NOT decayed >= cutoff: NaN must
    // stay kept, as in EligibilityTraces::decay).
    const double factor = config_.gamma * config_.lambda;
    std::uint32_t out = 0;
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
    return delta;
  }

  /// One full lockstep transition: observe() plus (optionally) the
  /// counterfactual sweep, fused so the bootstrap row scan is shared. The
  /// sweep re-derives gamma * max Q(s') *after* observe's writes; the fused
  /// path tracks whether any write landed in the next state's row during
  /// the apply pass and reuses observe's pre-computed product when none
  /// did — bitwise the same value read from bitwise the same row.
  /// Result-identical to observe(slot, ...) followed by
  /// counterfactual_row(slot, ...) in every case.
  double step(std::size_t slot, const Selected& sel, StateId s,
              const double* rewards, StateId next_state, bool terminal,
              bool sweep, MaxCarry* carry = nullptr) noexcept {
    double* q = slot_q(slot);
    const std::size_t next_base =
        static_cast<std::size_t>(next_state) * num_actions_;
    const std::size_t sa =
        static_cast<std::size_t>(s) * num_actions_ + sel.action;
    const bool strictly_greedy = !config_.watkins_cut || sel.uniquely_greedy;
    const double reward = rewards[sel.action];

    double max_next = 0.0;  // max Q(s'), pre-apply
    const double target =
        terminal ? reward
                 : reward + config_.gamma * (max_next = kern::row_max(
                                                 q + next_base,
                                                 num_actions_));
    const double delta = target - q[sa];
    const double ad = config_.alpha * delta;
    bool touched_next = false;

    if (!strictly_greedy) {
      q[sa] += ad;
      trace_len_[slot] = 0;
      touched_next = sa - next_base < num_actions_;
    } else {
      double* vals = trace_val_.data() + slot * trace_cap_;
      std::uint32_t* idxs = trace_idx_.data() + slot * trace_cap_;
      std::uint32_t len = trace_len_[slot];

      if (config_.trace_type == TraceType::kReplacing) {
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
      } else {
        std::uint32_t hit = len;
        for (std::uint32_t i = 0; i < len; ++i) {
          if (idxs[i] == sa) {
            hit = i;
            break;
          }
        }
        if (hit == len) {
          idxs[len] = static_cast<std::uint32_t>(sa);
          vals[len] = 1.0;
          ++len;
        } else {
          vals[hit] += 1.0;
        }
      }

      if (terminal) {
        for (std::uint32_t i = 0; i < len; ++i) {
          q[idxs[i]] += ad * vals[i];
        }
        trace_len_[slot] = 0;
      } else {
        const double factor = config_.gamma * config_.lambda;
        std::uint32_t out = 0;
        for (std::uint32_t i = 0; i < len; ++i) {
          const std::uint32_t idx = idxs[i];
          const double v = vals[i];
          q[idx] += ad * v;
          touched_next |= idx - next_base < num_actions_;
          const double decayed = v * factor;
          vals[out] = decayed;
          idxs[out] = idx;
          out += !(decayed < kTraceCutoff);
        }
        trace_len_[slot] = out;
      }
    }

    if (sweep) {
      double* row = q + static_cast<std::size_t>(s) * num_actions_;
      if (terminal) {
        kern::cf_update_terminal(row, rewards, config_.alpha, sel.action,
                                 num_actions_);
      } else if (next_state != s) {
        if (touched_next) {
          // Re-derive post-apply; the refreshed max is again exact for
          // row s' (the sweep below writes only row s != s').
          max_next = kern::row_max(q + next_base, num_actions_);
          touched_next = false;
        }
        kern::cf_update(row, rewards, config_.gamma * max_next,
                        config_.alpha, sel.action, num_actions_);
      } else {
        aliased_sweep(row, rewards, sel.action);
      }
    }
    if (carry != nullptr) {
      // Valid iff max_next still describes row s' bit for bit: non-terminal
      // (it was computed at all), no apply-pass write landed in row s'
      // (touched_next — an aliased s == s' transition always sets it, since
      // the taken (s, a) cell is applied), and no aliased sweep ran. The
      // next transition's select() reads this very row (s_{t+1} == s'_t).
      carry->max = max_next;
      carry->valid = !terminal && !touched_next &&
                     !(sweep && next_state == s);
    }
    return delta;
  }

  /// Fused counterfactual sweep — TdLambdaQLearning::
  /// update_counterfactual_row over the slot's slab. `rewards` must be
  /// num_actions() wide.
  void counterfactual_row(std::size_t slot, StateId s,
                          const double* rewards, ActionId taken,
                          StateId next_state, bool terminal) noexcept {
    double* q = slot_q(slot);
    double* row = q + static_cast<std::size_t>(s) * num_actions_;
    if (terminal) {
      kern::cf_update_terminal(row, rewards, config_.alpha, taken,
                               num_actions_);
      return;
    }
    if (next_state != s) {
      const double bootstrap =
          config_.gamma *
          kern::row_max(q + static_cast<std::size_t>(next_state) *
                            num_actions_,
                        num_actions_);
      kern::cf_update(row, rewards, bootstrap, config_.alpha, taken,
                      num_actions_);
      return;
    }
    aliased_sweep(row, rewards, taken);
  }

  /// Trains one recorded episode on the slot from cleared traces:
  /// result-identical to begin_episode() followed by select() + step() for
  /// every transition (the trajectory satisfies s_{t+1} == s'_t by
  /// construction), RNG draws included.
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
  /// pending, hands the open window to select()/step() as the slot's trace
  /// list and finishes the episode there; so do accumulating traces, ε
  /// outside (0, 1) and rows over 64 actions, from the first transition.
  ///
  /// Rows of at most 8 actions run in AVX-512 registers when the CPU has
  /// AVX-512F and COREDA_LANE_SIMD is not "0"; the scalar body of the same
  /// pass, over the lane kernels, is the reference. Grows the trace
  /// capacity to the episode's length when needed, which clears every
  /// slot's traces (no slot may be inside a select()/step() episode then).
  void train_episode(std::size_t slot, const Trajectory& episode,
                     double epsilon, util::Rng& rng, bool sweep);

  /// Episodes train_episode() finished on the per-transition path (a
  /// hazard, or a configuration the one-pass body does not take).
  std::uint64_t sequential_episodes() const noexcept {
    return sequential_episodes_;
  }

  std::uint32_t trace_entries(std::size_t slot) const noexcept {
    return trace_len_[slot];
  }

 private:
  friend struct EpisodeKernel;  // train_episode's one-pass bodies

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
  std::vector<double> q_;                   ///< width x S x A, slot-major
  std::vector<double> trace_val_;           ///< width x trace_cap
  std::vector<std::uint32_t> trace_idx_;    ///< width x trace_cap
  std::vector<std::uint32_t> trace_len_;    ///< active entries per slot
  Window window_;
  std::uint64_t sequential_episodes_ = 0;
};

}  // namespace coreda::rl
