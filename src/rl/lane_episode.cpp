// LaneEngine::train_episode: one pass per recorded episode with deferred
// eligibility traces (the argument is on train_episode in lane_engine.hpp).
//
// One algorithm, two bodies of row operations: ScalarRows reads and writes
// rows in the slab through the lane kernels and is the reference;
// Avx512Rows keeps row s and row s' in zmm registers (at most 8 actions, a
// masked load with a -inf fill) and is selected once at startup through
// __builtin_cpu_supports and COREDA_LANE_SIMD, as sensors/idle_lanes.cpp
// does. The translation unit builds at the project baseline; the AVX-512
// body gets its target through a function attribute and `flatten`, which
// inlines the whole pass into it. Two rules keep it bit-exact:
//
//   * no contraction: src/rl/CMakeLists.txt builds this file with
//     -ffp-contract=off. AVX-512F implies FMA, and GCC would otherwise fuse
//     the sweep's alpha * delta into its add (and reward + gamma * max in
//     the pass), rounding once where the scalar learner rounds twice;
//   * no signed-zero shortcuts: vmaxpd of {+0.0, -0.0} may return either
//     zero, so a zero row maximum is re-derived by kern::row_max's first-max
//     scan, and the sweep's masked store leaves the taken cell untouched
//     instead of adding a zero delta.

#include <cstdint>
#include <limits>

#include "rl/lane_engine.hpp"
#include "util/simd.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#define COREDA_LANE_EPISODE_X86 1
// GCC 12's _mm512_reduce_max_pd extracts through a self-initialized
// _mm256_undefined_pd(), which -Wuninitialized reports wherever it is
// inlined.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#endif

namespace coreda::rl {

namespace {

/// Longest window the one-pass bodies hold open (γλ near 1 never reaches
/// the cutoff age).
constexpr std::uint32_t kMaxWindow = 64;

/// Row operations over the slab, through the lane kernels (scalar, or their
/// AVX2 forms when those are on).
struct ScalarRows {
  std::size_t n;
  const double* cur = nullptr;   ///< row s
  const double* next = nullptr;  ///< row s'

  void start(const double* row) noexcept { cur = row; }
  double cur_max() const noexcept { return kern::row_max(cur, n); }
  kern::RowStats ties(double max, double tolerance) const noexcept {
    return kern::row_stats_given_max(cur, max, tolerance, n);
  }
  double load_next(const double* row) noexcept {
    next = row;
    return kern::row_max(row, n);
  }
  void advance() noexcept { cur = next; }
  void sweep(double* row, const double* rewards, double bootstrap,
             double alpha, std::size_t taken) const noexcept {
    kern::cf_update(row, rewards, bootstrap, alpha, taken, n);
  }
  void sweep_terminal(double* row, const double* rewards, double alpha,
                      std::size_t taken) const noexcept {
    kern::cf_update_terminal(row, rewards, alpha, taken, n);
  }
};

#ifdef COREDA_LANE_EPISODE_X86

#define COREDA_AVX512 __attribute__((target("avx512f,popcnt")))

bool detect_avx512() noexcept {
  __builtin_cpu_init();
  return util::lane_simd_allowed() && __builtin_cpu_supports("avx512f") != 0;
}

const bool g_avx512 = detect_avx512();

/// Row operations with rows s and s' in registers (n <= 8). The register
/// copy of row s goes stale only at the taken cell, which a Watkins cut or
/// a terminal close writes in the slab and the sweep's masked store skips.
struct Avx512Rows {
  std::size_t n;
  __mmask8 live;
  __m512d cur;
  __m512d next;
  const double* row_s = nullptr;     ///< slab row of `cur`
  const double* row_next = nullptr;  ///< slab row of `next`

  COREDA_AVX512 __m512d load(const double* row) const noexcept {
    return _mm512_mask_loadu_pd(
        _mm512_set1_pd(-std::numeric_limits<double>::infinity()), live, row);
  }
  COREDA_AVX512 double max_of(__m512d v, const double* row) const noexcept {
    const double m = _mm512_reduce_max_pd(v);
    return m == 0.0 ? kern::row_max(row, n) : m;
  }
  COREDA_AVX512 void start(const double* row) noexcept {
    cur = load(row);
    row_s = row;
  }
  COREDA_AVX512 double cur_max() const noexcept { return max_of(cur, row_s); }
  COREDA_AVX512 kern::RowStats ties(double max,
                                    double tolerance) const noexcept {
    const __mmask8 eq =
        _mm512_mask_cmp_pd_mask(live, cur, _mm512_set1_pd(max), _CMP_EQ_OQ);
    const __mmask8 ge = _mm512_mask_cmp_pd_mask(
        live, cur, _mm512_set1_pd(max - tolerance), _CMP_GE_OQ);
    const int near = __builtin_popcount(static_cast<unsigned>(ge));
    return kern::RowStats{max, eq, static_cast<std::uint32_t>(near)};
  }
  COREDA_AVX512 double load_next(const double* row) noexcept {
    next = load(row);
    row_next = row;
    return max_of(next, row);
  }
  COREDA_AVX512 void advance() noexcept {
    cur = next;
    row_s = row_next;
  }
  COREDA_AVX512 void sweep(double* row, const double* rewards,
                           double bootstrap, double alpha,
                           std::size_t taken) const noexcept {
    const __m512d target = _mm512_add_pd(_mm512_maskz_loadu_pd(live, rewards),
                                         _mm512_set1_pd(bootstrap));
    store_update(row, target, alpha, taken);
  }
  COREDA_AVX512 void sweep_terminal(double* row, const double* rewards,
                                    double alpha,
                                    std::size_t taken) const noexcept {
    store_update(row, _mm512_maskz_loadu_pd(live, rewards), alpha, taken);
  }
  /// row[a] += alpha * (target[a] - row[a]) for every live a != taken.
  COREDA_AVX512 void store_update(double* row, __m512d target, double alpha,
                                  std::size_t taken) const noexcept {
    const __m512d delta = _mm512_sub_pd(target, cur);
    const __m512d updated =
        _mm512_add_pd(cur, _mm512_mul_pd(_mm512_set1_pd(alpha), delta));
    _mm512_mask_storeu_pd(
        row, static_cast<__mmask8>(live & ~(1u << taken)), updated);
  }
};

#endif  // COREDA_LANE_EPISODE_X86

}  // namespace

/// The one-pass bodies (a friend of LaneEngine).
struct EpisodeKernel {
  /// Runs transitions from the first until the episode ends or a hazard;
  /// returns the index of the transition it stopped at (the episode's
  /// transition count when it finished). At a hazard the window's pending
  /// increments are applied and the open window is the slot's trace list.
  template <class Rows>
  static std::uint32_t run(LaneEngine& e, std::size_t slot,
                           const Trajectory& episode, double epsilon,
                           util::Rng& rng_io, bool sweep, Rows& rows) {
    LaneEngine::Window& win = e.window_;
    double* const q = e.slot_q(slot);
    const std::size_t num_actions = e.num_actions_;
    const double alpha = e.config_.alpha;
    const double gamma = e.config_.gamma;
    const bool watkins = e.config_.watkins_cut;
    const std::uint32_t n = episode.transitions;
    const StateId* states = episode.states;
    util::Rng rng = rng_io;  // the pass's copy, written back on return

    std::uint32_t open = 0;  // entries in the open window
    rows.start(q + static_cast<std::size_t>(states[0]) * num_actions);
    // Row s's maximum. Along a trajectory row s is the previous row s',
    // whose maximum the bootstrap already took, and nothing wrote it since:
    // no window cell lies in row s', and the sweep and a cut write row s.
    double max = rows.cur_max();
    for (std::uint32_t t = 0; t < n; ++t) {
      const StateId s = states[t];
      const StateId next = states[t + 1];
      if (next == s || in_window(win, next) || open == win.cap) {
        close(win, q, open);
        hand_off(e, slot, open);
        rng_io = rng;
        return t;
      }

      // ε-greedy selection with the Watkins unique-greedy test, drawing as
      // LaneEngine::select does.
      double* const row = q + static_cast<std::size_t>(s) * num_actions;
      const bool explore = rng.bernoulli(epsilon);
      const kern::RowStats st = rows.ties(max, LaneEngine::kGreedyTolerance);
      const std::size_t a =
          LaneEngine::choose(st, explore, num_actions, rng);
      const bool kept =
          !watkins || (row[a] >= max - LaneEngine::kGreedyTolerance &&
                       st.near_count == 1);

      const bool completes = episode.terminal && t + 1 == n;
      const double* rewards = episode.rewards[t];
      double max_next = 0.0;
      double bootstrap = 0.0;
      if (!completes) {
        max_next = rows.load_next(q + static_cast<std::size_t>(next) *
                                          num_actions);
        bootstrap = gamma * max_next;
      }
      const double target = completes ? rewards[a] : rewards[a] + bootstrap;
      const std::size_t sa = static_cast<std::size_t>(s) * num_actions + a;
      const double ad = alpha * (target - row[a]);

      if (kept) {
        win.cell[open] = static_cast<std::uint32_t>(sa);
        win.ad[open] = ad;
        win.state[open] = s;
        win.states[s >> 6] |= std::uint64_t{1} << (s & 63);
        ++open;
      } else {
        // Watkins cut: the window closes before this transition applies,
        // whose own update is a one-entry window.
        close(win, q, open);
        open = 0;
        q[sa] += ad;
      }
      if (sweep) {
        if (completes) {
          rows.sweep_terminal(row, rewards, alpha, a);
        } else {
          rows.sweep(row, rewards, bootstrap, alpha, a);
        }
      }
      rows.advance();
      max = max_next;
    }
    close(win, q, open);
    rng_io = rng;
    return n;
  }

#ifdef COREDA_LANE_EPISODE_X86
  COREDA_AVX512 __attribute__((flatten)) static std::uint32_t run_avx512(
      LaneEngine& e, std::size_t slot, const Trajectory& episode,
      double epsilon, util::Rng& rng, bool sweep) {
    Avx512Rows rows{e.num_actions_,
                    static_cast<__mmask8>((1u << e.num_actions_) - 1),
                    _mm512_setzero_pd(), _mm512_setzero_pd()};
    return run(e, slot, episode, epsilon, rng, sweep, rows);
  }
#endif

 private:
  static bool in_window(const LaneEngine::Window& win, StateId s) noexcept {
    return ((win.states[s >> 6] >> (s & 63)) & 1) != 0;
  }

  /// Applies the open window's increments: cell k gets ad_k·p[0],
  /// ad_{k+1}·p[1], … in transition order, as the per-transition apply
  /// adds them. Cells are distinct (one per window state), so the order
  /// across cells reaches no result.
  static void close(LaneEngine::Window& win, double* q,
                    std::uint32_t open) noexcept {
    for (std::uint32_t k = 0; k < open; ++k) {
      double v = q[win.cell[k]];
      for (std::uint32_t j = k; j < open; ++j) {
        v += win.ad[j] * win.decay[j - k];
      }
      q[win.cell[k]] = v;
      win.states[win.state[k] >> 6] = 0;
    }
  }

  /// The slot's trace list as the per-transition path would hold it after
  /// the window's `open` transitions: entry k decayed open - k times, and
  /// dropped once below the cutoff.
  static void hand_off(LaneEngine& e, std::size_t slot,
                       std::uint32_t open) noexcept {
    const LaneEngine::Window& win = e.window_;
    double* vals = e.trace_val_.data() + slot * e.trace_cap_;
    std::uint32_t* idxs = e.trace_idx_.data() + slot * e.trace_cap_;
    std::uint32_t len = 0;
    for (std::uint32_t k = 0; k < open; ++k) {
      const double v = win.decay[open - k];
      if (v < LaneEngine::kTraceCutoff) continue;
      idxs[len] = win.cell[k];
      vals[len] = v;
      ++len;
    }
    e.trace_len_[slot] = len;
  }
};

void LaneEngine::init_window() {
  Window& w = window_;
  const double factor = config_.gamma * config_.lambda;
  w.decay.reserve(kMaxWindow + 1);
  w.decay.assign(1, 1.0);
  while (w.decay.size() <= kMaxWindow && !(w.decay.back() < kTraceCutoff)) {
    w.decay.push_back(w.decay.back() * factor);
  }
  // A window of cap entries is the longest whose oldest entry is still
  // live, or the kMaxWindow bound.
  w.cap = static_cast<std::uint32_t>(w.decay.size() - 1);
  w.cell.assign(w.cap, 0);
  w.ad.assign(w.cap, 0.0);
  w.state.assign(w.cap, 0);
  w.states.assign((num_states_ + 63) / 64, 0);
}

void LaneEngine::train_episode(std::size_t slot, const Trajectory& episode,
                               double epsilon, util::Rng& rng, bool sweep) {
  check_slot(slot);
  if (episode.transitions > trace_cap_) reserve_traces(episode.transitions);
  trace_len_[slot] = 0;  // the episode starts from cleared traces
  std::uint32_t t = 0;
  if (epsilon > 0.0 && epsilon < 1.0) {
#ifdef COREDA_LANE_EPISODE_X86
    if (g_avx512 && num_actions_ <= 8) {
      t = EpisodeKernel::run_avx512(*this, slot, episode, epsilon, rng, sweep);
    } else
#endif
    {
      ScalarRows rows{num_actions_};
      t = EpisodeKernel::run(*this, slot, episode, epsilon, rng, sweep, rows);
    }
    if (t == episode.transitions) return;
  }
  ++sequential_episodes_;
  for (; t < episode.transitions; ++t) {
    const StateId s = episode.states[t];
    const Selected sel = select(slot, s, epsilon, rng);
    step(slot, sel, s, episode.rewards[t], episode.states[t + 1],
         episode.terminal && t + 1 == episode.transitions, sweep);
  }
}

}  // namespace coreda::rl
