#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) && defined(__GNUC__)
#define COREDA_LANE_KERNELS_X86 1
#endif

namespace coreda::rl::kern {

namespace detail {
#ifdef COREDA_LANE_KERNELS_X86
/// Cached result of the startup AVX2 probe (see simd_enabled()).
extern const bool g_simd;
/// Out-of-line AVX2 bodies (lane_kernels.cpp, function-level target
/// attributes). Callers must check g_simd and the stated width
/// preconditions — the inline dispatchers below are the only intended
/// call sites.
double row_max_avx2(const double* row, std::size_t n) noexcept;  // n >= 4
struct RowStatsResult {
  double max;
  std::uint64_t tie_mask;
  std::uint32_t near_count;
};
RowStatsResult row_stats_given_max_avx2(const double* row, double max,
                                        double tolerance,
                                        std::size_t n) noexcept;  // n <= 64
void cf_update_avx2(double* row, const double* rewards, double bootstrap,
                    double alpha, std::size_t taken, std::size_t n) noexcept;
void cf_update_terminal_avx2(double* row, const double* rewards, double alpha,
                             std::size_t taken, std::size_t n) noexcept;
#endif
}  // namespace detail

/// Whether the explicit SIMD kernel path is active. True when the CPU
/// reports AVX2 and the COREDA_LANE_SIMD environment variable is not "0"
/// (the override exists so the equivalence tests can exercise both paths on
/// the same machine). Decided once per process.
bool simd_enabled() noexcept;

/// Maximum of `row[0..n)` — the value std::max_element would return.
/// n must be >= 1. The AVX2 path falls back to the scalar scan whenever the
/// maximum is a zero: a vector max reduction may return the other-signed
/// zero of a {+0.0, -0.0} tie, and the lane engine's contract is
/// bit-identical doubles, not just numerically-equal ones.
///
/// The scalar bodies of every kernel live here in the header: a transition
/// makes three or four kernel calls over rows of a handful of doubles, and
/// the cross-TU call + dispatch overhead measurably exceeded the work
/// itself on bench_fleet_throughput. The dispatch reads one cached
/// bool; the AVX2 bodies stay out of line behind it.
inline double row_max(const double* row, std::size_t n) noexcept {
#ifdef COREDA_LANE_KERNELS_X86
  if (detail::g_simd && n >= 4) return detail::row_max_avx2(row, n);
#endif
  double m = row[0];
  for (std::size_t i = 1; i < n; ++i) {
    if (row[i] > m) m = row[i];
  }
  return m;
}

/// Everything ε-greedy selection + the Watkins unique-greedy test need from
/// one Q row whose maximum is known: a bitmask of the exact ties (bit a set
/// iff row[a] == max — the reservoir's candidate set) and the count of
/// entries within `tolerance` of the maximum (QTable::is_uniquely_greedy's
/// tie count), in one branch-free sweep. `max` must be bitwise what
/// row_max(row, n) returns for these row bytes: the per-transition
/// fallback computes it just before, the episode pass carries it from the
/// bootstrap over the same row one transition earlier. n must be in
/// [1, 64] (the mask is one word; LaneEngine rejects wider rows).
struct RowStats {
  double max = 0.0;
  std::uint64_t tie_mask = 0;    ///< bit a set iff row[a] == max
  std::uint32_t near_count = 0;  ///< entries with row[a] >= max - tolerance
};

inline RowStats row_stats_given_max(const double* row, double max,
                                    double tolerance,
                                    std::size_t n) noexcept {
#ifdef COREDA_LANE_KERNELS_X86
  if (detail::g_simd && n >= 4) {
    const detail::RowStatsResult r =
        detail::row_stats_given_max_avx2(row, max, tolerance, n);
    return RowStats{r.max, r.tie_mask, r.near_count};
  }
#endif
  RowStats st;
  st.max = max;
  const double threshold = max - tolerance;
  for (std::size_t i = 0; i < n; ++i) {
    st.tie_mask |= static_cast<std::uint64_t>(row[i] == max) << i;
    st.near_count += row[i] >= threshold;
  }
  return st;
}

/// Fused counterfactual row backup for a non-terminal transition:
///   row[a] += alpha * ((rewards[a] + bootstrap) - row[a])   for a != taken.
/// Per-cell IEEE ops in the exact shape of the scalar reference's
/// update_counterfactual_row (tests/support); the AVX2 path keeps
/// mul and add separate (no FMA contraction) and preserves row[taken]
/// bit-exactly via a blend instead of adding a zero delta.
inline void cf_update(double* row, const double* rewards, double bootstrap,
                      double alpha, std::size_t taken,
                      std::size_t n) noexcept {
#ifdef COREDA_LANE_KERNELS_X86
  if (detail::g_simd) {
    detail::cf_update_avx2(row, rewards, bootstrap, alpha, taken, n);
    return;
  }
#endif
  for (std::size_t a = 0; a < n; ++a) {
    if (a == taken) continue;
    const double target = rewards[a] + bootstrap;
    const double delta = target - row[a];
    row[a] += alpha * delta;
  }
}

/// Terminal variant: target is rewards[a] alone. Kept separate instead of
/// passing bootstrap = 0.0 because rewards[a] + 0.0 flips the sign of a
/// -0.0 reward — the scalar path never performs that add.
inline void cf_update_terminal(double* row, const double* rewards,
                               double alpha, std::size_t taken,
                               std::size_t n) noexcept {
#ifdef COREDA_LANE_KERNELS_X86
  if (detail::g_simd) {
    detail::cf_update_terminal_avx2(row, rewards, alpha, taken, n);
    return;
  }
#endif
  for (std::size_t a = 0; a < n; ++a) {
    if (a == taken) continue;
    const double delta = rewards[a] - row[a];
    row[a] += alpha * delta;
  }
}

}  // namespace coreda::rl::kern
