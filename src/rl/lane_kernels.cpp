// Explicit AVX2 lane-kernel bodies + the startup SIMD probe. The scalar
// reference bodies live inline in lane_kernels.hpp (the dispatchers there
// are the only intended callers of these).
//
// The scalar bodies are the reference: they perform byte-for-byte the same
// IEEE-754 operation sequence as the test-only scalar TD(λ) reference
// (tests/support; see lane_engine.hpp for the equivalence argument). The
// AVX2 variants are compiled via function-level target attributes — the
// translation unit itself builds at the project baseline, so the binary
// still runs on any x86-64 — and are selected once at startup through
// __builtin_cpu_supports. Two rules keep the vector code bit-exact:
//
//   * no FMA: the baseline build contracts nothing (SSE2 mulsd/addsd), so
//     the vector path uses separate mul and add too (AVX2 != FMA; the
//     target attribute deliberately does not enable fma);
//   * no signed-zero shortcuts: vmaxpd of {+0.0, -0.0} may return either
//     zero, so row_max falls back to the scalar first-max scan whenever the
//     reduction lands on a zero, and the counterfactual update blends the
//     taken action's cell through untouched instead of adding a 0.0 delta
//     (-0.0 + 0.0 is +0.0 — an add the scalar path never does).

#include "rl/lane_kernels.hpp"

#include "util/simd.hpp"

#ifdef COREDA_LANE_KERNELS_X86
#include <immintrin.h>
#endif

namespace coreda::rl::kern {

namespace {

bool detect_simd() noexcept {
#ifdef COREDA_LANE_KERNELS_X86
  return util::lane_simd_allowed() && __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

#ifdef COREDA_LANE_KERNELS_X86

double row_max_scalar(const double* row, std::size_t n) noexcept {
  double m = row[0];
  for (std::size_t i = 1; i < n; ++i) {
    if (row[i] > m) m = row[i];
  }
  return m;
}

#endif

}  // namespace

namespace detail {

#ifdef COREDA_LANE_KERNELS_X86

extern const bool g_simd = detect_simd();

__attribute__((target("avx2"))) double row_max_avx2(const double* row,
                                                    std::size_t n) noexcept {
  __m256d acc = _mm256_loadu_pd(row);  // callers guarantee n >= 4 here
  std::size_t i = 4;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_max_pd(acc, _mm256_loadu_pd(row + i));
  }
  __m128d lo = _mm256_castpd256_pd128(acc);
  __m128d hi = _mm256_extractf128_pd(acc, 1);
  lo = _mm_max_pd(lo, hi);
  lo = _mm_max_sd(lo, _mm_unpackhi_pd(lo, lo));
  double m = _mm_cvtsd_f64(lo);
  for (; i < n; ++i) {
    if (row[i] > m) m = row[i];
  }
  // A zero maximum may carry the wrong zero sign out of vmaxpd; re-derive
  // it with the scalar first-max scan (0.0 == -0.0, so this also triggers
  // for -0.0).
  if (m == 0.0) return row_max_scalar(row, n);
  return m;
}

__attribute__((target("avx2"))) RowStatsResult row_stats_given_max_avx2(
    const double* row, double max, double tolerance,
    std::size_t n) noexcept {
  // Tie mask (exact equality — ±0.0 compare equal, like the scalar scan)
  // and tolerance-tie count in one masked sweep.
  const __m256d mv = _mm256_set1_pd(max);
  const __m256d tv = _mm256_set1_pd(max - tolerance);
  RowStatsResult st{max, 0, 0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(row + i);
    const unsigned eq = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(v, mv, _CMP_EQ_OQ)));
    const unsigned ge = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(v, tv, _CMP_GE_OQ)));
    st.tie_mask |= static_cast<std::uint64_t>(eq) << i;
    st.near_count += static_cast<std::uint32_t>(__builtin_popcount(ge));
  }
  for (; i < n; ++i) {
    st.tie_mask |= static_cast<std::uint64_t>(row[i] == max) << i;
    st.near_count += row[i] >= max - tolerance;
  }
  return st;
}

__attribute__((target("avx2"))) void cf_update_avx2(
    double* row, const double* rewards, double bootstrap, double alpha,
    std::size_t taken, std::size_t n) noexcept {
  const __m256d b = _mm256_set1_pd(bootstrap);
  const __m256d al = _mm256_set1_pd(alpha);
  const __m256i lane_ids = _mm256_setr_epi64x(0, 1, 2, 3);
  const __m256i taken_v =
      _mm256_set1_epi64x(static_cast<long long>(taken));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d r = _mm256_loadu_pd(row + i);
    const __m256d target = _mm256_add_pd(_mm256_loadu_pd(rewards + i), b);
    const __m256d delta = _mm256_sub_pd(target, r);
    const __m256d updated = _mm256_add_pd(r, _mm256_mul_pd(al, delta));
    // Blend the taken action's cell through untouched.
    const __m256i ids = _mm256_add_epi64(
        lane_ids, _mm256_set1_epi64x(static_cast<long long>(i)));
    const __m256d keep =
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(ids, taken_v));
    _mm256_storeu_pd(row + i, _mm256_blendv_pd(updated, r, keep));
  }
  for (; i < n; ++i) {
    if (i == taken) continue;
    const double target = rewards[i] + bootstrap;
    const double delta = target - row[i];
    row[i] += alpha * delta;
  }
}

__attribute__((target("avx2"))) void cf_update_terminal_avx2(
    double* row, const double* rewards, double alpha, std::size_t taken,
    std::size_t n) noexcept {
  const __m256d al = _mm256_set1_pd(alpha);
  const __m256i lane_ids = _mm256_setr_epi64x(0, 1, 2, 3);
  const __m256i taken_v =
      _mm256_set1_epi64x(static_cast<long long>(taken));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d r = _mm256_loadu_pd(row + i);
    const __m256d delta = _mm256_sub_pd(_mm256_loadu_pd(rewards + i), r);
    const __m256d updated = _mm256_add_pd(r, _mm256_mul_pd(al, delta));
    const __m256i ids = _mm256_add_epi64(
        lane_ids, _mm256_set1_epi64x(static_cast<long long>(i)));
    const __m256d keep =
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(ids, taken_v));
    _mm256_storeu_pd(row + i, _mm256_blendv_pd(updated, r, keep));
  }
  for (; i < n; ++i) {
    if (i == taken) continue;
    const double delta = rewards[i] - row[i];
    row[i] += alpha * delta;
  }
}

#endif  // COREDA_LANE_KERNELS_X86

}  // namespace detail

bool simd_enabled() noexcept {
#ifdef COREDA_LANE_KERNELS_X86
  return detail::g_simd;
#else
  return detect_simd();
#endif
}

}  // namespace coreda::rl::kern
