// The idle-window lanes (see idle_lanes.hpp). The translation unit builds at
// the project baseline; the kernel gets AVX-512F/DQ through a function-level
// target attribute and is selected once at startup through
// __builtin_cpu_supports, so the binary still runs on any x86-64. Three rules
// keep it bit-exact with the scalar sample_hits:
//
//   * no contraction: src/sensors/CMakeLists.txt builds this file with
//     -ffp-contract=off. AVX-512F implies FMA, and GCC's default
//     -ffp-contract=fast fuses u*u + v*v into one rounding, which moves a
//     pair's s (and so the cached deviate's) by an ulp;
//   * the polar cache: every new pair writes (v, s, factor = 0) into its
//     lane's cache fields, as Rng::draw_normal does, also when the same
//     sample consumes that cached deviate right away;
//   * the finished factor: a doubtful sample goes through finish_normal,
//     which hands the factor of a pair it finished to a still-cached
//     second deviate. Only a sample that begins without a cached deviate
//     ends with one, and the next sample's fresh pair overwrites that
//     factor with 0, so only the window's last sample can leave it set:
//     such a lane is handed back.

#include "sensors/idle_lanes.hpp"

#include "util/simd.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#define COREDA_IDLE_LANES_X86 1
// GCC 12's unmasked AVX-512 shifts and rotates pass a self-initialized
// _mm512_undefined_epi32() as their unused merge source, which
// -Wmaybe-uninitialized reports wherever they are inlined.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#endif

namespace coreda::sensors {

#ifdef COREDA_IDLE_LANES_X86

namespace {

#define COREDA_AVX512 __attribute__((target("avx512f,avx512dq")))

bool detect() noexcept {
  __builtin_cpu_init();
  return util::lane_simd_allowed() &&
         __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512dq") != 0;
}

const bool g_enabled = detect();

/// Word k of every lane's xoshiro256** state.
struct Streams {
  __m512i s0, s1, s2, s3;
};

/// Rng::operator() on every lane: returns the outputs, advances `st`.
COREDA_AVX512 inline __m512i next(Streams& st) noexcept {
  // rotl(s1 * 5, 7) * 9, the multiplies as shifts and wrapping adds.
  const __m512i r = _mm512_rol_epi64(
      _mm512_add_epi64(st.s1, _mm512_slli_epi64(st.s1, 2)), 7);
  const __m512i out = _mm512_add_epi64(r, _mm512_slli_epi64(r, 3));
  const __m512i t = _mm512_slli_epi64(st.s1, 17);
  st.s2 = _mm512_xor_epi64(st.s2, st.s0);
  st.s3 = _mm512_xor_epi64(st.s3, st.s1);
  st.s1 = _mm512_xor_epi64(st.s1, st.s2);
  st.s0 = _mm512_xor_epi64(st.s0, st.s3);
  st.s2 = _mm512_xor_epi64(st.s2, t);
  st.s3 = _mm512_rol_epi64(st.s3, 45);
  return out;
}

/// Lanes in `k` take `b`'s streams, the others keep `a`'s.
COREDA_AVX512 inline Streams select(__mmask8 k, const Streams& a,
                                    const Streams& b) noexcept {
  return {_mm512_mask_blend_epi64(k, a.s0, b.s0),
          _mm512_mask_blend_epi64(k, a.s1, b.s1),
          _mm512_mask_blend_epi64(k, a.s2, b.s2),
          _mm512_mask_blend_epi64(k, a.s3, b.s3)};
}

/// The top 53 bits of each output, as Rng::uniform() takes them.
COREDA_AVX512 inline __m512d top53(__m512i x) noexcept {
  return _mm512_cvtepu64_pd(_mm512_srli_epi64(x, 11));
}

/// Rng::uniform(-1, 1) of each output in integer units: -1 + 2·(k·2⁻⁵³)
/// is exactly m·2⁻⁵² with m = k − 2⁵² and k = x >> 11, so the lanes carry
/// m (|m| <= 2⁵², exact in a double) and scale by 2⁻⁵² only on write-back.
COREDA_AVX512 inline __m512d polar_units(__m512i x) noexcept {
  return _mm512_cvtepi64_pd(_mm512_sub_epi64(
      _mm512_srli_epi64(x, 11), _mm512_set1_epi64(std::int64_t{1} << 52)));
}

/// A polar candidate drawn on every lane, as Rng::draw_normal draws it,
/// in integer units: with u = m_u·2⁻⁵² and v = m_v·2⁻⁵², every square and
/// the sum round as they do at scale 2⁻¹⁰⁴ (all far above the subnormal
/// range), so S = m_u² + m_v² is exactly s·2¹⁰⁴ and the scalar's
/// 0 < s < 1 is 0 < S < 2¹⁰⁴.
struct Candidate {
  __m512d m_v, big_s;
  __mmask8 accepted;  ///< 0 < S < 2¹⁰⁴
};

COREDA_AVX512 inline Candidate candidate(Streams& st) noexcept {
  const __m512d m_u = polar_units(next(st));
  const __m512d m_v = polar_units(next(st));
  const __m512d big_s =
      _mm512_add_pd(_mm512_mul_pd(m_u, m_u), _mm512_mul_pd(m_v, m_v));
  const __mmask8 accepted = _mm512_mask_cmp_pd_mask(
      _mm512_cmp_pd_mask(big_s, _mm512_set1_pd(0x1.0p104), _CMP_LT_OQ),
      big_s, _mm512_setzero_pd(), _CMP_NEQ_OQ);
  return {m_v, big_s, accepted};
}

COREDA_AVX512 std::uint32_t settle_avx512(const IdleLane* lanes,
                                          std::size_t n, std::size_t count,
                                          std::size_t tolerance) noexcept {
  // Gather the streams structure-of-arrays; unused lanes stay all-zero and
  // are never live.
  alignas(64) std::uint64_t words[4][kIdleLanes] = {};
  alignas(64) double cached_v[kIdleLanes] = {};
  alignas(64) double cached_s[kIdleLanes] = {};
  alignas(64) double cached_factor[kIdleLanes] = {};
  alignas(64) double bump_p[kIdleLanes] = {};
  alignas(64) double s_min[kIdleLanes] = {};
  unsigned cached = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const util::Rng::Raw raw = lanes[i].rng->raw();
    for (std::size_t w = 0; w < 4; ++w) words[w][i] = raw.state[w];
    cached_v[i] = raw.cached_v;
    cached_s[i] = raw.cached_s;
    cached_factor[i] = raw.cached_factor;
    if (raw.has_cached_normal) cached |= 1u << i;
    bump_p[i] = lanes[i].bump_probability;
    s_min[i] = lanes[i].s_min;
  }
  Streams st{_mm512_load_si512(words[0]), _mm512_load_si512(words[1]),
             _mm512_load_si512(words[2]), _mm512_load_si512(words[3])};
  // The cache in integer units: scaling by a power of two is exact both
  // ways for every value an Rng holds.
  const __m512d v_unit = _mm512_set1_pd(0x1.0p52);
  const __m512d s_unit = _mm512_set1_pd(0x1.0p104);
  __m512d cv = _mm512_mul_pd(_mm512_load_pd(cached_v), v_unit);
  __m512d cs = _mm512_mul_pd(_mm512_load_pd(cached_s), s_unit);
  __m512d cf = _mm512_load_pd(cached_factor);
  const __m512d p = _mm512_load_pd(bump_p);
  const __m512d cutoff = _mm512_mul_pd(_mm512_load_pd(s_min), s_unit);
  const __m512d zero = _mm512_setzero_pd();
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d two53 = _mm512_set1_pd(0x1.0p53);
  const __m512i tolerated =
      _mm512_set1_epi64(static_cast<std::int64_t>(tolerance));
  __m512i doubts = _mm512_setzero_si512();

  // Rng::bernoulli draws only for 0 < p < 1; p >= 1 always bumps.
  const __mmask8 always = _mm512_cmp_pd_mask(p, one, _CMP_GE_OQ);
  const __mmask8 idle_draw = static_cast<__mmask8>(
      ~(_mm512_cmp_pd_mask(p, zero, _CMP_LE_OQ) | always));
  // uniform() < p, with uniform() = k·2⁻⁵³ exactly: k < p·2⁵³.
  const __m512d p53 = _mm512_mul_pd(p, two53);
  __mmask8 live = static_cast<__mmask8>(((1u << n) - 1u) & ~always);
  __mmask8 has_cached = static_cast<__mmask8>(cached);
  // The last sample's doubtful lanes that began it without a cached
  // deviate: sample_hits leaves their cached factor set (file comment).
  __mmask8 factor_left = 0;

  // Every lane advances through every draw; a lane that must not take a
  // draw gets its streams back by a blend. Lanes that are no longer live
  // are never written back, so they may advance freely. A sample is
  // doubtful when it drew a bump or met an s below s_min: only a doubtful
  // sample can hit, so a lane with at most `tolerance` of them closes its
  // window below the vote.
  for (std::size_t i = 0; i < count && live != 0; ++i) {
    const __mmask8 began_fresh = static_cast<__mmask8>(~has_cached);
    // The bump draw, θ and φ. An un-bumped idle sample has r == +0, which
    // zeroes every trig term, so θ and φ are never needed; a bumped one
    // first takes draw_deviation's magnitude, uniform(0.6, 1.0).
    const Streams before = st;
    const __m512d k = top53(next(st));
    st = select(idle_draw, before, st);
    const __mmask8 bumped =
        _mm512_mask_cmp_pd_mask(live & idle_draw, k, p53, _CMP_LT_OQ);
    if (bumped != 0) {
      Streams after = st;
      next(after);
      st = select(bumped, st, after);
    }
    next(st);
    next(st);
    __mmask8 doubtful = bumped;
    // Three normals. A lane holding a cached deviate takes it; every other
    // live lane draws polar candidates until one is accepted and caches
    // its second deviate. Two candidates are drawn unconditionally (a lane
    // keeps the streams after its first accepted one), so the rejection
    // loop runs only for the ~5 % of lanes that reject both: branch-free
    // in the common case, which measured faster than a loop per
    // candidate and than three candidates. Either way the deviate's S is
    // then in cs.
    for (int axis = 0; axis < 3; ++axis) {
      const __mmask8 taking = live & has_cached;
      const __mmask8 fresh = live & static_cast<__mmask8>(~has_cached);
      if (fresh != 0) {
        Streams after1 = st;
        const Candidate c1 = candidate(after1);
        Streams after2 = after1;
        const Candidate c2 = candidate(after2);
        const __mmask8 take1 = fresh & c1.accepted;
        const __mmask8 past1 = fresh & static_cast<__mmask8>(~c1.accepted);
        st = select(past1, select(take1, st, after1), after2);
        const __m512d pair_v = _mm512_mask_blend_pd(take1, c2.m_v, c1.m_v);
        const __m512d pair_s =
            _mm512_mask_blend_pd(take1, c2.big_s, c1.big_s);
        __mmask8 need = past1 & static_cast<__mmask8>(~c2.accepted);
        const __mmask8 taken = fresh & static_cast<__mmask8>(~need);
        cv = _mm512_mask_mov_pd(cv, taken, pair_v);
        cs = _mm512_mask_mov_pd(cs, taken, pair_s);
        cf = _mm512_mask_mov_pd(cf, taken, zero);
        while (need != 0) {
          Streams next_st = st;
          const Candidate c = candidate(next_st);
          st = select(need, st, next_st);
          const __mmask8 now = need & c.accepted;
          cv = _mm512_mask_mov_pd(cv, now, c.m_v);
          cs = _mm512_mask_mov_pd(cs, now, c.big_s);
          cf = _mm512_mask_mov_pd(cf, now, zero);
          need &= static_cast<__mmask8>(~c.accepted);
        }
      }
      // The scalar's shortcut holds only when s >= s_min.
      doubtful |= _mm512_mask_cmp_pd_mask(taking | fresh, cs, cutoff,
                                          _CMP_NGE_UQ);
      has_cached = static_cast<__mmask8>((has_cached & ~taking) | fresh);
    }
    doubts = _mm512_mask_add_epi64(doubts, doubtful, doubts,
                                   _mm512_set1_epi64(1));
    live &= _mm512_cmple_epu64_mask(doubts, tolerated);
    factor_left = doubtful & began_fresh;
  }
  live &= static_cast<__mmask8>(~factor_left);
  if (live == 0) return 0;

  // Scatter the settled lanes back, the cache in real units again.
  _mm512_store_si512(words[0], st.s0);
  _mm512_store_si512(words[1], st.s1);
  _mm512_store_si512(words[2], st.s2);
  _mm512_store_si512(words[3], st.s3);
  _mm512_store_pd(cached_v, _mm512_mul_pd(cv, _mm512_set1_pd(0x1.0p-52)));
  _mm512_store_pd(cached_s, _mm512_mul_pd(cs, _mm512_set1_pd(0x1.0p-104)));
  _mm512_store_pd(cached_factor, cf);
  for (std::size_t i = 0; i < n; ++i) {
    if (((live >> i) & 1u) == 0) continue;
    util::Rng::Raw raw;
    for (std::size_t w = 0; w < 4; ++w) raw.state[w] = words[w][i];
    raw.cached_v = cached_v[i];
    raw.cached_s = cached_s[i];
    raw.cached_factor = cached_factor[i];
    raw.has_cached_normal = ((has_cached >> i) & 1u) != 0;
    lanes[i].rng->set_raw(raw);
  }
  return live;
}

#undef COREDA_AVX512

}  // namespace

#endif  // COREDA_IDLE_LANES_X86

bool idle_lanes_enabled() noexcept {
#ifdef COREDA_IDLE_LANES_X86
  return g_enabled;
#else
  return false;
#endif
}

std::uint32_t settle_idle_windows(const IdleLane* lanes, std::size_t n,
                                  std::size_t count,
                                  std::size_t tolerance) noexcept {
#ifdef COREDA_IDLE_LANES_X86
  if (g_enabled && n > 0 && n <= kIdleLanes) {
    return settle_avx512(lanes, n, count, tolerance);
  }
#else
  (void)lanes;
  (void)n;
  (void)count;
  (void)tolerance;
#endif
  return 0;
}

}  // namespace coreda::sensors
