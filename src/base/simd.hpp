#pragma once
// Portable fixed-width SIMD layer: one 4-lane double vector type
// (simd::Vec4d) with compile-time dispatch to AVX2+FMA, SSE2, NEON or a
// plain-scalar fallback. Every backend implements the same operations with
// the same lane semantics, so a kernel written against Vec4d compiles on
// all four paths and CI can run the full test suite on each.
//
// Determinism contract (see docs/PERFORMANCE.md):
//  * Within one build configuration the kernels built on this layer are
//    bit-deterministic: lane order is fixed, horizontal reductions are
//    ordered (((l0+l1)+l2)+l3), and nothing here depends on thread count.
//  * Across build configurations (scalar vs SSE2 vs AVX2) results may
//    differ in the last bits — fma() fuses only where the hardware does,
//    and exp4() is an approximation — but every kernel pair is property-
//    tested to agree to <= 1e-12 relative (tests/simd_test.cpp).
//
// exp4() is a Cephes-style exp: Cody-Waite range reduction, a degree-2/3
// Pade approximant, exponent reassembly by integer bit manipulation. Its
// relative error is bounded by kExpMaxRelError (~2 ulp; unit-tested), and
// the input is clamped to [-700, 700] so extreme arguments saturate to
// exp(+/-700) instead of producing inf/NaN — the wirelength kernels only
// ever pass max-shifted (<= 0) exponents, where saturation at ~1e-304 is
// indistinguishable from the underflow-to-zero of std::exp at 1e-12.
//
// Compile-time kill switch: -DAPLACE_SIMD=OFF (CMake) defines
// APLACE_SIMD_DISABLED and forces the scalar backend everywhere. Runtime
// default: simd::default_enabled() is true unless set_default_enabled(false)
// was called; each kernel engine reads it once, when it is constructed.

#include <atomic>
#include <cstdint>
#include <cstring>
#include <cmath>

#include "base/aligned.hpp"

#if !defined(APLACE_SIMD_DISABLED)
#if defined(__AVX2__) && defined(__FMA__)
#define APLACE_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(__SSE2__) || defined(_M_X64)
#define APLACE_SIMD_SSE2 1
#include <emmintrin.h>
#elif defined(__aarch64__)
#define APLACE_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif  // !APLACE_SIMD_DISABLED

namespace aplace::simd {

inline constexpr std::size_t kLanes = 4;

/// Name of the compiled-in backend (build metadata, bench labels).
[[nodiscard]] constexpr const char* dispatch_name() {
#if defined(APLACE_SIMD_AVX2)
  return "avx2";
#elif defined(APLACE_SIMD_SSE2)
  return "sse2";
#elif defined(APLACE_SIMD_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

/// True when a vector backend (not the scalar fallback) is compiled in.
[[nodiscard]] constexpr bool compiled_vector() {
#if defined(APLACE_SIMD_AVX2) || defined(APLACE_SIMD_SSE2) || \
    defined(APLACE_SIMD_NEON)
  return true;
#else
  return false;
#endif
}

namespace detail {
inline std::atomic<bool>& default_flag() {
  static std::atomic<bool> flag{true};
  return flag;
}

// Bit masks for Vec4d::keep_first: row n keeps lanes [0, n). Kept as a
// table so masking is one aligned load + AND (a store/reload round-trip
// here shows up as a store-forwarding stall in the per-net tail blocks).
alignas(32) inline constexpr std::uint64_t kKeepMask[5][4] = {
    {0, 0, 0, 0},
    {~0ull, 0, 0, 0},
    {~0ull, ~0ull, 0, 0},
    {~0ull, ~0ull, ~0ull, 0},
    {~0ull, ~0ull, ~0ull, ~0ull},
};
}  // namespace detail

/// Runtime default for the kernels' SIMD paths: true unless
/// set_default_enabled(false) was called. Engines sample this once, when
/// they are constructed.
[[nodiscard]] inline bool default_enabled() {
  return detail::default_flag().load(std::memory_order_relaxed);
}

/// Override the process-wide default (tests pinning one path, e.g. the
/// golden-quality regression runs the scalar reference on every build).
inline void set_default_enabled(bool on) {
  detail::default_flag().store(on, std::memory_order_relaxed);
}

struct Vec4d {
#if defined(APLACE_SIMD_AVX2)
  __m256d v;
#elif defined(APLACE_SIMD_SSE2)
  __m128d lo, hi;
#elif defined(APLACE_SIMD_NEON)
  float64x2_t lo, hi;
#else
  double d[4];
#endif

  // ---- construction / memory ----------------------------------------------

  [[nodiscard]] static Vec4d zero() { return broadcast(0.0); }

  [[nodiscard]] static Vec4d broadcast(double x) {
#if defined(APLACE_SIMD_AVX2)
    return {_mm256_set1_pd(x)};
#elif defined(APLACE_SIMD_SSE2)
    return {_mm_set1_pd(x), _mm_set1_pd(x)};
#elif defined(APLACE_SIMD_NEON)
    return {vdupq_n_f64(x), vdupq_n_f64(x)};
#else
    return {{x, x, x, x}};
#endif
  }

  [[nodiscard]] static Vec4d set(double a, double b, double c, double d) {
#if defined(APLACE_SIMD_AVX2)
    return {_mm256_setr_pd(a, b, c, d)};
#elif defined(APLACE_SIMD_SSE2)
    return {_mm_setr_pd(a, b), _mm_setr_pd(c, d)};
#elif defined(APLACE_SIMD_NEON)
    const double lo2[2] = {a, b}, hi2[2] = {c, d};
    return {vld1q_f64(lo2), vld1q_f64(hi2)};
#else
    return {{a, b, c, d}};
#endif
  }

  /// Aligned load (p must be 32-byte aligned; AlignedVec storage is).
  [[nodiscard]] static Vec4d load(const double* p) {
#if defined(APLACE_SIMD_AVX2)
    return {_mm256_load_pd(p)};
#elif defined(APLACE_SIMD_SSE2)
    return {_mm_load_pd(p), _mm_load_pd(p + 2)};
#elif defined(APLACE_SIMD_NEON)
    return {vld1q_f64(p), vld1q_f64(p + 2)};
#else
    return {{p[0], p[1], p[2], p[3]}};
#endif
  }

  [[nodiscard]] static Vec4d loadu(const double* p) {
#if defined(APLACE_SIMD_AVX2)
    return {_mm256_loadu_pd(p)};
#elif defined(APLACE_SIMD_SSE2)
    return {_mm_loadu_pd(p), _mm_loadu_pd(p + 2)};
#else
    return load(p);  // NEON/scalar loads carry no alignment requirement
#endif
  }

  /// Masked load: lanes [0, n) from p, lanes [n, 4) zero. n in [0, 4].
  [[nodiscard]] static Vec4d load_partial(const double* p, std::size_t n) {
    double tmp[4] = {0, 0, 0, 0};
    for (std::size_t i = 0; i < (n < 4 ? n : 4); ++i) tmp[i] = p[i];
    return loadu(tmp);
  }

  /// Lane-wise gather through a 32-bit index table (v[idx[0..3]]).
  [[nodiscard]] static Vec4d gather(const double* base,
                                    const std::uint32_t* idx) {
    return set(base[idx[0]], base[idx[1]], base[idx[2]], base[idx[3]]);
  }

  void store(double* p) const {
#if defined(APLACE_SIMD_AVX2)
    _mm256_store_pd(p, v);
#elif defined(APLACE_SIMD_SSE2)
    _mm_store_pd(p, lo);
    _mm_store_pd(p + 2, hi);
#elif defined(APLACE_SIMD_NEON)
    vst1q_f64(p, lo);
    vst1q_f64(p + 2, hi);
#else
    p[0] = d[0];
    p[1] = d[1];
    p[2] = d[2];
    p[3] = d[3];
#endif
  }

  void storeu(double* p) const {
#if defined(APLACE_SIMD_AVX2)
    _mm256_storeu_pd(p, v);
#elif defined(APLACE_SIMD_SSE2)
    _mm_storeu_pd(p, lo);
    _mm_storeu_pd(p + 2, hi);
#else
    store(p);
#endif
  }

  /// Masked store: lanes [0, n) to p, the rest untouched. n in [0, 4].
  void store_partial(double* p, std::size_t n) const {
    double tmp[4];
    storeu(tmp);
    for (std::size_t i = 0; i < (n < 4 ? n : 4); ++i) p[i] = tmp[i];
  }

  /// Scatter-accumulate lanes [0, n) in lane order: base[idx[i]] += lane i.
  /// Sequential, so duplicate indices accumulate deterministically.
  void scatter_add(double* base, const std::uint32_t* idx,
                   std::size_t n) const {
    double tmp[4];
    storeu(tmp);
    for (std::size_t i = 0; i < (n < 4 ? n : 4); ++i) base[idx[i]] += tmp[i];
  }

  [[nodiscard]] double lane(std::size_t i) const {
    double tmp[4];
    storeu(tmp);
    return tmp[i];
  }

  // ---- arithmetic ----------------------------------------------------------

  friend Vec4d operator+(Vec4d a, Vec4d b) {
#if defined(APLACE_SIMD_AVX2)
    return {_mm256_add_pd(a.v, b.v)};
#elif defined(APLACE_SIMD_SSE2)
    return {_mm_add_pd(a.lo, b.lo), _mm_add_pd(a.hi, b.hi)};
#elif defined(APLACE_SIMD_NEON)
    return {vaddq_f64(a.lo, b.lo), vaddq_f64(a.hi, b.hi)};
#else
    return {{a.d[0] + b.d[0], a.d[1] + b.d[1], a.d[2] + b.d[2],
             a.d[3] + b.d[3]}};
#endif
  }

  friend Vec4d operator-(Vec4d a, Vec4d b) {
#if defined(APLACE_SIMD_AVX2)
    return {_mm256_sub_pd(a.v, b.v)};
#elif defined(APLACE_SIMD_SSE2)
    return {_mm_sub_pd(a.lo, b.lo), _mm_sub_pd(a.hi, b.hi)};
#elif defined(APLACE_SIMD_NEON)
    return {vsubq_f64(a.lo, b.lo), vsubq_f64(a.hi, b.hi)};
#else
    return {{a.d[0] - b.d[0], a.d[1] - b.d[1], a.d[2] - b.d[2],
             a.d[3] - b.d[3]}};
#endif
  }

  friend Vec4d operator*(Vec4d a, Vec4d b) {
#if defined(APLACE_SIMD_AVX2)
    return {_mm256_mul_pd(a.v, b.v)};
#elif defined(APLACE_SIMD_SSE2)
    return {_mm_mul_pd(a.lo, b.lo), _mm_mul_pd(a.hi, b.hi)};
#elif defined(APLACE_SIMD_NEON)
    return {vmulq_f64(a.lo, b.lo), vmulq_f64(a.hi, b.hi)};
#else
    return {{a.d[0] * b.d[0], a.d[1] * b.d[1], a.d[2] * b.d[2],
             a.d[3] * b.d[3]}};
#endif
  }

  friend Vec4d operator/(Vec4d a, Vec4d b) {
#if defined(APLACE_SIMD_AVX2)
    return {_mm256_div_pd(a.v, b.v)};
#elif defined(APLACE_SIMD_SSE2)
    return {_mm_div_pd(a.lo, b.lo), _mm_div_pd(a.hi, b.hi)};
#elif defined(APLACE_SIMD_NEON)
    return {vdivq_f64(a.lo, b.lo), vdivq_f64(a.hi, b.hi)};
#else
    return {{a.d[0] / b.d[0], a.d[1] / b.d[1], a.d[2] / b.d[2],
             a.d[3] / b.d[3]}};
#endif
  }

  /// a * b + c. Fused (single rounding) on AVX2/NEON; mul+add (two
  /// roundings) on SSE2 and the scalar fallback — a documented cross-build
  /// difference inside the 1e-12 contract.
  [[nodiscard]] static Vec4d fma(Vec4d a, Vec4d b, Vec4d c) {
#if defined(APLACE_SIMD_AVX2)
    return {_mm256_fmadd_pd(a.v, b.v, c.v)};
#elif defined(APLACE_SIMD_NEON)
    return {vfmaq_f64(c.lo, a.lo, b.lo), vfmaq_f64(c.hi, a.hi, b.hi)};
#else
    return a * b + c;
#endif
  }

  [[nodiscard]] static Vec4d min(Vec4d a, Vec4d b) {
#if defined(APLACE_SIMD_AVX2)
    return {_mm256_min_pd(a.v, b.v)};
#elif defined(APLACE_SIMD_SSE2)
    return {_mm_min_pd(a.lo, b.lo), _mm_min_pd(a.hi, b.hi)};
#elif defined(APLACE_SIMD_NEON)
    return {vminq_f64(a.lo, b.lo), vminq_f64(a.hi, b.hi)};
#else
    return {{a.d[0] < b.d[0] ? a.d[0] : b.d[0],
             a.d[1] < b.d[1] ? a.d[1] : b.d[1],
             a.d[2] < b.d[2] ? a.d[2] : b.d[2],
             a.d[3] < b.d[3] ? a.d[3] : b.d[3]}};
#endif
  }

  [[nodiscard]] static Vec4d max(Vec4d a, Vec4d b) {
#if defined(APLACE_SIMD_AVX2)
    return {_mm256_max_pd(a.v, b.v)};
#elif defined(APLACE_SIMD_SSE2)
    return {_mm_max_pd(a.lo, b.lo), _mm_max_pd(a.hi, b.hi)};
#elif defined(APLACE_SIMD_NEON)
    return {vmaxq_f64(a.lo, b.lo), vmaxq_f64(a.hi, b.hi)};
#else
    return {{a.d[0] > b.d[0] ? a.d[0] : b.d[0],
             a.d[1] > b.d[1] ? a.d[1] : b.d[1],
             a.d[2] > b.d[2] ? a.d[2] : b.d[2],
             a.d[3] > b.d[3] ? a.d[3] : b.d[3]}};
#endif
  }

  /// Round each lane to the nearest integer, ties to even (the one rounding
  /// mode every backend implements identically).
  [[nodiscard]] static Vec4d round_nearest(Vec4d a) {
#if defined(APLACE_SIMD_AVX2)
    return {_mm256_round_pd(a.v,
                            _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC)};
#elif defined(APLACE_SIMD_SSE2)
    // SSE2 has no round_pd; cvtpd_epi32 rounds to nearest-even and the
    // exp4 domain keeps |n| < 2^31, so the int32 round trip is exact.
    return {_mm_cvtepi32_pd(_mm_cvtpd_epi32(a.lo)),
            _mm_cvtepi32_pd(_mm_cvtpd_epi32(a.hi))};
#elif defined(APLACE_SIMD_NEON)
    return {vrndnq_f64(a.lo), vrndnq_f64(a.hi)};
#else
    return {{std::nearbyint(a.d[0]), std::nearbyint(a.d[1]),
             std::nearbyint(a.d[2]), std::nearbyint(a.d[3])}};
#endif
  }

  /// Lane reversal: (l0, l1, l2, l3) -> (l3, l2, l1, l0). Used for the
  /// reversed-index loads of the DCT-III/DST-III twiddle loops.
  [[nodiscard]] Vec4d reverse() const {
#if defined(APLACE_SIMD_AVX2)
    return {_mm256_permute4x64_pd(v, _MM_SHUFFLE(0, 1, 2, 3))};
#elif defined(APLACE_SIMD_SSE2)
    return {_mm_shuffle_pd(hi, hi, 1), _mm_shuffle_pd(lo, lo, 1)};
#elif defined(APLACE_SIMD_NEON)
    return {vextq_f64(hi, hi, 1), vextq_f64(lo, lo, 1)};
#else
    return {{d[3], d[2], d[1], d[0]}};
#endif
  }

  /// Masked tail: keep lanes [0, n), zero lanes [n, 4). Bitwise (AND with a
  /// mask-table row), so it is exact for every value including inf/NaN.
  [[nodiscard]] Vec4d keep_first(std::size_t n) const {
    if (n >= 4) return *this;
#if defined(APLACE_SIMD_AVX2)
    const __m256i m = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(detail::kKeepMask[n]));
    return {_mm256_and_pd(v, _mm256_castsi256_pd(m))};
#elif defined(APLACE_SIMD_SSE2)
    const __m128i mlo = _mm_load_si128(
        reinterpret_cast<const __m128i*>(detail::kKeepMask[n]));
    const __m128i mhi = _mm_load_si128(
        reinterpret_cast<const __m128i*>(detail::kKeepMask[n] + 2));
    return {_mm_and_pd(lo, _mm_castsi128_pd(mlo)),
            _mm_and_pd(hi, _mm_castsi128_pd(mhi))};
#elif defined(APLACE_SIMD_NEON)
    return {vreinterpretq_f64_u64(
                vandq_u64(vreinterpretq_u64_f64(lo),
                          vld1q_u64(detail::kKeepMask[n]))),
            vreinterpretq_f64_u64(
                vandq_u64(vreinterpretq_u64_f64(hi),
                          vld1q_u64(detail::kKeepMask[n] + 2)))};
#else
    Vec4d r = *this;
    for (std::size_t i = n; i < 4; ++i) r.d[i] = 0.0;
    return r;
#endif
  }
};

// ---- reductions -------------------------------------------------------------

/// Ordered horizontal sum (((l0 + l1) + l2) + l3): the one association every
/// backend uses, so reductions are reproducible across scalar/vector builds.
[[nodiscard]] inline double hsum_ordered(Vec4d a) {
  double tmp[4];
  a.storeu(tmp);
  return ((tmp[0] + tmp[1]) + tmp[2]) + tmp[3];
}

[[nodiscard]] inline double hmax(Vec4d a) {
#if defined(APLACE_SIMD_AVX2)
  const __m128d m2 = _mm_max_pd(_mm256_castpd256_pd128(a.v),
                                _mm256_extractf128_pd(a.v, 1));
  return _mm_cvtsd_f64(_mm_max_sd(m2, _mm_unpackhi_pd(m2, m2)));
#elif defined(APLACE_SIMD_SSE2)
  const __m128d m2 = _mm_max_pd(a.lo, a.hi);
  return _mm_cvtsd_f64(_mm_max_sd(m2, _mm_unpackhi_pd(m2, m2)));
#elif defined(APLACE_SIMD_NEON)
  return vmaxvq_f64(vmaxq_f64(a.lo, a.hi));
#else
  double m = a.d[0];
  for (int i = 1; i < 4; ++i) m = a.d[i] > m ? a.d[i] : m;
  return m;
#endif
}

[[nodiscard]] inline double hmin(Vec4d a) {
#if defined(APLACE_SIMD_AVX2)
  const __m128d m2 = _mm_min_pd(_mm256_castpd256_pd128(a.v),
                                _mm256_extractf128_pd(a.v, 1));
  return _mm_cvtsd_f64(_mm_min_sd(m2, _mm_unpackhi_pd(m2, m2)));
#elif defined(APLACE_SIMD_SSE2)
  const __m128d m2 = _mm_min_pd(a.lo, a.hi);
  return _mm_cvtsd_f64(_mm_min_sd(m2, _mm_unpackhi_pd(m2, m2)));
#elif defined(APLACE_SIMD_NEON)
  return vminvq_f64(vminq_f64(a.lo, a.hi));
#else
  double m = a.d[0];
  for (int i = 1; i < 4; ++i) m = a.d[i] < m ? a.d[i] : m;
  return m;
#endif
}

/// Four horizontal sums at once: {sum(a), sum(b), sum(c), sum(d)}. Uses a
/// pairwise association (deterministic per build, but backend-specific and
/// different from hsum_ordered's left-to-right chain), so use it only where
/// the 1e-12 cross-dispatch contract — not bit-identity — is required. The
/// shuffle tree keeps all four reductions in registers and pipelines them,
/// unlike four serial hsum_ordered chains.
[[nodiscard]] inline Vec4d hsum4(Vec4d a, Vec4d b, Vec4d c, Vec4d d) {
  Vec4d r;
#if defined(APLACE_SIMD_AVX2)
  const __m256d t0 = _mm256_hadd_pd(a.v, b.v);  // {a0+a1, b0+b1, a2+a3, b2+b3}
  const __m256d t1 = _mm256_hadd_pd(c.v, d.v);
  const __m256d lo = _mm256_permute2f128_pd(t0, t1, 0x20);
  const __m256d hi = _mm256_permute2f128_pd(t0, t1, 0x31);
  r.v = _mm256_add_pd(lo, hi);  // (l0+l1) + (l2+l3)
#elif defined(APLACE_SIMD_SSE2)
  const __m128d sa = _mm_add_pd(a.lo, a.hi);  // {a0+a2, a1+a3}
  const __m128d sb = _mm_add_pd(b.lo, b.hi);
  const __m128d sc = _mm_add_pd(c.lo, c.hi);
  const __m128d sd = _mm_add_pd(d.lo, d.hi);
  r.lo = _mm_add_pd(_mm_unpacklo_pd(sa, sb), _mm_unpackhi_pd(sa, sb));
  r.hi = _mm_add_pd(_mm_unpacklo_pd(sc, sd), _mm_unpackhi_pd(sc, sd));
#elif defined(APLACE_SIMD_NEON)
  const float64x2_t sa = vaddq_f64(a.lo, a.hi);  // {a0+a2, a1+a3}
  const float64x2_t sb = vaddq_f64(b.lo, b.hi);
  const float64x2_t sc = vaddq_f64(c.lo, c.hi);
  const float64x2_t sd = vaddq_f64(d.lo, d.hi);
  r.lo = vpaddq_f64(sa, sb);
  r.hi = vpaddq_f64(sc, sd);
#else
  r.d[0] = (a.d[0] + a.d[2]) + (a.d[1] + a.d[3]);
  r.d[1] = (b.d[0] + b.d[2]) + (b.d[1] + b.d[3]);
  r.d[2] = (c.d[0] + c.d[2]) + (c.d[1] + c.d[3]);
  r.d[3] = (d.d[0] + d.d[2]) + (d.d[1] + d.d[3]);
#endif
  return r;
}

/// Zero the pad lanes [n, n4) of a padded4-sized scratch buffer so full-
/// width accumulation loops see exact-zero contributions from the tail.
inline void zero_tail(double* p, std::size_t n, std::size_t n4) {
  for (std::size_t i = n; i < n4; ++i) p[i] = 0.0;
}

// ---- exp4 -------------------------------------------------------------------

/// Documented accuracy bound of exp4 vs. a correctly rounded exp, relative
/// (unit-tested over the full clamped domain).
inline constexpr double kExpMaxRelError = 5e-15;
/// exp4 input clamp: arguments outside [-700, 700] saturate.
inline constexpr double kExpClamp = 700.0;

namespace detail {

// Cephes exp() constants (degree-2/3 Pade of exp on [-ln2/2, ln2/2]).
inline constexpr double kLog2E = 1.4426950408889634073599;
inline constexpr double kLn2Hi = 6.93145751953125e-1;
inline constexpr double kLn2Lo = 1.42860682030941723212e-6;
inline constexpr double kExpP0 = 1.26177193074810590878e-4;
inline constexpr double kExpP1 = 3.02994407707441961300e-2;
inline constexpr double kExpP2 = 9.99999999999999999910e-1;
inline constexpr double kExpQ0 = 3.00198505138664455042e-6;
inline constexpr double kExpQ1 = 2.52448340349684104192e-3;
inline constexpr double kExpQ2 = 2.27265548208155028766e-1;
inline constexpr double kExpQ3 = 2.00000000000000000005e0;

/// 2^n for lanes holding integral n in [-1010, 1010], by exponent-field
/// assembly. AVX2/SSE2 stay in registers (n + 1023 is a small positive
/// int32, so the SSE2 path zero-extends with unpacklo); NEON/scalar go
/// lane-wise (the surrounding polynomial dominates there).
[[nodiscard]] inline Vec4d pow2_int(Vec4d n) {
#if defined(APLACE_SIMD_AVX2)
  const __m128i n32 = _mm256_cvtpd_epi32(n.v);
  const __m256i n64 = _mm256_cvtepi32_epi64(n32);
  const __m256i bits =
      _mm256_slli_epi64(_mm256_add_epi64(n64, _mm256_set1_epi64x(1023)), 52);
  return {_mm256_castsi256_pd(bits)};
#elif defined(APLACE_SIMD_SSE2)
  const __m128i zero = _mm_setzero_si128();
  const __m128i bias = _mm_set1_epi32(1023);
  const __m128i mlo = _mm_add_epi32(_mm_cvtpd_epi32(n.lo), bias);
  const __m128i mhi = _mm_add_epi32(_mm_cvtpd_epi32(n.hi), bias);
  return {_mm_castsi128_pd(_mm_slli_epi64(_mm_unpacklo_epi32(mlo, zero), 52)),
          _mm_castsi128_pd(_mm_slli_epi64(_mm_unpacklo_epi32(mhi, zero), 52))};
#else
  double tmp[4];
  n.storeu(tmp);
  for (double& x : tmp) {
    const std::uint64_t bits =
        (static_cast<std::uint64_t>(static_cast<std::int64_t>(x) + 1023))
        << 52;
    std::memcpy(&x, &bits, sizeof x);
  }
  return Vec4d::loadu(tmp);
#endif
}

}  // namespace detail

/// Vectorized exp, identical algorithm on every backend: clamp to
/// [-kExpClamp, kExpClamp], n = round-to-nearest-even(x log2 e), Cody-Waite
/// reduction r = x - n ln2, Pade exp(r) = 1 + 2 r P(r^2)/(Q(r^2)-r P(r^2)),
/// scale by 2^n. Max relative error kExpMaxRelError; never inf/NaN for
/// finite input.
[[nodiscard]] inline Vec4d exp4(Vec4d x) {
  using namespace detail;
  x = Vec4d::min(Vec4d::max(x, Vec4d::broadcast(-kExpClamp)),
                 Vec4d::broadcast(kExpClamp));
  const Vec4d n = Vec4d::round_nearest(x * Vec4d::broadcast(kLog2E));
  Vec4d r = Vec4d::fma(n, Vec4d::broadcast(-kLn2Hi), x);
  r = Vec4d::fma(n, Vec4d::broadcast(-kLn2Lo), r);
  const Vec4d rr = r * r;
  Vec4d px = Vec4d::fma(Vec4d::broadcast(kExpP0), rr,
                        Vec4d::broadcast(kExpP1));
  px = Vec4d::fma(px, rr, Vec4d::broadcast(kExpP2));
  px = px * r;
  Vec4d qx = Vec4d::fma(Vec4d::broadcast(kExpQ0), rr,
                        Vec4d::broadcast(kExpQ1));
  qx = Vec4d::fma(qx, rr, Vec4d::broadcast(kExpQ2));
  qx = Vec4d::fma(qx, rr, Vec4d::broadcast(kExpQ3));
  const Vec4d e =
      Vec4d::broadcast(1.0) + (px + px) / (qx - px);
  return e * detail::pow2_int(n);
}

}  // namespace aplace::simd
