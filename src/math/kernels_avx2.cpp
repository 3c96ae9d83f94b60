// kernels_avx2.cpp — the AVX2 kernel backend, selected at
// runtime by the dispatcher in kernels.cpp (see the dispatch model in
// kernels.hpp).  This TU compiles WITHOUT global ISA flags: each function
// carries a target attribute, so the binary stays runnable on pre-AVX2
// hosts — the dispatcher only routes here after cpuid says the host can
// execute these instructions.
//
// Lane discipline (shared with the portable unrolled8 backend): term i
// feeds accumulator i mod 8 within each 8-wide block, partials combine as
// ((s0+s4)+(s1+s5)) + ((s2+s6)+(s3+s7)), scalar tail last.  The AVX2
// functions perform the exact same correctly-rounded multiply and add
// (no FMA) the unrolled8 backend performs, so the two agree bit-for-bit.
//
// avx2_pair_lanes is the exception to that lane split: it is the body of
// the default-mode pairwise kernel, where each lane is one *pair* and
// accumulates that pair's terms in ascending coordinate order — the
// scalar loop itself, so it is bit-identical to vec::dist_sq.

#include "math/kernels_isa.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

namespace dpbyz::kernels::detail {

bool cpu_has_avx2() { return __builtin_cpu_supports("avx2"); }

namespace {

__attribute__((target("avx2"))) inline double combine(__m256d acc0, __m256d acc1) {
  // acc0 lanes = (s0, s1, s2, s3), acc1 lanes = (s4, s5, s6, s7).
  const __m256d acc = _mm256_add_pd(acc0, acc1);  // (s0+s4, ..., s3+s7)
  alignas(32) double lane[4];
  _mm256_store_pd(lane, acc);
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

}  // namespace

__attribute__((target("avx2"))) double avx2_dist_sq(const double* a, const double* b,
                                                    size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d d0 = _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    const __m256d d1 =
        _mm256_sub_pd(_mm256_loadu_pd(a + i + 4), _mm256_loadu_pd(b + i + 4));
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(d0, d0));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(d1, d1));
  }
  double out = combine(acc0, acc1);
  for (; i < n; ++i) {
    const double diff = a[i] - b[i];
    out += diff * diff;
  }
  return out;
}

__attribute__((target("avx2"))) double avx2_dot(const double* a, const double* b,
                                                size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_add_pd(acc0,
                         _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
    acc1 = _mm256_add_pd(
        acc1, _mm256_mul_pd(_mm256_loadu_pd(a + i + 4), _mm256_loadu_pd(b + i + 4)));
  }
  double out = combine(acc0, acc1);
  for (; i < n; ++i) out += a[i] * b[i];
  return out;
}

__attribute__((target("avx2"))) double avx2_norm_sq(const double* a, size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d v0 = _mm256_loadu_pd(a + i);
    const __m256d v1 = _mm256_loadu_pd(a + i + 4);
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(v0, v0));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(v1, v1));
  }
  double out = combine(acc0, acc1);
  for (; i < n; ++i) out += a[i] * a[i];
  return out;
}

__attribute__((target("avx2"))) void avx2_axpy(double* a, double s, const double* b,
                                               size_t n) {
  const __m256d vs = _mm256_set1_pd(s);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_pd(a + i, _mm256_add_pd(_mm256_loadu_pd(a + i),
                                          _mm256_mul_pd(vs, _mm256_loadu_pd(b + i))));
    _mm256_storeu_pd(
        a + i + 4, _mm256_add_pd(_mm256_loadu_pd(a + i + 4),
                                 _mm256_mul_pd(vs, _mm256_loadu_pd(b + i + 4))));
  }
  for (; i < n; ++i) a[i] += s * b[i];
}

__attribute__((target("avx2"))) void avx2_scale(double* a, double s, size_t n) {
  const __m256d vs = _mm256_set1_pd(s);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_pd(a + i, _mm256_mul_pd(vs, _mm256_loadu_pd(a + i)));
    _mm256_storeu_pd(a + i + 4, _mm256_mul_pd(vs, _mm256_loadu_pd(a + i + 4)));
  }
  for (; i < n; ++i) a[i] *= s;
}

__attribute__((target("avx2"))) void avx2_dist_sq2(const double* a0, const double* a1,
                                                   const double* b, size_t n,
                                                   double& out0, double& out1) {
  // Dual destination rows over one streamed source row: per output the
  // arithmetic and lane/combine order are exactly avx2_dist_sq's, so each
  // result is bit-identical to the single-row kernel — only the memory
  // traffic on b halves.
  __m256d p0 = _mm256_setzero_pd(), p1 = _mm256_setzero_pd();
  __m256d q0 = _mm256_setzero_pd(), q1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d b0 = _mm256_loadu_pd(b + i);
    const __m256d b1 = _mm256_loadu_pd(b + i + 4);
    const __m256d d00 = _mm256_sub_pd(_mm256_loadu_pd(a0 + i), b0);
    const __m256d d01 = _mm256_sub_pd(_mm256_loadu_pd(a0 + i + 4), b1);
    const __m256d d10 = _mm256_sub_pd(_mm256_loadu_pd(a1 + i), b0);
    const __m256d d11 = _mm256_sub_pd(_mm256_loadu_pd(a1 + i + 4), b1);
    p0 = _mm256_add_pd(p0, _mm256_mul_pd(d00, d00));
    p1 = _mm256_add_pd(p1, _mm256_mul_pd(d01, d01));
    q0 = _mm256_add_pd(q0, _mm256_mul_pd(d10, d10));
    q1 = _mm256_add_pd(q1, _mm256_mul_pd(d11, d11));
  }
  double r0 = combine(p0, p1);
  double r1 = combine(q0, q1);
  for (; i < n; ++i) {
    const double e0 = a0[i] - b[i];
    const double e1 = a1[i] - b[i];
    r0 += e0 * e0;
    r1 += e1 * e1;
  }
  out0 = r0;
  out1 = r1;
}

namespace {

/// Transpose a 4-row x 4-coordinate tile: row r holds coordinates
/// k..k+3 of lane r on entry; col[c] holds coordinate k+c of lanes 0..3.
__attribute__((target("avx2"))) inline void transpose4(const double* const* a, size_t k,
                                                       __m256d col[4]) {
  const __m256d r0 = _mm256_loadu_pd(a[0] + k), r1 = _mm256_loadu_pd(a[1] + k);
  const __m256d r2 = _mm256_loadu_pd(a[2] + k), r3 = _mm256_loadu_pd(a[3] + k);
  const __m256d t0 = _mm256_unpacklo_pd(r0, r1), t1 = _mm256_unpackhi_pd(r0, r1);
  const __m256d t2 = _mm256_unpacklo_pd(r2, r3), t3 = _mm256_unpackhi_pd(r2, r3);
  col[0] = _mm256_permute2f128_pd(t0, t2, 0x20);
  col[1] = _mm256_permute2f128_pd(t1, t3, 0x20);
  col[2] = _mm256_permute2f128_pd(t0, t2, 0x31);
  col[3] = _mm256_permute2f128_pd(t1, t3, 0x31);
}

/// Coordinate k of every pair in the block: lane l of (lo|hi)[j] adds
/// (a_l[k] - b[j][k])², one broadcast per source row.
__attribute__((target("avx2"))) inline void lane_step(__m256d a_lo, __m256d a_hi,
                                                      const double* const* b, size_t k,
                                                      __m256d* lo, __m256d* hi) {
  for (size_t j = 0; j < kPairSources; ++j) {
    const __m256d bk = _mm256_broadcast_sd(b[j] + k);
    const __m256d e_lo = _mm256_sub_pd(a_lo, bk);
    const __m256d e_hi = _mm256_sub_pd(a_hi, bk);
    lo[j] = _mm256_add_pd(lo[j], _mm256_mul_pd(e_lo, e_lo));
    hi[j] = _mm256_add_pd(hi[j], _mm256_mul_pd(e_hi, e_hi));
  }
}

}  // namespace

__attribute__((target("avx2"))) void avx2_pair_lanes(const double* const* a,
                                                     const double* const* b, size_t d,
                                                     double* const* dst) {
  static_assert(kPairLanes == 8, "two 4-lane vectors per block");
  __m256d lo[kPairSources], hi[kPairSources];
  for (size_t j = 0; j < kPairSources; ++j) lo[j] = hi[j] = _mm256_setzero_pd();
  size_t k = 0;
  for (; k + 4 <= d; k += 4) {
    __m256d c_lo[4], c_hi[4];
    transpose4(a, k, c_lo);
    transpose4(a + 4, k, c_hi);
    for (size_t c = 0; c < 4; ++c) lane_step(c_lo[c], c_hi[c], b, k + c, lo, hi);
  }
  for (; k < d; ++k)
    lane_step(_mm256_set_pd(a[3][k], a[2][k], a[1][k], a[0][k]),
              _mm256_set_pd(a[7][k], a[6][k], a[5][k], a[4][k]), b, k, lo, hi);
  for (size_t j = 0; j < kPairSources; ++j) {
    _mm256_storeu_pd(dst[j], lo[j]);
    _mm256_storeu_pd(dst[j] + 4, hi[j]);
  }
}

}  // namespace dpbyz::kernels::detail

#else  // non-x86: probes report false, so these bodies are unreachable.

namespace dpbyz::kernels::detail {

bool cpu_has_avx2() { return false; }

double avx2_dist_sq(const double*, const double*, size_t) { return 0.0; }
double avx2_dot(const double*, const double*, size_t) { return 0.0; }
double avx2_norm_sq(const double*, size_t) { return 0.0; }
void avx2_axpy(double*, double, const double*, size_t) {}
void avx2_scale(double*, double, size_t) {}
void avx2_dist_sq2(const double*, const double*, const double*, size_t, double& o0,
                   double& o1) {
  o0 = o1 = 0.0;
}
void avx2_pair_lanes(const double* const*, const double* const*, size_t, double* const*) {}

}  // namespace dpbyz::kernels::detail

#endif
