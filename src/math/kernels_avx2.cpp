// kernels_avx2.cpp — the AVX2 body of the pairwise block, selected at
// runtime by the dispatcher in kernels.cpp (see the dispatch model in
// kernels.hpp).  This TU compiles WITHOUT global ISA flags: each function
// carries a target attribute, so the binary stays runnable on pre-AVX2
// hosts — the dispatcher only routes here after cpuid says the host can
// execute these instructions.
//
// Each lane is one *pair* and accumulates that pair's terms in ascending
// coordinate order with a separate multiply and add (no FMA) — the
// scalar loop itself, so the block is bit-identical to vec::dist_sq.

#include "math/kernels_isa.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

namespace dpbyz::kernels::detail {

bool cpu_has_avx2() { return __builtin_cpu_supports("avx2"); }

bool cpu_has_avx512() {
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq");
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

#else  // non-x86: the probe reports false, so this body is unreachable.

namespace dpbyz::kernels::detail {

bool cpu_has_avx2() { return false; }

bool cpu_has_avx512() { return false; }

void avx2_pair_lanes(const double* const*, const double* const*, size_t, double* const*) {}

}  // namespace dpbyz::kernels::detail

#endif
