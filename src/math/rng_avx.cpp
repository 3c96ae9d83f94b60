// rng_avx.cpp — the AVX2 and AVX-512 bodies of Rng::add_normal's noise
// kernel, picked at runtime by cpuid (Rng::add_normal).  Like
// kernels_avx2.cpp, this TU compiles WITHOUT global ISA flags: each ISA
// function carries a target attribute, so the binary stays runnable on
// hosts without them.
//
// Both bodies make the draws of detail::add_normal_portable (see there
// for the polar method they follow), output bit for bit and engine word
// for engine word.  Per chunk of at most kChunk coordinates they
//   1. twist the state in vector lanes once the block is used up;
//   2. read the block W word pairs at a time (W = 4 for AVX2, 8 for
//      AVX-512): deinterleave the x and y words, temper and convert them
//      to canonical doubles in lanes, and form y and r² = x² + y²;
//   3. compact the accepted pairs (0 < r² <= 1) in order — a movemask
//      and a 16-entry permutation table for AVX2, vcompresspd for
//      AVX-512 — stopping at exactly the last coordinate wanted, so the
//      index advances by exactly the pairs used;
//   4. take std::log of each kept r², scalar and in order;
//   5. run one vector pass out = base + (y·sqrt(−2·log r² / r²))·s + 0.0.
// Every step is a correctly rounded IEEE operation in the scalar draw's
// order.  The library builds with -ffp-contract=off, so no multiply and
// add are fused into one rounding (the AVX-512 target implies FMA).

#include "math/rng.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cmath>

namespace dpbyz::detail {
namespace {

/// Coordinates per chunk: the log and output passes run over at most
/// this many kept pairs.
constexpr size_t kChunk = 128;

/// What a compaction pass took from the block.
struct Compacted {
  size_t used;  // word pairs consumed
  size_t kept;  // accepted pairs stored
};

/// The pairs of a group consumed up to and including its need-th
/// accepted pair, given the group's acceptance bits (need >= 1, and
/// `mask` has at least need bits set).
inline size_t pairs_through(unsigned mask, size_t need) {
  for (size_t k = 1; k < need; ++k) mask &= mask - 1;
  return static_cast<size_t>(std::countr_zero(mask)) + 1;
}

/// The chunk loop both bodies share.  `Isa` supplies the vector steps:
/// twist(state), compact(...) over whole groups of Isa::kPairs pairs,
/// and finish(...), the output pass.  The block's last pairs, fewer than
/// a group, take the scalar step; a pair straddling the block (index
/// 311) takes the reference body, which twists mid-pair as the std
/// engine does.
template <class Isa>
void add_normal_chunks(Mt64& engine, std::span<const double> base, double stddev,
                       std::span<double> out) {
  // Isa::kPairs of slack: the compaction stores whole vectors at `kept`.
  // Left unzeroed (a memset per call would cost ~10% at d = 69): the log
  // and output passes read only the first `kept` entries, all written.
  double acc_y[kChunk + Isa::kPairs], acc_r2[kChunk + Isa::kPairs], logs[kChunk];
  const size_t d = out.size();
  size_t i = 0;
  while (i < d) {
    if (engine.index >= Mt64::kStateWords) {
      Isa::twist(engine.state);
      engine.index = 0;
    }
    const size_t pairs = (Mt64::kStateWords - engine.index) / 2;
    if (pairs == 0) {
      add_normal_portable(engine, base.subspan(i, 1), stddev, out.subspan(i, 1));
      ++i;
      continue;
    }
    const uint64_t* words = engine.state + engine.index;
    const size_t want = std::min(d - i, kChunk);
    auto [used, kept] = Isa::compact(words, pairs, want, acc_y, acc_r2);
    for (; used < pairs && kept < want; ++used) {
      const double x = 2.0 * canonical_from_word(Mt64::temper(words[2 * used])) - 1.0;
      const double y = 2.0 * canonical_from_word(Mt64::temper(words[2 * used + 1])) - 1.0;
      const double r2 = x * x + y * y;
      acc_y[kept] = y;
      acc_r2[kept] = r2;
      kept += (r2 <= 1.0) & (r2 != 0.0);
    }
    engine.index += 2 * used;
    for (size_t k = 0; k < kept; ++k) logs[k] = std::log(acc_r2[k]);
    Isa::finish(base.data() + i, acc_y, acc_r2, logs, stddev, out.data() + i, kept);
    i += kept;
  }
}

// ---- AVX2: four pairs per group -----------------------------------------------

#define DPBYZ_AVX2 __attribute__((target("avx2")))

DPBYZ_AVX2 inline __m256i set4(uint64_t v) {
  return _mm256_set1_epi64x(static_cast<long long>(v));
}

DPBYZ_AVX2 inline __m256i load4(const uint64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

DPBYZ_AVX2 inline __m128i load2(const uint64_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Mt64::mix of four consecutive words, stored over them.
DPBYZ_AVX2 inline void mix4(uint64_t* word, const uint64_t* far) {
  const __m256i upper = set4(Mt64::kUpperMask);
  const __m256i y = _mm256_or_si256(_mm256_and_si256(load4(word), upper),
                                    _mm256_andnot_si256(upper, load4(word + 1)));
  const __m256i odd = _mm256_sub_epi64(_mm256_setzero_si256(), _mm256_and_si256(y, set4(1)));
  const __m256i mixed = _mm256_xor_si256(_mm256_xor_si256(load4(far), _mm256_srli_epi64(y, 1)),
                                         _mm256_and_si256(odd, set4(Mt64::kMatrix)));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(word), mixed);
}

/// 2·canonical_from_word(Mt64::temper(z)) − 1 in lanes.
DPBYZ_AVX2 inline __m256d unit4(__m256i z) {
  z = _mm256_xor_si256(z, _mm256_and_si256(_mm256_srli_epi64(z, 29), set4(0x5555555555555555ULL)));
  z = _mm256_xor_si256(z, _mm256_and_si256(_mm256_slli_epi64(z, 17), set4(0x71d67fffeda60000ULL)));
  z = _mm256_xor_si256(z, _mm256_and_si256(_mm256_slli_epi64(z, 37), set4(0xfff7eee000000000ULL)));
  z = _mm256_xor_si256(z, _mm256_srli_epi64(z, 43));
  const __m256i two52 = set4(0x4330000000000000ULL);
  const __m256d bias = _mm256_set1_pd(0x1p52);
  const __m256d hi = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(_mm256_srli_epi64(z, 32), two52)), bias);
  const __m256d lo =
      _mm256_sub_pd(_mm256_castsi256_pd(_mm256_blend_epi32(z, two52, 0xaa)), bias);
  const __m256i bits = _mm256_castpd_si256(_mm256_mul_pd(
      _mm256_add_pd(_mm256_mul_pd(hi, _mm256_set1_pd(0x1p32)), lo), _mm256_set1_pd(0x1p-64)));
  const __m256i clamp =
      _mm256_srli_epi64(_mm256_add_epi64(_mm256_srli_epi64(bits, 52), set4(1)), 10);
  const __m256d c = _mm256_castsi256_pd(_mm256_sub_epi64(bits, clamp));
  return _mm256_sub_pd(_mm256_mul_pd(_mm256_set1_pd(2.0), c), _mm256_set1_pd(1.0));
}

/// Row m holds the 32-bit lane indices that move the doubles whose bits
/// are set in m, in order, to the front of a vector.
struct CompressTable {
  int32_t lanes[16][8];
};

constexpr CompressTable make_compress_table() {
  CompressTable t{};
  for (unsigned m = 0; m < 16; ++m) {
    int kept = 0;
    for (int j = 0; j < 4; ++j) {
      if (!((m >> j) & 1)) continue;
      t.lanes[m][2 * kept] = 2 * j;
      t.lanes[m][2 * kept + 1] = 2 * j + 1;
      ++kept;
    }
  }
  return t;
}

constexpr CompressTable kCompress = make_compress_table();

/// The doubles of v whose bits are set in `ok`, in order, at the front.
DPBYZ_AVX2 inline __m256d packed4(__m256d v, unsigned ok) {
  const __m256i perm = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(kCompress.lanes[ok]));
  return _mm256_castps_pd(_mm256_permutevar8x32_ps(_mm256_castpd_ps(v), perm));
}

struct Avx2 {
  static constexpr size_t kPairs = 4;

  static DPBYZ_AVX2 void twist(uint64_t* s) {
    // Mt64::twist's two loops, each in whole vectors and then words.
    constexpr size_t kN = Mt64::kStateWords, kM = Mt64::kShift;
    constexpr size_t kHead = (kN - kM) / 4 * 4, kTail = kN - kM + (kM - 1) / 4 * 4;
    for (size_t k = 0; k < kHead; k += 4) mix4(s + k, s + (k + kM));
    for (size_t k = kHead; k < kN - kM; ++k) s[k] = Mt64::mix(s[k], s[k + 1], s[k + kM]);
    for (size_t k = kN - kM; k < kTail; k += 4) mix4(s + k, s + (k + kM - kN));
    for (size_t k = kTail; k < kN - 1; ++k) s[k] = Mt64::mix(s[k], s[k + 1], s[k + kM - kN]);
    s[kN - 1] = Mt64::mix(s[kN - 1], s[0], s[kM - 1]);
  }

  static DPBYZ_AVX2 Compacted compact(const uint64_t* words, size_t pairs, size_t want,
                                      double* acc_y, double* acc_r2) {
    const __m256d one = _mm256_set1_pd(1.0), zero = _mm256_setzero_pd();
    size_t used = 0, kept = 0;
    while (kept < want && used + kPairs <= pairs) {
      const uint64_t* w = words + 2 * used;
      // (x0 y0 x2 y2) and (x1 y1 x3 y3): the unpacks give pair order.
      const __m256i a = _mm256_inserti128_si256(_mm256_castsi128_si256(load2(w)), load2(w + 4), 1);
      const __m256i b =
          _mm256_inserti128_si256(_mm256_castsi128_si256(load2(w + 2)), load2(w + 6), 1);
      const __m256d x = unit4(_mm256_unpacklo_epi64(a, b));
      const __m256d y = unit4(_mm256_unpackhi_epi64(a, b));
      const __m256d r2 = _mm256_add_pd(_mm256_mul_pd(x, x), _mm256_mul_pd(y, y));
      const unsigned ok = static_cast<unsigned>(_mm256_movemask_pd(_mm256_and_pd(
          _mm256_cmp_pd(r2, one, _CMP_LE_OQ), _mm256_cmp_pd(r2, zero, _CMP_NEQ_OQ))));
      _mm256_storeu_pd(acc_y + kept, packed4(y, ok));
      _mm256_storeu_pd(acc_r2 + kept, packed4(r2, ok));
      const size_t n = static_cast<size_t>(std::popcount(ok));
      if (kept + n < want) {
        kept += n;
        used += kPairs;
      } else {
        used += pairs_through(ok, want - kept);
        kept = want;
      }
    }
    return {used, kept};
  }

  static DPBYZ_AVX2 void finish(const double* base, const double* y, const double* r2,
                                const double* logs, double stddev, double* out, size_t n) {
    const __m256d minus2 = _mm256_set1_pd(-2.0), s = _mm256_set1_pd(stddev);
    size_t k = 0;
    for (; k + 4 <= n; k += 4) {
      const __m256d mult = _mm256_sqrt_pd(_mm256_div_pd(
          _mm256_mul_pd(minus2, _mm256_loadu_pd(logs + k)), _mm256_loadu_pd(r2 + k)));
      const __m256d v = _mm256_add_pd(
          _mm256_mul_pd(_mm256_mul_pd(_mm256_loadu_pd(y + k), mult), s), _mm256_setzero_pd());
      _mm256_storeu_pd(out + k, _mm256_add_pd(_mm256_loadu_pd(base + k), v));
    }
    for (; k < n; ++k)
      out[k] = base[k] + ((y[k] * std::sqrt(-2.0 * logs[k] / r2[k])) * stddev + 0.0);
  }
};

#undef DPBYZ_AVX2

// ---- AVX-512 (F and DQ): eight pairs per group --------------------------------

#define DPBYZ_AVX512 __attribute__((target("avx512f,avx512dq")))

DPBYZ_AVX512 inline __m512i set8(uint64_t v) {
  return _mm512_set1_epi64(static_cast<long long>(v));
}

// GCC 12's avx512fintrin.h builds the unmasked shift, andnot and sqrt
// intrinsics on _mm512_undefined_*, which -Wuninitialized flags.  The
// shifts are vector operators instead, and sqrt runs masked.
typedef uint64_t U64x8 __attribute__((vector_size(64)));

DPBYZ_AVX512 inline __m512i shr8(__m512i z, unsigned n) { return (__m512i)((U64x8)z >> n); }

DPBYZ_AVX512 inline __m512i shl8(__m512i z, unsigned n) { return (__m512i)((U64x8)z << n); }

/// Mt64::mix of eight consecutive words, stored over them.
DPBYZ_AVX512 inline void mix8(uint64_t* word, const uint64_t* far) {
  const __m512i y =
      _mm512_or_si512(_mm512_and_si512(_mm512_loadu_si512(word), set8(Mt64::kUpperMask)),
                      _mm512_and_si512(_mm512_loadu_si512(word + 1), set8(~Mt64::kUpperMask)));
  const __m512i odd = _mm512_sub_epi64(_mm512_setzero_si512(), _mm512_and_si512(y, set8(1)));
  _mm512_storeu_si512(word, _mm512_xor_si512(_mm512_xor_si512(_mm512_loadu_si512(far), shr8(y, 1)),
                                             _mm512_and_si512(odd, set8(Mt64::kMatrix))));
}

/// 2·canonical_from_word(Mt64::temper(z)) − 1 in lanes.  vcvtuqq2pd
/// rounds u to double once, as canonical_from_word's sum of halves does.
DPBYZ_AVX512 inline __m512d unit8(__m512i z) {
  z = _mm512_xor_si512(z, _mm512_and_si512(shr8(z, 29), set8(0x5555555555555555ULL)));
  z = _mm512_xor_si512(z, _mm512_and_si512(shl8(z, 17), set8(0x71d67fffeda60000ULL)));
  z = _mm512_xor_si512(z, _mm512_and_si512(shl8(z, 37), set8(0xfff7eee000000000ULL)));
  z = _mm512_xor_si512(z, shr8(z, 43));
  const __m512i bits =
      _mm512_castpd_si512(_mm512_mul_pd(_mm512_cvtepu64_pd(z), _mm512_set1_pd(0x1p-64)));
  const __m512i clamp = shr8(_mm512_add_epi64(shr8(bits, 52), set8(1)), 10);
  const __m512d c = _mm512_castsi512_pd(_mm512_sub_epi64(bits, clamp));
  return _mm512_sub_pd(_mm512_mul_pd(_mm512_set1_pd(2.0), c), _mm512_set1_pd(1.0));
}

struct Avx512 {
  static constexpr size_t kPairs = 8;

  static DPBYZ_AVX512 void twist(uint64_t* s) {
    // Mt64::twist's two loops, each in whole vectors and then words.
    constexpr size_t kN = Mt64::kStateWords, kM = Mt64::kShift;
    constexpr size_t kHead = (kN - kM) / 8 * 8, kTail = kN - kM + (kM - 1) / 8 * 8;
    for (size_t k = 0; k < kHead; k += 8) mix8(s + k, s + (k + kM));
    for (size_t k = kHead; k < kN - kM; ++k) s[k] = Mt64::mix(s[k], s[k + 1], s[k + kM]);
    for (size_t k = kN - kM; k < kTail; k += 8) mix8(s + k, s + (k + kM - kN));
    for (size_t k = kTail; k < kN - 1; ++k) s[k] = Mt64::mix(s[k], s[k + 1], s[k + kM - kN]);
    s[kN - 1] = Mt64::mix(s[kN - 1], s[0], s[kM - 1]);
  }

  static DPBYZ_AVX512 Compacted compact(const uint64_t* words, size_t pairs, size_t want,
                                        double* acc_y, double* acc_r2) {
    const __m512i x_words = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
    const __m512i y_words = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
    const __m512d one = _mm512_set1_pd(1.0), zero = _mm512_setzero_pd();
    size_t used = 0, kept = 0;
    while (kept < want && used + kPairs <= pairs) {
      const __m512i a = _mm512_loadu_si512(words + 2 * used);
      const __m512i b = _mm512_loadu_si512(words + 2 * used + 8);
      const __m512d x = unit8(_mm512_permutex2var_epi64(a, x_words, b));
      const __m512d y = unit8(_mm512_permutex2var_epi64(a, y_words, b));
      const __m512d r2 = _mm512_add_pd(_mm512_mul_pd(x, x), _mm512_mul_pd(y, y));
      const __mmask8 ok = _mm512_mask_cmp_pd_mask(_mm512_cmp_pd_mask(r2, one, _CMP_LE_OQ), r2,
                                                  zero, _CMP_NEQ_OQ);
      _mm512_storeu_pd(acc_y + kept, _mm512_maskz_compress_pd(ok, y));
      _mm512_storeu_pd(acc_r2 + kept, _mm512_maskz_compress_pd(ok, r2));
      const size_t n = static_cast<size_t>(std::popcount(static_cast<unsigned>(ok)));
      if (kept + n < want) {
        kept += n;
        used += kPairs;
      } else {
        used += pairs_through(ok, want - kept);
        kept = want;
      }
    }
    return {used, kept};
  }

  static DPBYZ_AVX512 void finish(const double* base, const double* y, const double* r2,
                                  const double* logs, double stddev, double* out, size_t n) {
    const __m512d minus2 = _mm512_set1_pd(-2.0), s = _mm512_set1_pd(stddev);
    for (size_t k = 0; k < n; k += 8) {
      // The last group is masked: no lane past n is read or written.
      const __mmask8 m = n - k >= 8 ? __mmask8{0xff} : static_cast<__mmask8>((1u << (n - k)) - 1);
      const __m512d mult = _mm512_maskz_sqrt_pd(
          m, _mm512_div_pd(_mm512_mul_pd(minus2, _mm512_maskz_loadu_pd(m, logs + k)),
                        _mm512_maskz_loadu_pd(m, r2 + k)));
      const __m512d v = _mm512_add_pd(
          _mm512_mul_pd(_mm512_mul_pd(_mm512_maskz_loadu_pd(m, y + k), mult), s),
          _mm512_setzero_pd());
      _mm512_mask_storeu_pd(out + k, m, _mm512_add_pd(_mm512_maskz_loadu_pd(m, base + k), v));
    }
  }
};

#undef DPBYZ_AVX512

}  // namespace

void add_normal_avx2(Mt64& engine, std::span<const double> base, double stddev,
                     std::span<double> out) {
  add_normal_chunks<Avx2>(engine, base, stddev, out);
}

void add_normal_avx512(Mt64& engine, std::span<const double> base, double stddev,
                       std::span<double> out) {
  add_normal_chunks<Avx512>(engine, base, stddev, out);
}

}  // namespace dpbyz::detail

#else  // non-x86: cpuid never picks these, and they are the portable body.

namespace dpbyz::detail {

void add_normal_avx2(Mt64& engine, std::span<const double> base, double stddev,
                     std::span<double> out) {
  add_normal_portable(engine, base, stddev, out);
}

void add_normal_avx512(Mt64& engine, std::span<const double> base, double stddev,
                       std::span<double> out) {
  add_normal_portable(engine, base, stddev, out);
}

}  // namespace dpbyz::detail

#endif
