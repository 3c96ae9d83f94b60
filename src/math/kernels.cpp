#include "math/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "math/kernels_isa.hpp"

namespace dpbyz::kernels {

namespace {
// Count of live MathModeScope(kFast) instances; the fast path is active
// while it is positive.  Counting makes overlapping scope lifetimes
// (run_seeds_parallel) safe — see the thread model in kernels.hpp.
std::atomic<int> g_fast_scopes{0};

// Selected fast backend, resolved lazily on first use (-1 = unresolved).
// Lazy (rather than a static initializer) so set_fast_backend calls from
// early test setup never race constructor ordering across TUs.
std::atomic<int> g_backend{-1};

int default_backend() {
  return detail::cpu_has_avx2() ? static_cast<int>(FastBackend::kAvx2)
                                : static_cast<int>(FastBackend::kUnrolled8);
}
}  // namespace

MathMode mode() {
  return g_fast_scopes.load(std::memory_order_relaxed) > 0 ? MathMode::kFast
                                                           : MathMode::kScalar;
}

bool fast_enabled() { return g_fast_scopes.load(std::memory_order_relaxed) > 0; }

MathModeScope::MathModeScope(MathMode m) : counted_(m == MathMode::kFast) {
  if (counted_) g_fast_scopes.fetch_add(1, std::memory_order_relaxed);
}

MathModeScope::~MathModeScope() {
  if (counted_) g_fast_scopes.fetch_sub(1, std::memory_order_relaxed);
}

FastBackend fast_backend_kind() {
  int b = g_backend.load(std::memory_order_relaxed);
  if (b < 0) {
    // Benign race: every thread computes the same cpuid-derived default.
    b = default_backend();
    g_backend.store(b, std::memory_order_relaxed);
  }
  return static_cast<FastBackend>(b);
}

const char* fast_backend() {
  return fast_backend_kind() == FastBackend::kAvx2 ? "avx2" : "unrolled8";
}

bool backend_supported(FastBackend b) {
  return b != FastBackend::kAvx2 || detail::cpu_has_avx2();
}

void set_fast_backend(FastBackend b) {
  if (!backend_supported(b))
    throw std::invalid_argument(
        "kernels::set_fast_backend: backend not supported by this CPU");
  g_backend.store(static_cast<int>(b), std::memory_order_relaxed);
}

// Portable unrolled8 backend.  All backends split the index stream into 8
// lanes (term i feeds accumulator i mod 8 within each 8-wide block) and
// combine the partials as ((s0+s4)+(s1+s5)) + ((s2+s6)+(s3+s7)), then add
// the scalar tail.  Keeping the combine order identical across backends
// makes the AVX2 and portable paths agree bit-for-bit — and makes every
// run deterministic, since nothing here depends on data values,
// alignment, or threads.  No FMA in either backend: each product/
// difference is the same correctly-rounded double the scalar loop
// computes, so only summation order is reassociated (the documented
// 2*d*eps*sum|term| bound in kernels.hpp).

namespace {

double u8_dist_sq(const double* a, const double* b, size_t n) {
  double s0 = 0, s1 = 0, s2 = 0, s3 = 0, s4 = 0, s5 = 0, s6 = 0, s7 = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const double d0 = a[i] - b[i], d1 = a[i + 1] - b[i + 1];
    const double d2 = a[i + 2] - b[i + 2], d3 = a[i + 3] - b[i + 3];
    const double d4 = a[i + 4] - b[i + 4], d5 = a[i + 5] - b[i + 5];
    const double d6 = a[i + 6] - b[i + 6], d7 = a[i + 7] - b[i + 7];
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
    s4 += d4 * d4;
    s5 += d5 * d5;
    s6 += d6 * d6;
    s7 += d7 * d7;
  }
  double out = ((s0 + s4) + (s1 + s5)) + ((s2 + s6) + (s3 + s7));
  for (; i < n; ++i) {
    const double diff = a[i] - b[i];
    out += diff * diff;
  }
  return out;
}

double u8_dot(const double* a, const double* b, size_t n) {
  double s0 = 0, s1 = 0, s2 = 0, s3 = 0, s4 = 0, s5 = 0, s6 = 0, s7 = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
    s4 += a[i + 4] * b[i + 4];
    s5 += a[i + 5] * b[i + 5];
    s6 += a[i + 6] * b[i + 6];
    s7 += a[i + 7] * b[i + 7];
  }
  double out = ((s0 + s4) + (s1 + s5)) + ((s2 + s6) + (s3 + s7));
  for (; i < n; ++i) out += a[i] * b[i];
  return out;
}

double u8_norm_sq(const double* a, size_t n) {
  double s0 = 0, s1 = 0, s2 = 0, s3 = 0, s4 = 0, s5 = 0, s6 = 0, s7 = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    s0 += a[i] * a[i];
    s1 += a[i + 1] * a[i + 1];
    s2 += a[i + 2] * a[i + 2];
    s3 += a[i + 3] * a[i + 3];
    s4 += a[i + 4] * a[i + 4];
    s5 += a[i + 5] * a[i + 5];
    s6 += a[i + 6] * a[i + 6];
    s7 += a[i + 7] * a[i + 7];
  }
  double out = ((s0 + s4) + (s1 + s5)) + ((s2 + s6) + (s3 + s7));
  for (; i < n; ++i) out += a[i] * a[i];
  return out;
}

void u8_axpy(double* a, double s, const double* b, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    a[i] += s * b[i];
    a[i + 1] += s * b[i + 1];
    a[i + 2] += s * b[i + 2];
    a[i + 3] += s * b[i + 3];
    a[i + 4] += s * b[i + 4];
    a[i + 5] += s * b[i + 5];
    a[i + 6] += s * b[i + 6];
    a[i + 7] += s * b[i + 7];
  }
  for (; i < n; ++i) a[i] += s * b[i];
}

void u8_scale(double* a, double s, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    a[i] *= s;
    a[i + 1] *= s;
    a[i + 2] *= s;
    a[i + 3] *= s;
    a[i + 4] *= s;
    a[i + 5] *= s;
    a[i + 6] *= s;
    a[i + 7] *= s;
  }
  for (; i < n; ++i) a[i] *= s;
}

void u8_dist_sq2(const double* a0, const double* a1, const double* b, size_t n,
                 double& out0, double& out1) {
  // Per output, identical lane assignment and combine order to
  // u8_dist_sq; the two accumulator sets are independent, so sharing the
  // b stream cannot couple the results.
  double p0 = 0, p1 = 0, p2 = 0, p3 = 0, p4 = 0, p5 = 0, p6 = 0, p7 = 0;
  double q0 = 0, q1 = 0, q2 = 0, q3 = 0, q4 = 0, q5 = 0, q6 = 0, q7 = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const double b0 = b[i], b1 = b[i + 1], b2 = b[i + 2], b3 = b[i + 3];
    const double b4 = b[i + 4], b5 = b[i + 5], b6 = b[i + 6], b7 = b[i + 7];
    const double c0 = a0[i] - b0, c1 = a0[i + 1] - b1;
    const double c2 = a0[i + 2] - b2, c3 = a0[i + 3] - b3;
    const double c4 = a0[i + 4] - b4, c5 = a0[i + 5] - b5;
    const double c6 = a0[i + 6] - b6, c7 = a0[i + 7] - b7;
    p0 += c0 * c0;
    p1 += c1 * c1;
    p2 += c2 * c2;
    p3 += c3 * c3;
    p4 += c4 * c4;
    p5 += c5 * c5;
    p6 += c6 * c6;
    p7 += c7 * c7;
    const double e0 = a1[i] - b0, e1 = a1[i + 1] - b1;
    const double e2 = a1[i + 2] - b2, e3 = a1[i + 3] - b3;
    const double e4 = a1[i + 4] - b4, e5 = a1[i + 5] - b5;
    const double e6 = a1[i + 6] - b6, e7 = a1[i + 7] - b7;
    q0 += e0 * e0;
    q1 += e1 * e1;
    q2 += e2 * e2;
    q3 += e3 * e3;
    q4 += e4 * e4;
    q5 += e5 * e5;
    q6 += e6 * e6;
    q7 += e7 * e7;
  }
  double r0 = ((p0 + p4) + (p1 + p5)) + ((p2 + p6) + (p3 + p7));
  double r1 = ((q0 + q4) + (q1 + q5)) + ((q2 + q6) + (q3 + q7));
  for (; i < n; ++i) {
    const double c = a0[i] - b[i];
    const double e = a1[i] - b[i];
    r0 += c * c;
    r1 += e * e;
  }
  out0 = r0;
  out1 = r1;
}

}  // namespace

double dist_sq_fast(const double* a, const double* b, size_t n) {
  switch (fast_backend_kind()) {
    case FastBackend::kAvx2:
      return detail::avx2_dist_sq(a, b, n);
    default:
      return u8_dist_sq(a, b, n);
  }
}

double dot_fast(const double* a, const double* b, size_t n) {
  switch (fast_backend_kind()) {
    case FastBackend::kAvx2:
      return detail::avx2_dot(a, b, n);
    default:
      return u8_dot(a, b, n);
  }
}

double norm_sq_fast(const double* a, size_t n) {
  switch (fast_backend_kind()) {
    case FastBackend::kAvx2:
      return detail::avx2_norm_sq(a, n);
    default:
      return u8_norm_sq(a, n);
  }
}

void axpy_fast(double* a, double s, const double* b, size_t n) {
  switch (fast_backend_kind()) {
    case FastBackend::kAvx2:
      return detail::avx2_axpy(a, s, b, n);
    default:
      return u8_axpy(a, s, b, n);
  }
}

void scale_fast(double* a, double s, size_t n) {
  switch (fast_backend_kind()) {
    case FastBackend::kAvx2:
      return detail::avx2_scale(a, s, n);
    default:
      return u8_scale(a, s, n);
  }
}

void dist_sq2_fast(const double* a0, const double* a1, const double* b, size_t n,
                   double& out0, double& out1) {
  switch (fast_backend_kind()) {
    case FastBackend::kAvx2:
      return detail::avx2_dist_sq2(a0, a1, b, n, out0, out1);
    default:
      return u8_dist_sq2(a0, a1, b, n, out0, out1);
  }
}

namespace {

/// Portable body of detail::avx2_pair_lanes: the same block with plain
/// scalar accumulators, one per pair, walked two lanes at a time so the
/// 2 * kPairSources accumulators stay in registers.
void u_pair_lanes(const double* const* a, const double* const* b, size_t d,
                  double* const* dst) {
  constexpr size_t J = detail::kPairSources;
  for (size_t l = 0; l < kPairLanes; l += 2) {
    double acc0[J] = {}, acc1[J] = {};
    const double* a0 = a[l];
    const double* a1 = a[l + 1];
    for (size_t k = 0; k < d; ++k) {
      const double x0 = a0[k], x1 = a1[k];
      for (size_t j = 0; j < J; ++j) {
        const double bk = b[j][k];
        const double e0 = x0 - bk, e1 = x1 - bk;
        acc0[j] += e0 * e0;
        acc1[j] += e1 * e1;
      }
    }
    for (size_t j = 0; j < J; ++j) {
      dst[j][l] = acc0[j];
      dst[j][l + 1] = acc1[j];
    }
  }
}

}  // namespace

void pairwise_block_scalar(const double* rows, size_t n, size_t d, size_t i0,
                           double* out) {
  constexpr size_t J = detail::kPairSources;
  // Lanes and source rows past the last row repeat it.  Sums that are not
  // entries of this block's columns (those padded pairs, and every lane of
  // a partial block) go to `spill`; the partial block's real ones are then
  // copied out.
  const size_t lanes = std::min(kPairLanes, n - i0);
  const double* a[kPairLanes];
  for (size_t l = 0; l < kPairLanes; ++l) a[l] = rows + std::min(i0 + l, n - 1) * d;
  const auto body = fast_backend_kind() == FastBackend::kAvx2 ? detail::avx2_pair_lanes
                                                                : u_pair_lanes;
  double spill[J][kPairLanes];
  for (size_t j = i0 + 1; j < n; j += J) {
    const size_t m = std::min(J, n - j);
    const double* b[J];
    double* dst[J];
    for (size_t t = 0; t < J; ++t) {
      b[t] = rows + std::min(j + t, n - 1) * d;
      dst[t] = t < m && lanes == kPairLanes ? out + (j + t) * n + i0 : spill[t];
    }
    body(a, b, d, dst);
    if (lanes < kPairLanes)
      for (size_t t = 0; t < m; ++t) std::copy_n(spill[t], lanes, out + (j + t) * n + i0);
  }
}

}  // namespace dpbyz::kernels
