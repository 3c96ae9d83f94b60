#include "math/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "math/kernels_isa.hpp"

namespace dpbyz::kernels {

namespace {
// Selected backend, resolved lazily on first use (-1 = unresolved).
// Lazy (rather than a static initializer) so set_fast_backend calls from
// early test setup never race constructor ordering across TUs.
std::atomic<int> g_backend{-1};

int default_backend() {
  return detail::cpu_has_avx2() ? static_cast<int>(FastBackend::kAvx2)
                                : static_cast<int>(FastBackend::kUnrolled8);
}
}  // namespace

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
