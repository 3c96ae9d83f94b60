// Tests for the pairwise distance kernel (math/kernels.hpp):
//
//   * the pairwise matrix bit-identical to vec::dist_sq on ragged shapes,
//     on both backends;
//   * the matrix bit-identical at every thread width (this suite runs
//     under the TSAN CI job);
//   * the runtime backend selection itself;
//   * the retired fast_math knob rejected by ExperimentConfig::validate.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/config.hpp"
#include "math/gradient_batch.hpp"
#include "math/kernels.hpp"
#include "math/rng.hpp"
#include "math/vector_ops.hpp"

namespace dpbyz {
namespace {

Vector random_vector(size_t d, uint64_t seed, double sigma = 1.0) {
  Rng rng(seed);
  return rng.normal_vector(d, sigma);
}

/// Cancellation-heavy pair: large alternating components that mostly
/// cancel in a - b, leaving small residuals.
std::pair<Vector, Vector> adversarial_pair(size_t d, uint64_t seed) {
  Rng rng(seed);
  Vector a(d), b(d);
  for (size_t i = 0; i < d; ++i) {
    const double big = (i % 2 == 0 ? 1.0 : -1.0) * 1e10;
    a[i] = big + rng.normal(0.0, 1.0);
    b[i] = big + rng.normal(0.0, 1.0);
  }
  return {a, b};
}

// ---- pairwise kernel: determinism at every thread width --------------------

// Runs under the TSAN CI job (the filter lists MathKernelsThreaded* —
// only this suite, not the serial MathKernels tests): each pair lives in
// one lane of one block, and blocks spread across the pool.  n = 41
// leaves a one-row trailing block; 820 * 21000 = 17.2M pair-coordinates
// clears the 2^24 dispatch threshold, so the wider widths really run on
// the pool.
TEST(MathKernelsThreaded, PairwiseScalarModeBitIdenticalAcrossThreadWidths) {
  const size_t n = 41, d = 21000;
  GradientBatch batch(n, d);
  Rng rng(78);
  for (size_t i = 0; i < n; ++i) batch.set_row(i, rng.normal_vector(d, 1.0));
  std::vector<double> serial(n * n);
  pairwise_dist_sq(batch, serial, 1);
  for (size_t threads : {2u, 4u, 8u}) {
    std::vector<double> threaded(n * n, -1.0);
    pairwise_dist_sq(batch, threaded, threads);
    ASSERT_EQ(threaded, serial) << "threads = " << threads;
  }
  for (size_t i : {0u, 7u, 8u, 40u})
    for (size_t j : {0u, 9u, 33u, 40u})
      EXPECT_EQ(serial[i * n + j], vec::dist_sq(batch.row(i), batch.row(j)));
}

// ---- runtime ISA dispatch ---------------------------------------------------

/// RAII backend override that restores the previous selection, so these
/// tests cannot leak a backend into later suites.
class BackendScope {
 public:
  explicit BackendScope(kernels::FastBackend b) : prev_(kernels::fast_backend_kind()) {
    kernels::set_fast_backend(b);
  }
  ~BackendScope() { kernels::set_fast_backend(prev_); }
  BackendScope(const BackendScope&) = delete;
  BackendScope& operator=(const BackendScope&) = delete;

 private:
  kernels::FastBackend prev_;
};

TEST(MathKernels, RuntimeBackendIsResolvedAndNamed) {
  // One binary, backend picked by cpuid at startup: the resolved kind is
  // one the host supports, and the provenance string matches the kind.
  const kernels::FastBackend kind = kernels::fast_backend_kind();
  EXPECT_TRUE(kernels::backend_supported(kind));
  EXPECT_TRUE(kernels::backend_supported(kernels::FastBackend::kUnrolled8));
  const std::string name = kernels::fast_backend();
  if (kind == kernels::FastBackend::kUnrolled8) {
    EXPECT_EQ(name, "unrolled8");
  } else if (kind == kernels::FastBackend::kAvx2) {
    EXPECT_EQ(name, "avx2");
  }
}

TEST(MathKernels, SetFastBackendSelectsOrThrows) {
  const kernels::FastBackend prev = kernels::fast_backend_kind();
  for (kernels::FastBackend b :
       {kernels::FastBackend::kUnrolled8, kernels::FastBackend::kAvx2}) {
    if (kernels::backend_supported(b)) {
      kernels::set_fast_backend(b);
      EXPECT_EQ(kernels::fast_backend_kind(), b);
    } else {
      EXPECT_THROW(kernels::set_fast_backend(b), std::invalid_argument);
      EXPECT_NE(kernels::fast_backend_kind(), b);  // selection unchanged
    }
  }
  kernels::set_fast_backend(prev);
}

// ---- pairwise matrix ---------------------------------------------------------

/// Every entry of the matrix equals vec::dist_sq of its row
/// pair (the golden scalar loop), bit for bit, diagonal included.
void expect_pairwise_matches_dist_sq(const GradientBatch& batch, const std::string& what) {
  const size_t n = batch.rows();
  std::vector<double> out(n * n, -1.0);
  pairwise_dist_sq(batch, out, 1);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j)
      ASSERT_EQ(out[i * n + j], vec::dist_sq(batch.row(i), batch.row(j)))
          << what << " n=" << n << " d=" << batch.dim() << " (" << i << "," << j << ")";
}

TEST(MathKernels, PairwiseScalarMatrixBitIdenticalToDistSqOnRaggedShapes) {
  for (kernels::FastBackend backend :
       {kernels::FastBackend::kUnrolled8, kernels::FastBackend::kAvx2}) {
    if (!kernels::backend_supported(backend)) continue;
    BackendScope scope(backend);
    const std::string name = kernels::fast_backend();
    for (size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 12u, 17u, 33u}) {
      for (size_t d : {1u, 3u, 4u, 7u, 8u, 9u, 69u, 1001u}) {
        // One spare leading row: the view over rows [1, n + 1) starts d
        // doubles into the arena, so at odd d its rows are unaligned.
        GradientBatch random(n + 1, d), cancelling(n + 1, d);
        for (size_t i = 0; i <= n; ++i) {
          random.set_row(i, random_vector(d, 10 * n + d + i));
          const auto [a, b] = adversarial_pair(d, 20 * n + d + i);
          cancelling.set_row(i, i % 2 == 0 ? a : b);
        }
        expect_pairwise_matches_dist_sq(random.view(0, n), name + " random");
        expect_pairwise_matches_dist_sq(random.view(1, n + 1), name + " offset view");
        expect_pairwise_matches_dist_sq(cancelling.view(0, n), name + " adversarial");
      }
    }
  }
}

// ---- the retired fast_math knob --------------------------------------------

TEST(FastMathConfig, ValidateRejectsTheRetiredKnob) {
  ExperimentConfig c;
  EXPECT_NO_THROW(c.validate());
  c.fast_math = true;
  try {
    c.validate();
    FAIL() << "fast_math = true was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("fast_math was removed"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace dpbyz
