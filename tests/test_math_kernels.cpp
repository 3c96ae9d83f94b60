// Property tests for the opt-in fast-math kernel layer (math/kernels.hpp):
//
//   * fast vs scalar agreement within the documented reassociation bound
//     |fast - scalar| <= 2 * d * eps * sum|term| on random, adversarial
//     (cancellation-heavy) and denormal-heavy inputs;
//   * elementwise kernels (axpy, scale) bit-identical in both modes;
//   * fast-mode determinism: reruns bit-equal, and pairwise_dist_sq
//     bit-equal at every thread width in both modes (these run under the
//     TSAN CI job);
//   * the default-mode pairwise matrix bit-identical to vec::dist_sq on
//     ragged shapes, on both backends;
//   * the dispatch plumbing itself: MathModeScope restore semantics, the
//     scalar default, and the ExperimentConfig::fast_math knob driving a
//     deterministic (and scalar-defaulting) trainer;
//   * fast-mode GAR goldens: on generic-position inputs every selection
//     GAR picks the same rows in both modes, so Krum/MDA/Bulyan/CGE
//     outputs match scalar exactly, and the iterative geometric median
//     stays within a relative bound.  (Exact-tie inputs are excluded by
//     design: the scalar golden suite owns tie-break semantics, and fast
//     mode documents that ULP-different scores may resolve near-ties
//     differently.)
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "aggregation/aggregator.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "math/gradient_batch.hpp"
#include "math/kernels.hpp"
#include "math/rng.hpp"
#include "math/vector_ops.hpp"
#include "models/linear_model.hpp"

namespace dpbyz {
namespace {

constexpr double kMachineEps = 0x1p-53;

/// The documented reassociation bound for a d-term reduction whose
/// per-term magnitudes sum to `term_mag_sum`.
double reassociation_bound(size_t d, double term_mag_sum) {
  return 2.0 * static_cast<double>(d) * kMachineEps * term_mag_sum;
}

Vector random_vector(size_t d, uint64_t seed, double sigma = 1.0) {
  Rng rng(seed);
  return rng.normal_vector(d, sigma);
}

/// Cancellation-heavy pair: large alternating components that mostly
/// cancel in a - b, leaving small residuals — the dot-product stressor.
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

/// Denormal-heavy pair: magnitudes ~1e-160, so the squared differences
/// and products land in the SUBNORMAL range (~1e-320) but stay nonzero
/// — scaling by DBL_MIN itself would flush every term to exactly 0.0
/// and make the comparison vacuous.  A kernel that flushed subnormals
/// to zero (FTZ/DAZ) would diverge from the scalar loop here.
std::pair<Vector, Vector> denormal_pair(size_t d, uint64_t seed) {
  Rng rng(seed);
  Vector a(d), b(d);
  for (size_t i = 0; i < d; ++i) {
    a[i] = rng.normal(0.0, 1.0) * 1e-160;
    b[i] = rng.normal(0.0, 1.0) * 5e-161;
  }
  return {a, b};
}

void expect_within_reassociation_bound(const Vector& a, const Vector& b) {
  const size_t d = a.size();
  // Scalar references (default mode) and per-term magnitude sums.
  const double dist_scalar = vec::dist_sq(a, b);
  const double dot_scalar = vec::dot(a, b);
  const double norm_scalar = vec::norm_sq(a);
  double abs_dot_terms = 0.0;
  for (size_t i = 0; i < d; ++i) abs_dot_terms += std::abs(a[i] * b[i]);

  const double dist_fast = kernels::dist_sq_fast(a.data(), b.data(), d);
  const double dot_fast = kernels::dot_fast(a.data(), b.data(), d);
  const double norm_fast = kernels::norm_sq_fast(a.data(), d);

  // dist_sq / norm_sq have nonnegative terms: sum|term| == scalar result.
  EXPECT_LE(std::abs(dist_fast - dist_scalar), reassociation_bound(d, dist_scalar));
  EXPECT_LE(std::abs(norm_fast - norm_scalar), reassociation_bound(d, norm_scalar));
  EXPECT_LE(std::abs(dot_fast - dot_scalar), reassociation_bound(d, abs_dot_terms));
}

TEST(MathKernels, FastReductionsWithinBoundOnRandomInputs) {
  for (size_t d : {1u, 7u, 8u, 9u, 64u, 1000u, 4097u}) {
    const Vector a = random_vector(d, 100 + d);
    const Vector b = random_vector(d, 200 + d);
    expect_within_reassociation_bound(a, b);
  }
}

TEST(MathKernels, FastReductionsWithinBoundOnAdversarialCancellation) {
  for (size_t d : {16u, 1000u, 4096u}) {
    const auto [a, b] = adversarial_pair(d, 300 + d);
    expect_within_reassociation_bound(a, b);
  }
}

TEST(MathKernels, FastReductionsWithinBoundOnDenormalHeavyInputs) {
  for (size_t d : {16u, 1000u}) {
    const auto [a, b] = denormal_pair(d, 400 + d);
    expect_within_reassociation_bound(a, b);
    // Strictly positive: the subnormal terms must not have flushed to
    // zero, or the bound comparison above was vacuous.
    EXPECT_GT(kernels::dist_sq_fast(a.data(), b.data(), d), 0.0);
    EXPECT_GT(kernels::norm_sq_fast(a.data(), d), 0.0);
  }
}

TEST(MathKernels, ElementwiseKernelsBitIdenticalToScalar) {
  for (size_t d : {5u, 8u, 1000u, 1003u}) {
    const Vector base = random_vector(d, 500 + d);
    const Vector other = random_vector(d, 600 + d);

    Vector scalar_axpy = base;
    vec::axpy_inplace(scalar_axpy, 1.5, other);  // default mode: scalar
    Vector fast_axpy = base;
    kernels::axpy_fast(fast_axpy.data(), 1.5, other.data(), d);
    EXPECT_EQ(scalar_axpy, fast_axpy);

    Vector scalar_scale = base;
    vec::scale_inplace(scalar_scale, -0.37);
    Vector fast_scale = base;
    kernels::scale_fast(fast_scale.data(), -0.37, d);
    EXPECT_EQ(scalar_scale, fast_scale);
  }
}

TEST(MathKernels, FastKernelsAreDeterministicAcrossReruns) {
  const size_t d = 2053;
  const Vector a = random_vector(d, 1);
  const Vector b = random_vector(d, 2);
  const double first = kernels::dist_sq_fast(a.data(), b.data(), d);
  for (int r = 0; r < 10; ++r)
    ASSERT_EQ(kernels::dist_sq_fast(a.data(), b.data(), d), first);
  const double dot_first = kernels::dot_fast(a.data(), b.data(), d);
  for (int r = 0; r < 10; ++r)
    ASSERT_EQ(kernels::dot_fast(a.data(), b.data(), d), dot_first);
}

// ---- dispatch plumbing ------------------------------------------------------

TEST(MathKernels, ScalarModeIsTheDefaultAndScopesCompose) {
  EXPECT_EQ(kernels::mode(), kernels::MathMode::kScalar);
  {
    kernels::MathModeScope scope(kernels::MathMode::kFast);
    EXPECT_EQ(kernels::mode(), kernels::MathMode::kFast);
    {
      // Scalar scopes are no-ops; fast participation is counted, so an
      // enclosing fast scope keeps the process fast (the overlapping-
      // lifetime semantics run_seeds_parallel depends on).
      kernels::MathModeScope noop(kernels::MathMode::kScalar);
      EXPECT_EQ(kernels::mode(), kernels::MathMode::kFast);
      kernels::MathModeScope second(kernels::MathMode::kFast);
      EXPECT_EQ(kernels::mode(), kernels::MathMode::kFast);
    }
    EXPECT_EQ(kernels::mode(), kernels::MathMode::kFast);
  }
  EXPECT_EQ(kernels::mode(), kernels::MathMode::kScalar);
}

// The overlapping-lifetime regression the save/restore design failed:
// scope A outliving scope B must not flip the mode mid-way, and the
// mode must revert to scalar only when the LAST fast scope dies.
TEST(MathKernels, OverlappingFastScopesKeepFastUntilTheLastDies) {
  auto* a = new kernels::MathModeScope(kernels::MathMode::kFast);
  auto* b = new kernels::MathModeScope(kernels::MathMode::kFast);
  delete a;  // interleaved destruction, not LIFO
  EXPECT_EQ(kernels::mode(), kernels::MathMode::kFast);
  delete b;
  EXPECT_EQ(kernels::mode(), kernels::MathMode::kScalar);
}

TEST(MathKernels, VecEntryPointsDispatchOnTheMode) {
  const size_t d = 1000;
  const Vector a = random_vector(d, 11);
  const Vector b = random_vector(d, 12);
  const double scalar = vec::dist_sq(a, b);
  double fast;
  {
    kernels::MathModeScope scope(kernels::MathMode::kFast);
    fast = vec::dist_sq(a, b);
    EXPECT_EQ(fast, kernels::dist_sq_fast(a.data(), b.data(), d));
  }
  EXPECT_EQ(vec::dist_sq(a, b), scalar);  // scalar restored
  EXPECT_LE(std::abs(fast - scalar), reassociation_bound(d, scalar));
}

// ---- pairwise kernel: determinism at every thread width --------------------

// Runs under the TSAN CI job (the filter lists MathKernelsThreaded* —
// only this suite, not the serial MathKernels tests): the threads > 1
// widths dispatch tiles on the shared ThreadPool.
TEST(MathKernelsThreaded, PairwiseFastModeBitIdenticalAcrossThreadWidths) {
  // n(n-1)/2 * d = 780 * 22000 = 17.16M pair-coordinates: above the
  // 2^24 (= 16.78M) parallel-dispatch threshold, so the threads > 1
  // widths genuinely run the fast kernel on the ThreadPool (a smaller
  // extent would silently compare the serial branch against itself).
  const size_t n = 40, d = 22000;
  GradientBatch batch(n, d);
  Rng rng(77);
  for (size_t i = 0; i < n; ++i) {
    Vector v = rng.normal_vector(d, 1.0);
    batch.set_row(i, v);
  }
  kernels::MathModeScope scope(kernels::MathMode::kFast);
  std::vector<double> serial(n * n);
  pairwise_dist_sq(batch, serial, 1);
  for (size_t threads : {2u, 4u, 8u}) {
    std::vector<double> threaded(n * n, -1.0);
    pairwise_dist_sq(batch, threaded, threads);
    ASSERT_EQ(threaded, serial) << "threads = " << threads;
  }
  // Rerun at width 1: fast mode is deterministic, not merely consistent.
  std::vector<double> rerun(n * n);
  pairwise_dist_sq(batch, rerun, 1);
  EXPECT_EQ(rerun, serial);
}

// The same gate for the default mode: each pair lives in one lane of one
// block, and blocks spread across the pool.  n = 41 leaves a one-row
// trailing block; 820 * 21000 = 17.2M pair-coordinates clears the 2^24
// dispatch threshold, so the wider widths really run on the pool.
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

TEST(MathKernels, Unrolled8AndAvx2AgreeBitForBit) {
  if (!kernels::backend_supported(kernels::FastBackend::kAvx2))
    GTEST_SKIP() << "host has no AVX2";
  for (size_t d : {1u, 7u, 8u, 9u, 64u, 1000u, 4097u}) {
    const Vector a = random_vector(d, 700 + d);
    const Vector b = random_vector(d, 800 + d);
    const auto [aa, ab] = adversarial_pair(d, 900 + d);
    double u_dist, u_dot, u_norm, u_adv;
    {
      BackendScope scope(kernels::FastBackend::kUnrolled8);
      u_dist = kernels::dist_sq_fast(a.data(), b.data(), d);
      u_dot = kernels::dot_fast(a.data(), b.data(), d);
      u_norm = kernels::norm_sq_fast(a.data(), d);
      u_adv = kernels::dist_sq_fast(aa.data(), ab.data(), d);
    }
    BackendScope scope(kernels::FastBackend::kAvx2);
    // Same lane split and combine order: bit-equal, not merely close —
    // this is what makes the startup cpuid choice invisible in results.
    EXPECT_EQ(kernels::dist_sq_fast(a.data(), b.data(), d), u_dist) << "d=" << d;
    EXPECT_EQ(kernels::dot_fast(a.data(), b.data(), d), u_dot) << "d=" << d;
    EXPECT_EQ(kernels::norm_sq_fast(a.data(), d), u_norm) << "d=" << d;
    EXPECT_EQ(kernels::dist_sq_fast(aa.data(), ab.data(), d), u_adv) << "d=" << d;
  }
}

// ---- default-mode pairwise matrix -------------------------------------------

/// Every entry of the default-mode matrix equals vec::dist_sq of its row
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

// ---- dual-destination kernel ------------------------------------------------

TEST(MathKernels, DualRowFastKernelBitIdenticalPerOutputOnEveryBackend) {
  for (kernels::FastBackend backend :
       {kernels::FastBackend::kUnrolled8, kernels::FastBackend::kAvx2}) {
    if (!kernels::backend_supported(backend)) continue;
    BackendScope scope(backend);
    for (size_t d : {1u, 7u, 8u, 9u, 16u, 64u, 1000u, 1003u, 4097u}) {
      const Vector a0 = random_vector(d, 1300 + d);
      const Vector a1 = random_vector(d, 1400 + d);
      const Vector b = random_vector(d, 1500 + d);
      double out0 = -1.0, out1 = -1.0;
      kernels::dist_sq2_fast(a0.data(), a1.data(), b.data(), d, out0, out1);
      EXPECT_EQ(out0, kernels::dist_sq_fast(a0.data(), b.data(), d))
          << kernels::fast_backend() << " d=" << d;
      EXPECT_EQ(out1, kernels::dist_sq_fast(a1.data(), b.data(), d))
          << kernels::fast_backend() << " d=" << d;
      // Cancellation-heavy rows: the shared-b blocking must not change
      // any per-output rounding even where terms nearly cancel.
      const auto [aa, ab] = adversarial_pair(d, 1600 + d);
      kernels::dist_sq2_fast(aa.data(), ab.data(), b.data(), d, out0, out1);
      EXPECT_EQ(out0, kernels::dist_sq_fast(aa.data(), b.data(), d));
      EXPECT_EQ(out1, kernels::dist_sq_fast(ab.data(), b.data(), d));
    }
  }
}

// ---- fast-mode GAR goldens (ULP-bounded) -----------------------------------

std::vector<Vector> generic_inputs(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vector> g;
  g.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Vector v = rng.normal_vector(d, 0.5);
    v[0] += 1.0;
    g.push_back(std::move(v));
  }
  return g;
}

struct FastGoldenCase {
  const char* gar;
  size_t n, f;
  bool exact;  // selection GARs: same rows chosen => bit-identical output
};

class FastModeGolden : public ::testing::TestWithParam<FastGoldenCase> {};

TEST_P(FastModeGolden, MatchesScalarWithinDocumentedBound) {
  const auto& p = GetParam();
  const size_t d = 257;  // odd: exercises the scalar tail everywhere
  const auto inputs = generic_inputs(p.n, d, 9000 + p.n);
  const GradientBatch batch = GradientBatch::from_vectors(inputs);
  const auto agg = make_aggregator(p.gar, p.n, p.f);

  AggregatorWorkspace scalar_ws;
  const auto scalar_view = agg->aggregate(batch, scalar_ws);
  const Vector scalar_out(scalar_view.begin(), scalar_view.end());

  Vector fast_out, fast_rerun;
  {
    kernels::MathModeScope scope(kernels::MathMode::kFast);
    AggregatorWorkspace fast_ws;
    const auto fast_view = agg->aggregate(batch, fast_ws);
    fast_out.assign(fast_view.begin(), fast_view.end());
    AggregatorWorkspace rerun_ws;
    const auto rerun_view = agg->aggregate(batch, rerun_ws);
    fast_rerun.assign(rerun_view.begin(), rerun_view.end());
  }
  // Fast mode is deterministic per config.
  EXPECT_EQ(fast_out, fast_rerun);

  ASSERT_EQ(fast_out.size(), scalar_out.size());
  if (p.exact) {
    // Generic-position inputs: score gaps dwarf the kernels' ULP error,
    // the same rows are selected, and the output arithmetic (row copy /
    // index-order mean / per-coordinate trims) is mode-independent.
    EXPECT_EQ(fast_out, scalar_out);
  } else {
    // Iterative rules accumulate the per-reduction error across
    // iterations; a loose relative bound is the contract here.
    for (size_t i = 0; i < fast_out.size(); ++i)
      EXPECT_NEAR(fast_out[i], scalar_out[i],
                  1e-9 * std::max(1.0, std::abs(scalar_out[i])))
          << p.gar << " coordinate " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernelBoundGars, FastModeGolden,
    ::testing::Values(FastGoldenCase{"krum", 11, 3, true},
                      FastGoldenCase{"multi-krum", 11, 3, true},
                      FastGoldenCase{"mda", 11, 2, true},
                      FastGoldenCase{"bulyan", 11, 2, true},
                      FastGoldenCase{"cge", 11, 3, true},
                      FastGoldenCase{"mda_greedy", 11, 2, true},
                      FastGoldenCase{"average", 11, 0, true},
                      FastGoldenCase{"geometric-median", 11, 3, false}));

// ---- the fast_math knob end to end -----------------------------------------

TEST(FastMathTrainer, KnobIsDeterministicAndOffStaysScalar) {
  BlobsConfig bc;
  bc.num_samples = 80;
  bc.num_features = 16;
  bc.separation = 4.0;
  const Dataset data = make_blobs(bc, 21);
  const LinearModel model(16, LinearLoss::kMseOnSigmoid);

  ExperimentConfig c;
  c.num_workers = 7;
  c.num_byzantine = 1;
  c.gar = "mda";
  c.steps = 8;
  c.eval_every = 8;
  c.batch_size = 5;

  const RunResult off_a = Trainer(c, model, data, data).run();
  const RunResult off_b = Trainer(c, model, data, data).run();
  EXPECT_EQ(off_a.final_parameters, off_b.final_parameters);

  ExperimentConfig fast = c;
  fast.fast_math = true;
  const RunResult on_a = Trainer(fast, model, data, data).run();
  const RunResult on_b = Trainer(fast, model, data, data).run();
  // Deterministic per config...
  EXPECT_EQ(on_a.final_parameters, on_b.final_parameters);
  EXPECT_EQ(on_a.train_loss, on_b.train_loss);
  // ...and close to the scalar trajectory on this short run.
  ASSERT_EQ(on_a.final_parameters.size(), off_a.final_parameters.size());
  for (size_t i = 0; i < on_a.final_parameters.size(); ++i)
    EXPECT_NEAR(on_a.final_parameters[i], off_a.final_parameters[i], 1e-6);

  // The scope restored the scalar default (a later run is bit-identical
  // to the earlier scalar ones).
  EXPECT_EQ(kernels::mode(), kernels::MathMode::kScalar);
  const RunResult off_c = Trainer(c, model, data, data).run();
  EXPECT_EQ(off_c.final_parameters, off_a.final_parameters);
}

TEST(FastMathTrainer, LabelCarriesTheKnob) {
  ExperimentConfig c;
  c.fast_math = true;
  EXPECT_NE(c.label().find("+fast"), std::string::npos);
}

}  // namespace
}  // namespace dpbyz
