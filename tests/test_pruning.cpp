// Tests for the distance-pruning layer (aggregation/pruned_oracle.hpp):
//
//   * bound validity: the oracle's certified lower/upper bounds bracket
//     the exact distances vec::dist_sq produces — on random inputs AND
//     the FP-adversarial families (cancellation-heavy rows, duplicate
//     rows, huge-norm rows) where naive triangle bounds overshoot by
//     rounding;
//   * prune=exact bit-identity: every selection GAR aggregates to the
//     exact same doubles as prune=off, on random, adversarial-tie and
//     tree-composition inputs, in scalar and fast math modes;
//   * prune=approx: deterministic, and on well-separated committees the
//     sketch ranking agrees with the exact selection;
//   * config plumbing: parse/label/validate for the prune knob;
//   * thread-width determinism of the pruned trainer path (the suite
//     name carries the MathKernelsThreaded prefix so the TSAN CI job
//     picks it up).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "aggregation/aggregator.hpp"
#include "aggregation/bulyan.hpp"
#include "aggregation/krum.hpp"
#include "aggregation/mda.hpp"
#include "aggregation/pruned_oracle.hpp"
#include "aggregation/hierarchical.hpp"
#include "core/config.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "math/gradient_batch.hpp"
#include "math/kernels.hpp"
#include "math/rng.hpp"
#include "models/linear_model.hpp"

namespace dpbyz {
namespace {

std::vector<Vector> random_rows(size_t n, size_t d, uint64_t seed, double sigma = 1.0) {
  Rng rng(seed);
  std::vector<Vector> g;
  g.reserve(n);
  for (size_t i = 0; i < n; ++i) g.push_back(rng.normal_vector(d, sigma));
  return g;
}

/// Cancellation-heavy rows: large alternating components shared by every
/// row, with O(1) per-row perturbations.  Norms are ~1e10·sqrt(d) while
/// pairwise distances are ~sqrt(d) — the regime where computed norms
/// carry absolute rounding far larger than naive triangle bounds allow.
std::vector<Vector> cancellation_rows(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vector> g;
  g.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Vector v(d);
    for (size_t c = 0; c < d; ++c)
      v[c] = (c % 2 == 0 ? 1.0 : -1.0) * 1e10 + rng.normal(0.0, 1.0);
    g.push_back(std::move(v));
  }
  return g;
}

/// Duplicate-heavy rows: distinct base rows, each repeated, so many
/// exact distances are identically zero (the reverse-triangle bound must
/// not go above zero there, even by one ULP).
std::vector<Vector> duplicate_rows(size_t n, size_t d, uint64_t seed) {
  auto base = random_rows((n + 1) / 2, d, seed);
  std::vector<Vector> g;
  g.reserve(n);
  for (size_t i = 0; i < n; ++i) g.push_back(base[i % base.size()]);
  return g;
}

/// Huge-norm rows: magnitudes ~1e150 at small d, so squared norms and
/// squared bound values press against the double range without
/// overflowing — any unguarded inf/NaN in the bound arithmetic shows.
std::vector<Vector> huge_norm_rows(size_t n, size_t d, uint64_t seed) {
  auto g = random_rows(n, d, seed);
  for (auto& v : g)
    for (double& x : v) x *= 1e150;
  return g;
}

void expect_bounds_bracket_exact(const std::vector<Vector>& rows, const char* label) {
  const GradientBatch batch = GradientBatch::from_vectors(rows);
  PrunedDistanceOracle oracle;
  oracle.prepare(batch);
  const size_t n = batch.rows();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      const double exact_sq = i == j ? 0.0 : vec::dist_sq(batch.row(i), batch.row(j));
      const double exact_d = std::sqrt(exact_sq);
      EXPECT_LE(oracle.lb_dist(i, j), exact_d)
          << label << ": lb_dist above exact at (" << i << ", " << j << ")";
      EXPECT_GE(oracle.ub_dist(i, j), exact_d)
          << label << ": ub_dist below exact at (" << i << ", " << j << ")";
      EXPECT_LE(oracle.lb_sq(i, j), exact_sq)
          << label << ": lb_sq above exact at (" << i << ", " << j << ")";
      EXPECT_LE(oracle.lb_dist(i, j), oracle.ub_dist(i, j));
    }
  }
  // The lazy cache must agree with vec::dist_sq bit for bit.
  for (size_t i = 0; i < n; ++i)
    for (size_t j = i + 1; j < n; ++j) {
      const double want = vec::dist_sq(batch.row(i), batch.row(j));
      EXPECT_EQ(oracle.exact_sq(i, j), want);
      EXPECT_EQ(oracle.exact_sq(j, i), want);  // symmetric cache
      EXPECT_EQ(oracle.exact_dist(i, j), std::sqrt(want));
    }
}

TEST(PrunedOracle, BoundsBracketExactOnRandomRows) {
  expect_bounds_bracket_exact(random_rows(17, 33, 1), "random");
  expect_bounds_bracket_exact(random_rows(30, 9, 2, 50.0), "random-wide");
}

TEST(PrunedOracle, BoundsBracketExactOnCancellationHeavyRows) {
  expect_bounds_bracket_exact(cancellation_rows(15, 64, 3), "cancellation");
}

TEST(PrunedOracle, BoundsBracketExactOnDuplicateRows) {
  expect_bounds_bracket_exact(duplicate_rows(16, 21, 4), "duplicates");
}

TEST(PrunedOracle, BoundsBracketExactOnHugeNormRows) {
  expect_bounds_bracket_exact(huge_norm_rows(12, 4, 5), "huge-norm");
}

TEST(PrunedOracle, BoundsBracketExactInFastMathMode) {
  // Fast mode changes the exact doubles (reassociated reductions); the
  // slack must still cover the fast kernels' rounding.
  kernels::MathModeScope scope(kernels::MathMode::kFast);
  expect_bounds_bracket_exact(random_rows(17, 1031, 6), "fast-random");
  expect_bounds_bracket_exact(cancellation_rows(12, 1000, 7), "fast-cancellation");
}

TEST(PrunedOracle, ApproxMatrixIsSymmetricDeterministicAndUnbiasedish) {
  const auto rows = random_rows(13, 257, 8);
  const GradientBatch batch = GradientBatch::from_vectors(rows);
  PrunedDistanceOracle oracle;
  std::vector<double> a(13 * 13), b(13 * 13);
  oracle.fill_approx(batch, a);
  oracle.fill_approx(batch, b);
  EXPECT_EQ(a, b);  // pure function of the input bytes
  for (size_t i = 0; i < 13; ++i) {
    EXPECT_EQ(a[i * 13 + i], 0.0);
    for (size_t j = 0; j < 13; ++j) EXPECT_EQ(a[i * 13 + j], a[j * 13 + i]);
  }
  // JL at k = 32 concentrates within a few sqrt(2/k) ≈ 25% of exact —
  // assert a loose factor-of-2 envelope, which a broken sketch (wrong
  // scaling, sign table, or indexing) misses by orders of magnitude.
  for (size_t i = 0; i < 13; ++i)
    for (size_t j = i + 1; j < 13; ++j) {
      const double exact = vec::dist_sq(batch.row(i), batch.row(j));
      EXPECT_GT(a[i * 13 + j], exact * 0.5);
      EXPECT_LT(a[i * 13 + j], exact * 2.0);
    }
}

TEST(PrunedOracle, SketchSignTableMatchesHashDefinition) {
  const auto rows = random_rows(3, 5, 9);
  const GradientBatch batch = GradientBatch::from_vectors(rows);
  BatchSketch sketch;
  sketch.compute(batch);
  // Reproject row 0 from scratch through the documented hash.
  const double scale = 1.0 / std::sqrt(static_cast<double>(BatchSketch::kDim));
  for (size_t l = 0; l < BatchSketch::kDim; ++l) {
    double acc = 0.0;
    for (size_t c = 0; c < 5; ++c) acc += batch.row(0)[c] * BatchSketch::sign(c, l);
    EXPECT_EQ(sketch.projected(0)[l], acc * scale);
  }
}

// ---- prune=exact bit-identity ----------------------------------------------

/// Honest cluster + f identical forged rows (exact score ties).
std::vector<Vector> adversarial_tied(size_t n, size_t f, size_t d, uint64_t seed) {
  auto g = random_rows(n - f, d, seed);
  Vector forged = g[0];
  for (double& x : forged) x *= 1.001;
  for (size_t i = 0; i < f; ++i) g.push_back(forged);
  // Duplicate two honest rows on top, so honest-vs-honest also ties.
  if (n - f >= 3) g[1] = g[2];
  return g;
}

struct PruneCase {
  const char* gar;
  size_t n, f;
};

class PruneExactBitIdentical : public ::testing::TestWithParam<PruneCase> {};

void expect_exact_matches_off(const std::string& name, size_t n, size_t f,
                              const std::vector<Vector>& inputs, const char* label) {
  const GradientBatch batch = GradientBatch::from_vectors(inputs);
  const auto off = make_aggregator(name, n, f, PruneMode::kOff);
  const auto exact = make_aggregator(name, n, f, PruneMode::kExact);
  AggregatorWorkspace ws_off, ws_exact;
  const auto off_view = off->aggregate(batch, ws_off);
  const Vector want(off_view.begin(), off_view.end());
  const auto exact_view = exact->aggregate(batch, ws_exact);
  const Vector got(exact_view.begin(), exact_view.end());
  EXPECT_EQ(got, want) << name << " prune=exact diverges from prune=off on " << label
                       << " (n=" << n << ", f=" << f << ")";
  // Workspace reuse across calls must stay stateless (the oracle carries
  // no cross-call invariants).
  const auto again = exact->aggregate(batch, ws_exact);
  EXPECT_EQ(Vector(again.begin(), again.end()), want) << name << " reuse on " << label;
}

TEST_P(PruneExactBitIdentical, OnSeededRandomInputs) {
  const auto& p = GetParam();
  for (uint64_t seed : {11u, 12u, 13u})
    expect_exact_matches_off(p.gar, p.n, p.f, random_rows(p.n, 19, seed), "random");
}

TEST_P(PruneExactBitIdentical, OnAdversarialTies) {
  const auto& p = GetParam();
  for (uint64_t seed : {14u, 15u})
    expect_exact_matches_off(p.gar, p.n, p.f, adversarial_tied(p.n, p.f, 7, seed),
                             "adversarial-tied");
}

TEST_P(PruneExactBitIdentical, OnCancellationHeavyInputs) {
  const auto& p = GetParam();
  expect_exact_matches_off(p.gar, p.n, p.f, cancellation_rows(p.n, 23, 16),
                           "cancellation");
}

TEST_P(PruneExactBitIdentical, InFastMathMode) {
  const auto& p = GetParam();
  kernels::MathModeScope scope(kernels::MathMode::kFast);
  expect_exact_matches_off(p.gar, p.n, p.f, random_rows(p.n, 301, 17), "fast-random");
}

INSTANTIATE_TEST_SUITE_P(AllSelectionGars, PruneExactBitIdentical,
                         ::testing::Values(PruneCase{"krum", 11, 3},
                                           PruneCase{"krum", 25, 5},
                                           PruneCase{"multi-krum", 11, 3},
                                           PruneCase{"multi-krum", 25, 5},
                                           PruneCase{"mda", 11, 3},
                                           PruneCase{"mda", 14, 4},
                                           PruneCase{"mda_greedy", 11, 3},
                                           PruneCase{"mda_greedy", 25, 8},
                                           PruneCase{"bulyan", 11, 2},
                                           PruneCase{"bulyan", 25, 5}));

TEST(PruneExact, SelectionHelpersMatchUnpruned) {
  const auto inputs = adversarial_tied(25, 5, 9, 18);
  EXPECT_EQ(Mda(25, 5, PruneMode::kExact).select_subset(inputs),
            Mda(25, 5).select_subset(inputs));
  EXPECT_EQ(Bulyan(25, 5, PruneMode::kExact).select_indices(inputs),
            Bulyan(25, 5).select_indices(inputs));
}

TEST(PruneExact, ActuallyPrunesOnLowIntrinsicDimensionData) {
  // Sanity that the machinery earns its keep.  Certified triangle bounds
  // only resolve pairs when the data has low intrinsic dimension (for an
  // iid Gaussian cloud, |d(i,p) - d(j,p)| is a vanishing fraction of
  // d(i,j) and every candidate must be evaluated exactly — the honest
  // worst case).  Collinear rows are the favourable extreme: with pivots
  // beyond the segment the bound is exact up to slack, so after the
  // JL-rank-first candidate sets the score to beat, every other
  // candidate is certified away.  The bench's structured generator
  // reproduces this geometry at scale.
  const size_t n = 60, f = 10, d = 128;
  Rng rng(19);
  Vector dir = rng.normal_vector(d, 1.0);
  vec::scale_inplace(dir, 1.0 / std::sqrt(vec::norm_sq(dir)));
  std::vector<Vector> rows;
  for (size_t i = 0; i < n; ++i) {
    // Honest rows spread along [0, 0.98]; Byzantine rows far down the
    // same line (still collinear, so their bounds are tight too).
    const double z = i < n - f ? 0.02 * static_cast<double>(i)
                               : 100.0 + static_cast<double>(i);
    Vector v = dir;
    vec::scale_inplace(v, z);
    rows.push_back(std::move(v));
  }
  const GradientBatch batch = GradientBatch::from_vectors(rows);
  const Krum off(n, f, PruneMode::kOff);
  const Krum exact(n, f, PruneMode::kExact);
  AggregatorWorkspace ws_off, ws_exact;
  const auto off_view = off.aggregate(batch, ws_off);
  const Vector want(off_view.begin(), off_view.end());
  const auto exact_view = exact.aggregate(batch, ws_exact);
  EXPECT_EQ(Vector(exact_view.begin(), exact_view.end()), want);
  EXPECT_LT(ws_exact.oracle.exact_pairs(), ws_exact.oracle.total_pairs() / 2)
      << "pruning resolved fewer than half the pairs on an easy instance";
}

TEST(PruneExact, ShardedCompositionBitIdentical) {
  // One-level tree (the sharded topology): each child prunes within its
  // own rows, and every inner selection is bit-identical, so the
  // composition is too.
  const size_t n = 33, f = 2, shards = 3;
  const auto inputs = adversarial_tied(n, f, 13, 20);
  const GradientBatch batch = GradientBatch::from_vectors(inputs);
  const HierarchicalAggregator off("krum", "median", n, f, 1, shards, 1, PruneMode::kOff);
  const HierarchicalAggregator exact("krum", "median", n, f, 1, shards, 1,
                                     PruneMode::kExact);
  AggregatorWorkspace ws_off, ws_exact;
  const auto off_view = off.aggregate(batch, ws_off);
  const Vector want(off_view.begin(), off_view.end());
  const auto exact_view = exact.aggregate(batch, ws_exact);
  EXPECT_EQ(Vector(exact_view.begin(), exact_view.end()), want);
}

// ---- prune=approx -----------------------------------------------------------

TEST(PruneApprox, DeterministicAcrossCallsAndWorkspaces) {
  const auto inputs = random_rows(15, 65, 21);
  const GradientBatch batch = GradientBatch::from_vectors(inputs);
  for (const char* name : {"krum", "multi-krum", "mda", "mda_greedy", "bulyan"}) {
    const auto agg = make_aggregator(name, 15, 3, PruneMode::kApprox);
    AggregatorWorkspace ws1, ws2;
    const auto v1 = agg->aggregate(batch, ws1);
    const Vector first(v1.begin(), v1.end());
    const auto v2 = agg->aggregate(batch, ws2);
    EXPECT_EQ(Vector(v2.begin(), v2.end()), first) << name;
    const auto v3 = agg->aggregate(batch, ws1);  // reuse
    EXPECT_EQ(Vector(v3.begin(), v3.end()), first) << name;
  }
}

TEST(PruneApprox, ExcludesByzantineOnWellSeparatedCommittees) {
  // Byzantine rows 1000 cluster-widths away: the sketch's ~25% relative
  // error cannot move a Byzantine row across that margin, so every
  // selection GAR must keep its output inside the honest cluster.  What
  // IS guaranteed varies by rule — among near-tied honest rows the
  // sketch may legitimately reorder, so only the rules whose selection
  // set is forced (MDA's unique honest (n-f)-subset) stay bit-identical
  // to exact; the others get the strongest assertion their contract
  // supports.
  const size_t n = 13, f = 2, d = 64;  // Bulyan needs n >= 4f + 3
  Rng rng(22);
  std::vector<Vector> rows;
  for (size_t i = 0; i < n - f; ++i) rows.push_back(rng.normal_vector(d, 0.01));
  for (size_t i = 0; i < f; ++i) {
    Vector v = rng.normal_vector(d, 0.01);
    v[0] += 10.0;
    rows.push_back(std::move(v));
  }
  const GradientBatch batch = GradientBatch::from_vectors(rows);

  auto aggregate = [&](const char* name, PruneMode mode) {
    const auto agg = make_aggregator(name, n, f, mode);
    AggregatorWorkspace ws;
    const auto view = agg->aggregate(batch, ws);
    return Vector(view.begin(), view.end());
  };

  // Krum copies one row: the approx winner must be an honest row (any
  // Byzantine row's score is larger by ~f * 100 against a <= 25% sketch
  // error), though not necessarily exact mode's honest winner.
  {
    const Vector out = aggregate("krum", PruneMode::kApprox);
    bool is_honest_row = false;
    for (size_t i = 0; i < n - f; ++i)
      if (out == rows[i]) is_honest_row = true;
    EXPECT_TRUE(is_honest_row) << "approx Krum picked a non-honest row";
  }
  // MDA (exhaustive and greedy) selects an (n-f)-subset: the only one
  // free of the far rows is the honest set itself, and the aggregate is
  // its index-ordered mean — bit-identical to exact mode.
  for (const char* name : {"mda", "mda_greedy"})
    EXPECT_EQ(aggregate(name, PruneMode::kApprox), aggregate(name, PruneMode::kOff))
        << name;
  // MultiKrum averages the m = n - f lowest-score rows — the honest set
  // again, but its accumulation order follows the (approx) score sort,
  // so the mean agrees only up to reassociation ULPs.
  {
    const Vector want = aggregate("multi-krum", PruneMode::kOff);
    const Vector got = aggregate("multi-krum", PruneMode::kApprox);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i)
      EXPECT_NEAR(got[i], want[i], 1e-12) << "multi-krum coordinate " << i;
  }
  // Bulyan's theta-subset of the honest rows may differ between the two
  // modes (honest rows are near-tied), but every selected row is honest,
  // so the trimmed mean stays inside the cluster: coordinate 0 must not
  // carry any of the +10 Byzantine offset.
  {
    const Vector want = aggregate("bulyan", PruneMode::kOff);
    const Vector got = aggregate("bulyan", PruneMode::kApprox);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_LT(std::abs(got[0]), 1.0);
    for (size_t i = 0; i < got.size(); ++i)
      EXPECT_NEAR(got[i], want[i], 0.1) << "bulyan coordinate " << i;
  }
}

// ---- config plumbing --------------------------------------------------------

TEST(PruneConfig, ParseAndNameRoundTrip) {
  EXPECT_EQ(parse_prune_mode("off"), PruneMode::kOff);
  EXPECT_EQ(parse_prune_mode("exact"), PruneMode::kExact);
  EXPECT_EQ(parse_prune_mode("approx"), PruneMode::kApprox);
  EXPECT_THROW(parse_prune_mode("fast"), std::invalid_argument);
  EXPECT_STREQ(prune_mode_name(PruneMode::kOff), "off");
  EXPECT_STREQ(prune_mode_name(PruneMode::kExact), "exact");
  EXPECT_STREQ(prune_mode_name(PruneMode::kApprox), "approx");
}

TEST(PruneConfig, ValidateAndLabelCarryTheKnob) {
  ExperimentConfig c;
  c.prune = "exact";
  c.validate();
  EXPECT_NE(c.label().find("+prune(exact)"), std::string::npos);
  c.prune = "banana";
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.prune = "off";
  c.validate();
  EXPECT_EQ(c.label().find("+prune"), std::string::npos);
}

TEST(PruneConfig, TrainerPruneExactMatchesOff) {
  BlobsConfig bc;
  bc.num_samples = 80;
  bc.num_features = 12;
  bc.separation = 4.0;
  const Dataset data = make_blobs(bc, 23);
  const LinearModel model(12, LinearLoss::kMseOnSigmoid);

  ExperimentConfig c;
  c.num_workers = 11;
  c.num_byzantine = 2;
  c.gar = "krum";
  c.steps = 6;
  c.eval_every = 6;
  c.batch_size = 5;
  const RunResult off = Trainer(c, model, data, data).run();
  ExperimentConfig ce = c;
  ce.prune = "exact";
  const RunResult exact = Trainer(ce, model, data, data).run();
  EXPECT_EQ(exact.final_parameters, off.final_parameters);
  EXPECT_EQ(exact.train_loss, off.train_loss);
}

// ---- thread-width determinism (runs under the TSAN CI job) ------------------

TEST(MathKernelsThreadedPruning, TrainerPruneExactBitIdenticalAcrossThreadWidths) {
  BlobsConfig bc;
  bc.num_samples = 60;
  bc.num_features = 10;
  bc.separation = 4.0;
  const Dataset data = make_blobs(bc, 24);
  const LinearModel model(10, LinearLoss::kMseOnSigmoid);

  ExperimentConfig c;
  c.num_workers = 12;
  c.num_byzantine = 2;
  c.gar = "krum";
  c.tree_levels = 1;  // per-child workspaces aggregate concurrently at T>1
  c.tree_branch = 2;
  c.shard_merge_gar = "average";
  c.prune = "exact";
  c.steps = 5;
  c.eval_every = 5;
  c.batch_size = 5;
  c.threads = 1;
  const RunResult serial = Trainer(c, model, data, data).run();
  ExperimentConfig ct = c;
  ct.threads = 4;
  const RunResult threaded = Trainer(ct, model, data, data).run();
  EXPECT_EQ(threaded.final_parameters, serial.final_parameters);
  EXPECT_EQ(threaded.train_loss, serial.train_loss);
}

}  // namespace
}  // namespace dpbyz
