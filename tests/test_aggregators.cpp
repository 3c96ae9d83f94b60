// Per-GAR unit tests: exact behaviour on hand-computable inputs,
// admissibility constraints, the k_F(n, f) table, the distinct-row
// distance matrix, and the rejection of non-finite rows by every rule and
// tree (these run under the ASAN + UBSAN CI job).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>

#include "aggregation/aggregator.hpp"
#include "aggregation/average.hpp"
#include "aggregation/bulyan.hpp"
#include "aggregation/cge.hpp"
#include "aggregation/geometric_median.hpp"
#include "aggregation/hierarchical.hpp"
#include "aggregation/kf_table.hpp"
#include "aggregation/krum.hpp"
#include "aggregation/mda.hpp"
#include "aggregation/meamed.hpp"
#include "aggregation/median.hpp"
#include "aggregation/phocas.hpp"
#include "aggregation/trimmed_mean.hpp"
#include "bits_digest.hpp"
#include "math/rng.hpp"
#include "net/transport.hpp"

namespace dpbyz {
namespace {

std::vector<Vector> cluster_plus_outlier(size_t honest, size_t byz, double outlier_value) {
  std::vector<Vector> g;
  Rng rng(7);
  for (size_t i = 0; i < honest; ++i)
    g.push_back({1.0 + 0.01 * rng.normal(), 1.0 + 0.01 * rng.normal()});
  for (size_t i = 0; i < byz; ++i) g.push_back({outlier_value, -outlier_value});
  return g;
}

TEST(Average, IsExactMean) {
  Average agg(2, 0);
  const std::vector<Vector> g{{1.0, 3.0}, {3.0, 5.0}};
  EXPECT_EQ(agg.aggregate(g), (Vector{2.0, 4.0}));
  EXPECT_TRUE(std::isnan(agg.vn_threshold()));
}

TEST(Average, IsBrokenByOneOutlier) {
  // Documents *why* robust GARs exist: a single Byzantine worker moves
  // the average arbitrarily far.
  Average agg(5, 1);
  auto g = cluster_plus_outlier(4, 1, 1e6);
  const Vector out = agg.aggregate(g);
  EXPECT_GT(vec::norm(out), 1e5);
}

TEST(Krum, PicksAClusterMemberDespiteOutliers) {
  Krum agg(11, 4);  // n >= 2f + 3
  auto g = cluster_plus_outlier(7, 4, 100.0);
  const Vector out = agg.aggregate(g);
  EXPECT_NEAR(out[0], 1.0, 0.1);
  EXPECT_NEAR(out[1], 1.0, 0.1);
}

TEST(Krum, OutputIsOneOfTheInputs) {
  Krum agg(7, 2);
  auto g = cluster_plus_outlier(5, 2, 50.0);
  const Vector out = agg.aggregate(g);
  bool found = false;
  for (const auto& v : g)
    if (v == out) found = true;
  EXPECT_TRUE(found);
}

TEST(Krum, AdmissibilityBoundary) {
  EXPECT_NO_THROW(Krum(7, 2));   // n = 2f + 3
  EXPECT_THROW(Krum(6, 2), std::invalid_argument);
  EXPECT_THROW(Krum(4, 1), std::invalid_argument);
}

TEST(MultiKrum, AveragesBestCandidates) {
  MultiKrum agg(11, 4);
  auto g = cluster_plus_outlier(7, 4, 100.0);
  const Vector out = agg.aggregate(g);
  EXPECT_NEAR(out[0], 1.0, 0.1);
}

TEST(Mda, SelectsTheTightCluster) {
  Mda agg(11, 5);
  auto g = cluster_plus_outlier(6, 5, 10.0);
  const GradientBatch batch = GradientBatch::from_vectors(g);
  AggregatorWorkspace ws;
  agg.select_subset_view(batch, ws);
  const auto& subset = ws.selected;
  EXPECT_EQ(subset.size(), 6u);
  for (size_t i : subset) EXPECT_LT(i, 6u);  // all honest indices
  const Vector out = agg.aggregate(g);
  EXPECT_NEAR(out[0], 1.0, 0.05);
}

TEST(Mda, SubsetCountFormula) {
  EXPECT_DOUBLE_EQ(Mda::subset_count(11, 5), 462.0);
  EXPECT_DOUBLE_EQ(Mda::subset_count(5, 1), 5.0);
}

TEST(Mda, AdmissibilityBoundary) {
  EXPECT_NO_THROW(Mda(3, 1));  // n = 2f + 1
  EXPECT_THROW(Mda(2, 1), std::invalid_argument);
  EXPECT_THROW(Mda(4, 0), std::invalid_argument);
}

TEST(Mda, RefusesCombinatorialExplosion) {
  // C(101, 50) is astronomically above the search cap; the constructor
  // must refuse instead of hanging.
  EXPECT_GT(Mda::subset_count(101, 50), Mda::kMaxSubsets);
  EXPECT_THROW(Mda(101, 50), std::invalid_argument);
  // Near the cap it must still accept: C(25, 12) ~ 5.2e6 > cap,
  // C(23, 11) ~ 1.35e6 < cap.
  EXPECT_NO_THROW(Mda(23, 11));
}

TEST(MdaGreedy, AdmissibleBeyondTheExactCap) {
  // The motivating case: C(101, 50) explodes the exact search; the
  // greedy variant constructs fine and still filters the outliers.
  EXPECT_THROW(Mda(101, 50), std::invalid_argument);
  EXPECT_NO_THROW(MdaGreedy(101, 50));
  EXPECT_THROW(MdaGreedy(2, 1), std::invalid_argument);   // n < 2f + 1
  EXPECT_THROW(MdaGreedy(4, 0), std::invalid_argument);   // f = 0
  EXPECT_TRUE(std::isnan(MdaGreedy(101, 50).vn_threshold()));
}

TEST(MdaGreedy, ExcludesOutliersViaMedianSeed) {
  MdaGreedy agg(11, 5);
  auto g = cluster_plus_outlier(6, 5, 10.0);
  const Vector out = agg.aggregate(g);
  EXPECT_NEAR(out[0], 1.0, 0.05);
  EXPECT_NEAR(out[1], 1.0, 0.05);
}

TEST(MdaGreedy, MatchesExactMdaOnEasyInstances) {
  // With a tight honest cluster and far outliers the local search finds
  // the global optimum — same subset, bit-identical mean.
  Mda exact(11, 3);
  MdaGreedy greedy(11, 3);
  auto g = cluster_plus_outlier(8, 3, 50.0);
  EXPECT_EQ(exact.aggregate(g), greedy.aggregate(g));
}

TEST(MdaGreedy, NeverWorseThanItsSeedSubsetAndDeterministic) {
  // On a hard random instance the greedy diameter must be <= the
  // coordinate-median-nearest seed subset's, and repeated runs (and
  // workspace reuse) must agree exactly.
  const size_t n = 31, f = 12, d = 9;
  Rng rng(17);
  std::vector<Vector> g;
  for (size_t i = 0; i < n; ++i) g.push_back(rng.normal_vector(d, 1.0));
  const GradientBatch batch = GradientBatch::from_vectors(g);

  MdaGreedy agg(n, f);
  AggregatorWorkspace ws;
  agg.select_subset_view(batch, ws);
  const std::vector<size_t> subset = ws.selected;
  ASSERT_EQ(subset.size(), n - f);
  const double greedy_diam = MdaGreedy::subset_diameter(ws.dist_sq, n, subset);

  // Rebuild the seed subset (nearest the coordinate-wise median).
  Vector median(d);
  std::vector<double> column(n);
  for (size_t c = 0; c < d; ++c) {
    for (size_t i = 0; i < n; ++i) column[i] = g[i][c];
    std::sort(column.begin(), column.end());
    median[c] = n % 2 == 1 ? column[n / 2]
                           : 0.5 * (column[n / 2 - 1] + column[n / 2]);
  }
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const double da = vec::dist_sq(g[a], median), db = vec::dist_sq(g[b], median);
    if (da != db) return da < db;
    return a < b;
  });
  const std::vector<size_t> seed_subset(order.begin(), order.begin() + (n - f));
  const double seed_diam = MdaGreedy::subset_diameter(ws.dist_sq, n, seed_subset);
  EXPECT_LE(greedy_diam, seed_diam);

  // Determinism across calls on a recycled workspace.
  const Vector first = agg.aggregate(g);
  agg.select_subset_view(batch, ws);
  EXPECT_EQ(ws.selected, subset);
  EXPECT_EQ(agg.aggregate(g), first);
}

TEST(Krum, ArgminTieBreaksLexicographically) {
  // Two identical scores: the lexicographically smaller vector wins,
  // regardless of position.
  const std::vector<Vector> g{{2.0, 0.0}, {1.0, 0.0}};
  const std::vector<double> scores{0.5, 0.5};
  EXPECT_EQ(krum_argmin(g, scores), 1u);
  const std::vector<Vector> g2{{1.0, 0.0}, {2.0, 0.0}};
  EXPECT_EQ(krum_argmin(g2, scores), 0u);
}

TEST(Krum, FreeScoresMatchMatrixScores) {
  Rng rng(3);
  std::vector<Vector> g;
  for (int i = 0; i < 9; ++i) g.push_back(rng.normal_vector(4, 1.0));
  AggregatorWorkspace ws;
  fill_dist_sq(GradientBatch::from_vectors(g), ws);
  const std::vector<size_t> pool{0, 1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<double> scores(9);
  krum_scores_from_matrix(ws.dist_sq, 9, pool, 3, scores, ws.row);
  EXPECT_EQ(scores, krum_scores(g, 3));
}

TEST(Mda, MatchesBruteForceOnSmallInstance) {
  // n = 5, f = 2: 10 subsets of size 3; verify against exhaustive search.
  Mda agg(5, 2);
  Rng rng(3);
  std::vector<Vector> g;
  for (int i = 0; i < 5; ++i) g.push_back(rng.normal_vector(3, 1.0));

  double best = std::numeric_limits<double>::infinity();
  Vector best_mean;
  for (size_t a = 0; a < 5; ++a)
    for (size_t b = a + 1; b < 5; ++b)
      for (size_t c = b + 1; c < 5; ++c) {
        const double diam = std::max({vec::dist(g[a], g[b]), vec::dist(g[a], g[c]),
                                      vec::dist(g[b], g[c])});
        if (diam < best) {
          best = diam;
          const std::vector<size_t> idx{a, b, c};
          best_mean = vec::mean_of(g, idx);
        }
      }
  EXPECT_TRUE(vec::approx_equal(agg.aggregate(g), best_mean, 1e-12));
}

TEST(CoordinateMedian, ExactOnKnownInput) {
  CoordinateMedian agg(3, 1);
  const std::vector<Vector> g{{1.0, 10.0}, {2.0, -5.0}, {100.0, 0.0}};
  EXPECT_EQ(agg.aggregate(g), (Vector{2.0, 0.0}));
}

TEST(CoordinateMedian, AdmissibilityBoundary) {
  EXPECT_NO_THROW(CoordinateMedian(3, 1));  // 2f = n - 1
  EXPECT_THROW(CoordinateMedian(2, 1), std::invalid_argument);
}

TEST(TrimmedMean, DropsExtremesPerCoordinate) {
  TrimmedMean agg(5, 1);
  const std::vector<Vector> g{{0.0}, {1.0}, {2.0}, {3.0}, {1000.0}};
  // Drop 0 and 1000, average {1,2,3} = 2.
  EXPECT_EQ(agg.aggregate(g), (Vector{2.0}));
}

TEST(TrimmedMean, ScalarHelperValidates) {
  EXPECT_DOUBLE_EQ(TrimmedMean::trimmed_mean_scalar({5.0, 1.0, 3.0}, 1), 3.0);
  EXPECT_THROW(TrimmedMean::trimmed_mean_scalar({1.0, 2.0}, 1), std::invalid_argument);
}

TEST(TrimmedMean, AdmissibilityBoundary) {
  EXPECT_NO_THROW(TrimmedMean(3, 1));
  EXPECT_THROW(TrimmedMean(2, 1), std::invalid_argument);
}

TEST(Bulyan, RequiresLargeN) {
  EXPECT_NO_THROW(Bulyan(7, 1));  // n = 4f + 3
  EXPECT_THROW(Bulyan(6, 1), std::invalid_argument);
  EXPECT_THROW(Bulyan(10, 2), std::invalid_argument);
}

TEST(Bulyan, SelectsThetaIndices) {
  Bulyan agg(7, 1);
  auto g = cluster_plus_outlier(6, 1, 100.0);
  const GradientBatch batch = GradientBatch::from_vectors(g);
  AggregatorWorkspace ws;
  agg.select_indices_view(batch, ws);
  const auto& sel = ws.selected;
  EXPECT_EQ(sel.size(), 5u);  // theta = n - 2f
  // The far outlier (index 6) must not be selected.
  for (size_t i : sel) EXPECT_LT(i, 6u);
}

TEST(Bulyan, RobustToOutliers) {
  Bulyan agg(11, 2);
  auto g = cluster_plus_outlier(9, 2, 100.0);
  const Vector out = agg.aggregate(g);
  EXPECT_NEAR(out[0], 1.0, 0.1);
  EXPECT_NEAR(out[1], 1.0, 0.1);
}

TEST(Meamed, MeanAroundMedianExact) {
  Meamed agg(3, 1);
  const std::vector<Vector> g{{0.0}, {1.0}, {100.0}};
  // median 1; two closest values {0, 1} -> mean 0.5.
  EXPECT_EQ(agg.aggregate(g), (Vector{0.5}));
}

TEST(Phocas, MeanAroundTrimmedMeanExact) {
  Phocas agg(3, 1);
  const std::vector<Vector> g{{0.0}, {1.0}, {100.0}};
  // trimmed mean (drop 0 and 100) = 1; closest two {0,1} -> 0.5.
  EXPECT_EQ(agg.aggregate(g), (Vector{0.5}));
}

TEST(Cge, KeepsSmallestNormGradients) {
  Cge agg(3, 1);
  const std::vector<Vector> g{{1.0, 0.0}, {0.0, 2.0}, {100.0, 100.0}};
  const GradientBatch batch = GradientBatch::from_vectors(g);
  AggregatorWorkspace ws;
  agg.select_indices_view(batch, ws);
  const auto& sel = ws.selected;
  EXPECT_EQ(sel.size(), 2u);
  // Norms 1, 2, 141: keep indices {0, 1}.
  EXPECT_EQ(sel[0], 0u);
  EXPECT_EQ(sel[1], 1u);
  EXPECT_EQ(agg.aggregate(g), (Vector{0.5, 1.0}));
}

TEST(Cge, FiltersLargeNormAttack) {
  Cge agg(11, 5);
  auto g = cluster_plus_outlier(6, 5, 1000.0);
  const Vector out = agg.aggregate(g);
  EXPECT_NEAR(out[0], 1.0, 0.05);
}

TEST(Cge, CannotFilterSmallNormAttack) {
  // The known weakness: a zero gradient has the smallest possible norm
  // and always survives norm filtering.  Documents the trade-off.
  Cge agg(3, 1);
  const std::vector<Vector> g{{1.0}, {1.1}, {0.0}};
  const Vector out = agg.aggregate(g);
  EXPECT_LT(out[0], 1.0);  // dragged toward zero by the surviving attacker
}

TEST(Cge, AdmissibilityBoundary) {
  EXPECT_NO_THROW(Cge(3, 1));
  EXPECT_THROW(Cge(2, 1), std::invalid_argument);
}

TEST(GeometricMedian, MatchesMedianOnCollinearPoints) {
  GeometricMedian agg(3, 1);
  const std::vector<Vector> g{{0.0, 0.0}, {1.0, 0.0}, {10.0, 0.0}};
  const Vector out = agg.aggregate(g);
  // 1-d geometric median is the (coordinate) median.
  EXPECT_NEAR(out[0], 1.0, 1e-6);
  EXPECT_NEAR(out[1], 0.0, 1e-9);
}

TEST(GeometricMedian, RobustToMinorityOutliers) {
  GeometricMedian agg(11, 5);
  auto g = cluster_plus_outlier(6, 5, 1e4);
  const Vector out = agg.aggregate(g);
  EXPECT_NEAR(out[0], 1.0, 0.5);
}

TEST(KfTable, MatchesPaperValuesAtPaperSetting) {
  // n = 11, f = 5: MDA k = 6 / (sqrt(8) * 5).
  EXPECT_DOUBLE_EQ(kf::mda(11, 5), 6.0 / (std::sqrt(8.0) * 5.0));
  // Median: 1/sqrt(n - f) = 1/sqrt(6).
  EXPECT_DOUBLE_EQ(kf::median(11, 5), 1.0 / std::sqrt(6.0));
  EXPECT_DOUBLE_EQ(kf::meamed(11, 5), 1.0 / std::sqrt(60.0));
  // Trimmed mean at n=11, f=5: sqrt(1 / (2*6*6)) = 1/(6 sqrt 2).
  EXPECT_DOUBLE_EQ(kf::trimmed_mean(11, 5), std::sqrt(1.0 / 72.0));
  EXPECT_DOUBLE_EQ(kf::phocas(11, 5), std::sqrt(4.0 + 1.0 / (12.0 * 6.0 * 6.0)));
}

TEST(KfTable, KrumEtaFormula) {
  // n = 11, f = 4: eta = 7 + (4*5 + 16*6)/1 = 123.
  EXPECT_DOUBLE_EQ(kf::krum_eta(11, 4), 123.0);
  EXPECT_DOUBLE_EQ(kf::krum(11, 4), 1.0 / std::sqrt(246.0));
  EXPECT_THROW(kf::krum_eta(10, 4), std::invalid_argument);
}

TEST(KfTable, MdaHasLargestThresholdAtPaperSetting) {
  // §5.1: MDA has the largest VN bound among the presented GARs at
  // n = 11, f = 5 (Krum inadmissible there, compare the admissible ones).
  const double mda = kf::mda(11, 5);
  EXPECT_GT(mda, kf::median(11, 5));
  EXPECT_GT(mda, kf::meamed(11, 5));
  EXPECT_GT(mda, kf::trimmed_mean(11, 5));
}

TEST(Factory, CreatesEveryAdvertisedGar) {
  // n = 23, f = 5 is admissible for every rule in the registry.
  for (const auto& name : aggregator_names()) {
    const auto agg = make_aggregator(name, 23, 5);
    ASSERT_NE(agg, nullptr) << name;
    EXPECT_EQ(agg->name(), name);
    EXPECT_EQ(agg->n(), 23u);
    EXPECT_EQ(agg->f(), 5u);
  }
}

TEST(Factory, UnknownNameThrows) {
  EXPECT_THROW(make_aggregator("nope", 11, 5), std::invalid_argument);
}

TEST(Aggregator, RejectsMalformedInputs) {
  Average agg(3, 0);
  std::vector<Vector> wrong_count{{1.0}, {2.0}};
  EXPECT_THROW(agg.aggregate(wrong_count), std::invalid_argument);
  std::vector<Vector> ragged{{1.0}, {2.0}, {3.0, 4.0}};
  EXPECT_THROW(agg.aggregate(ragged), std::invalid_argument);
  std::vector<Vector> with_nan{{1.0}, {2.0}, {std::nan("")}};
  EXPECT_THROW(agg.aggregate(with_nan), std::invalid_argument);
}

// ---- distinct-row distance matrix -------------------------------------------

GradientBatch normal_batch(size_t n, size_t d, uint64_t seed) {
  GradientBatch batch(n, d);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i)
    for (double& x : batch.row(i)) x = rng.normal();
  return batch;
}

void copy_row(GradientBatch& batch, size_t from, size_t to) {
  vec::copy(batch.row(from), batch.row(to));
}

/// fill_dist_sq at `threads` against vec::dist_sq on every pair, bit for
/// bit; returns fill_dist_sq's certificate.
bool expect_matches_brute_force(const GradientBatch& batch, size_t threads,
                                const std::string& label) {
  const size_t n = batch.rows();
  AggregatorWorkspace ws;
  ws.threads = threads;
  const bool certified = fill_dist_sq(batch, ws);
  EXPECT_EQ(ws.dist_sq.size(), n * n) << label;
  std::vector<double> want(n * n, 0.0);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j)
      if (i != j) want[i * n + j] = vec::dist_sq(batch.row(i), batch.row(j));
  EXPECT_TRUE(testing_support::same_bits(ws.dist_sq, want))
      << label << " threads " << threads;
  return certified;
}

TEST(FillDistSq, DistinctRowMatrixIsBitIdenticalToBruteForce) {
  // 48 rows at d = 22000: the 40 distinct rows alone clear the pool's
  // 2^24 pair-coordinate gate (780 * 22000), so threads = 4 really forks.
  const size_t n = 48, d = 22000;
  GradientBatch adjacent = normal_batch(n, d, 1);
  for (size_t r = 40; r < n; ++r) copy_row(adjacent, 39, r);  // the colluding tail
  GradientBatch scattered = normal_batch(n, d, 2);
  for (const size_t r : {3, 17, 18, 30, 47}) copy_row(scattered, 5, r);
  for (const size_t r : {9, 44}) copy_row(scattered, 0, r);
  GradientBatch all_equal = normal_batch(n, d, 3);
  for (size_t r = 1; r < n; ++r) copy_row(all_equal, 0, r);
  // Rows that compare == but differ in the sign of a zero stay distinct.
  GradientBatch signed_zero = normal_batch(n, d, 4);
  for (size_t r = 0; r < n; r += 2) {
    signed_zero.row(r)[0] = 0.0;
    signed_zero.row(r)[d - 1] = -0.0;
    if (r + 1 < n) {
      copy_row(signed_zero, r, r + 1);
      signed_zero.row(r + 1)[d - 1] = 0.0;
    }
  }
  for (const size_t threads : {1, 4}) {
    EXPECT_TRUE(expect_matches_brute_force(normal_batch(n, d, 5), threads, "distinct"));
    EXPECT_TRUE(expect_matches_brute_force(adjacent, threads, "adjacent"));
    EXPECT_TRUE(expect_matches_brute_force(scattered, threads, "scattered"));
    // One distinct row certifies nothing: the caller falls back to the sweep.
    EXPECT_FALSE(expect_matches_brute_force(all_equal, threads, "all equal"));
    EXPECT_TRUE(expect_matches_brute_force(signed_zero, threads, "signed zero"));
  }

  AggregatorWorkspace ws;
  fill_dist_sq(adjacent, ws);
  EXPECT_EQ(ws.distinct.size(), 40u);
  EXPECT_EQ(ws.row_class[47], 39u);
  fill_dist_sq(scattered, ws);
  EXPECT_EQ(ws.distinct.size(), n - 7);
  EXPECT_EQ(ws.row_class[44], 0u);
  fill_dist_sq(all_equal, ws);
  EXPECT_EQ(ws.distinct.size(), 1u);
  fill_dist_sq(signed_zero, ws);
  EXPECT_EQ(ws.distinct.size(), n);
}

TEST(FillDistSq, SmallShapesMatchBruteForce) {
  // Every block shape of the lane kernel, with and without copies.
  for (const size_t n : {1, 2, 3, 8, 9, 17}) {
    for (const size_t d : {1, 3, 9}) {
      GradientBatch batch = normal_batch(n, d, 10 * n + d);
      const std::string label = "n " + std::to_string(n) + " d " + std::to_string(d);
      EXPECT_EQ(expect_matches_brute_force(batch, 1, label), n >= 2);
      if (n < 3) continue;
      copy_row(batch, 0, n - 1);
      copy_row(batch, 1, n / 2);
      expect_matches_brute_force(batch, 1, label + " with copies");
    }
  }
}

// ---- non-finite rows -----------------------------------------------------------

constexpr const char* kNonFiniteMessage = "non-finite gradient component";

/// The message `rule` rejects `batch` with, or "accepted".
std::string rejection(const Aggregator& rule, const GradientBatch& batch, size_t threads = 1) {
  AggregatorWorkspace ws;
  ws.threads = threads;
  try {
    rule.aggregate(batch, ws);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "accepted";
}

/// Rows of an (n, d) batch to poison, and a name for the layout.
struct BadLayout {
  std::string name;
  std::vector<size_t> rows;
};

TEST(Aggregator, EveryRuleRejectsNonFiniteRows) {
  const size_t n = 11, f = 2, d = 6;
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<BadLayout> layouts{
      {"first", {0}},
      {"last", {n - 1}},
      {"adjacent copies", {4, 5}},
      {"scattered copies", {1, 6, 10}},
      {"colluding tail", {n - f, n - 1}},
      {"every row", {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
  };
  for (const std::string& name : aggregator_names()) {
    const auto rule = make_aggregator(name, n, f);
    EXPECT_EQ(rejection(*rule, normal_batch(n, d, 7)), "accepted") << name;
    for (const double bad : {std::nan(""), inf, -inf}) {
      for (const size_t coordinate : {size_t{0}, d - 1}) {
        for (const BadLayout& layout : layouts) {
          GradientBatch batch = normal_batch(n, d, 7);
          // Every poisoned row is a bitwise copy of the first one.
          batch.row(layout.rows[0])[coordinate] = bad;
          for (const size_t r : layout.rows) copy_row(batch, layout.rows[0], r);
          for (const size_t threads : {1, 4})
            EXPECT_NE(rejection(*rule, batch, threads).find(kNonFiniteMessage),
                      std::string::npos)
                << name << " " << bad << " at coordinate " << coordinate << ", "
                << layout.name << ", threads " << threads;
        }
      }
    }
  }
}

TEST(Aggregator, FiniteRowsWhoseDistancesOverflowAggregateAsPinned) {
  // Rows near ±1e200: every distance between distinct rows overflows to
  // +inf, so the selection rules' matrix certifies nothing and they fall
  // back to the sweep, which passes.  The outputs are pinned.  Every mda
  // subset then has an infinite diameter, so mda takes the first subset
  // it enumerates, rows 0..8, and returns the bits mda_greedy returns.
  const size_t n = 11, f = 2, d = 5;
  GradientBatch batch(n, d);
  Rng rng(5);
  for (size_t i = 0; i + f < n; ++i)
    for (double& x : batch.row(i)) x = 1e200 * (1.0 + 0.25 * rng.normal());
  for (size_t i = n - f; i < n; ++i) vec::fill(batch.row(i), -1e200);  // colluding copies
  const std::map<std::string, uint64_t> pins{
      {"average", 0x897db487646c7c74ULL},      {"krum", 0x4f52d560f8b88799ULL},
      {"multi-krum", 0x27af7045c43fe65eULL},   {"mda", 0x72fdf1fdf30707d0ULL},
      {"mda_greedy", 0x72fdf1fdf30707d0ULL},   {"median", 0xc701a9cd2871b542ULL},
      {"trimmed-mean", 0xadeb338aad4043a8ULL}, {"bulyan", 0xbffc30dae1ac3466ULL},
      {"meamed", 0xfb4703f126e754e7ULL},       {"phocas", 0x31fdda8d425bf1eaULL},
      {"cge", 0x27af7045c43fe65eULL},          {"geometric-median", 0xc701a9cd2871b542ULL},
  };
  for (const std::string& name : aggregator_names()) {
    const auto rule = make_aggregator(name, n, f);
    for (const size_t threads : {1, 4}) {
      AggregatorWorkspace ws;
      ws.threads = threads;
      EXPECT_EQ(testing_support::bits_digest(rule->aggregate(batch, ws)), pins.at(name))
          << name << " threads " << threads;
    }
  }
}

TEST(Aggregator, TreeRejectsNonFiniteRowsBeforeAnyChannelTraffic) {
  // n = 45 over L = 2, B = 3: 15-row children over 5-row leaves.  At
  // d = 1500 the batch holds 67500 values, enough for the root's sweep to
  // fork at threads = 4.  The bad row sits in the last leaf, so a tree
  // that swept only after running its children would have pushed frames
  // through every earlier edge first.
  const size_t n = 45, f = 2, d = 1500;
  const double inf = std::numeric_limits<double>::infinity();
  const net::LinkConfig link;  // raw64, no faults
  const GradientBatch clean = normal_batch(n, d, 9);
  for (const char* inner : {"krum", "median"}) {
    for (const net::LinkConfig* edge : {static_cast<const net::LinkConfig*>(nullptr), &link}) {
      for (const size_t threads : {1, 4}) {
        const std::string label = std::string(inner) + (edge ? " framed" : " flat") +
                                  " threads " + std::to_string(threads);
        const HierarchicalAggregator tree(inner, "median", n, f, 2, 3, threads, edge);
        for (const double bad : {std::nan(""), inf, -inf}) {
          GradientBatch batch = clean;
          batch.row(n - 1)[d - 1] = bad;
          copy_row(batch, n - 1, n - 2);
          EXPECT_NE(rejection(tree, batch).find(kNonFiniteMessage), std::string::npos)
              << label << " " << bad;
          EXPECT_EQ(tree.channel_stats(), net::ChannelStats{}) << label << " " << bad;
        }
        // The rejections advanced no channel stream: the tree then
        // aggregates a clean batch as a fresh one does.
        const HierarchicalAggregator fresh(inner, "median", n, f, 2, 3, threads, edge);
        AggregatorWorkspace ws, fresh_ws;
        EXPECT_TRUE(testing_support::same_bits(tree.aggregate(clean, ws),
                                               fresh.aggregate(clean, fresh_ws)))
            << label;
        EXPECT_EQ(tree.channel_stats(), fresh.channel_stats()) << label;
      }
    }
  }
}

}  // namespace
}  // namespace dpbyz
