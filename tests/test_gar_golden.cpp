// Golden tests for the GradientBatch refactor: every GAR's view-based
// kernel must produce BIT-IDENTICAL output to the seed implementation
// (preserved in aggregation/reference_gars.hpp) — same doubles, same
// tie-breaks — on seeded random and adversarial inputs.  Exact equality
// (EXPECT_EQ on the vectors) is deliberate: the refactor's contract is
// "same arithmetic, new memory layout", not "close enough".  Every check
// runs at two workspace thread budgets (AggregatorWorkspace::threads),
// and one shape clears the pairwise kernel's pool-dispatch gate, so the
// threaded matrix is pinned to the seed code too.
#include <gtest/gtest.h>

#include <cmath>

#include "aggregation/aggregator.hpp"
#include "aggregation/bulyan.hpp"
#include "aggregation/krum.hpp"
#include "aggregation/mda.hpp"
#include "aggregation/reference_gars.hpp"
#include "math/gradient_batch.hpp"
#include "math/rng.hpp"
#include "math/statistics.hpp"

namespace dpbyz {
namespace {

Vector reference_aggregate(const std::string& name, std::span<const Vector> g, size_t n,
                           size_t f) {
  if (name == "average") return reference::average(g);
  if (name == "krum") return reference::krum(g, f);
  if (name == "multi-krum") return reference::multi_krum(g, n, f);
  if (name == "mda") return reference::mda(g, f);
  if (name == "median") return reference::coordinate_median(g);
  if (name == "trimmed-mean") return reference::trimmed_mean(g, f);
  if (name == "bulyan") return reference::bulyan(g, n, f);
  if (name == "meamed") return reference::meamed(g, f);
  if (name == "phocas") return reference::phocas(g, f);
  if (name == "geometric-median") return reference::geometric_median(g);
  if (name == "cge") return reference::cge(g, n, f);
  throw std::invalid_argument("reference_aggregate: unknown GAR '" + name + "'");
}

/// Honest cluster of n - f gradients around a common mean.
std::vector<Vector> honest_cluster(size_t count, size_t d, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vector> g;
  g.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Vector v = rng.normal_vector(d, 0.5);
    v[0] += 1.0;
    g.push_back(std::move(v));
  }
  return g;
}

/// Seeded random inputs: every worker honest.
std::vector<Vector> random_inputs(size_t n, size_t d, uint64_t seed) {
  return honest_cluster(n, d, seed);
}

/// Adversarial inputs: n - f honest + f IDENTICAL forged rows (the
/// paper's colluding adversary).  Duplicates force exact score ties, so
/// this exercises every lexicographic tie-break path.
std::vector<Vector> adversarial_inputs(size_t n, size_t f, size_t d, uint64_t seed) {
  auto g = honest_cluster(n - f, d, seed);
  Vector mean = stats::coordinate_mean(g);
  const Vector sigma = stats::coordinate_stddev(g);
  vec::axpy_inplace(mean, -1.5, sigma);  // "a little is enough"-style forgery
  for (size_t i = 0; i < f; ++i) g.push_back(mean);
  return g;
}

/// Degenerate inputs: duplicated honest rows on top of the forgery, so
/// even honest-vs-honest distances tie exactly.
std::vector<Vector> tied_inputs(size_t n, size_t f, size_t d, uint64_t seed) {
  auto g = adversarial_inputs(n, f, d, seed);
  for (size_t i = 1; i + f < n && i < 3; ++i) g[i] = g[0];
  return g;
}

class GarGoldenTest : public ::testing::TestWithParam<std::string> {};

/// The workspace thread budgets every golden runs at: serial, and a
/// width that forks wherever the matrix clears the dispatch gate.
constexpr size_t kThreadWidths[] = {1, 4};

void expect_bit_identical(const std::string& name, size_t n, size_t f,
                          const std::vector<Vector>& inputs, const char* label) {
  const auto agg = make_aggregator(name, n, f);
  const GradientBatch batch = GradientBatch::from_vectors(inputs);
  const Vector want = reference_aggregate(name, inputs, n, f);
  for (const size_t threads : kThreadWidths) {
    AggregatorWorkspace ws;
    ws.threads = threads;
    const auto view = agg->aggregate(batch, ws);
    const Vector got(view.begin(), view.end());
    EXPECT_EQ(got, want) << name << " diverges from the seed implementation on " << label
                         << " inputs (n=" << n << ", f=" << f << ", threads=" << threads
                         << ")";
  }

  // The span-of-vectors overload must route through the same kernel.
  EXPECT_EQ(agg->aggregate(inputs), want) << name << " span-of-vectors path on " << label;
}

TEST_P(GarGoldenTest, BitIdenticalOnSeededRandomInputs) {
  const std::string name = GetParam();
  for (uint64_t seed : {1u, 2u, 3u}) {
    expect_bit_identical(name, 11, 2, random_inputs(11, 17, seed), "random");
    expect_bit_identical(name, 25, 5, random_inputs(25, 33, seed), "random");
  }
}

TEST_P(GarGoldenTest, BitIdenticalOnAdversarialInputs) {
  const std::string name = GetParam();
  for (uint64_t seed : {4u, 5u}) {
    expect_bit_identical(name, 11, 2, adversarial_inputs(11, 2, 17, seed), "adversarial");
    expect_bit_identical(name, 25, 5, adversarial_inputs(25, 5, 9, seed), "adversarial");
  }
}

TEST_P(GarGoldenTest, BitIdenticalOnExactTies) {
  const std::string name = GetParam();
  expect_bit_identical(name, 11, 2, tied_inputs(11, 2, 5, 6), "tied");
}

TEST_P(GarGoldenTest, WorkspaceReuseIsStateless) {
  // One workspace recycled across different inputs AND different shapes
  // must not leak state between calls.
  const std::string name = GetParam();
  const auto agg_small = make_aggregator(name, 11, 2);
  const auto agg_large = make_aggregator(name, 25, 5);

  const auto in_large = random_inputs(25, 33, 7);
  const auto in_small = random_inputs(11, 17, 8);
  const GradientBatch batch_large = GradientBatch::from_vectors(in_large);
  const GradientBatch batch_small = GradientBatch::from_vectors(in_small);

  for (const size_t threads : kThreadWidths) {
    AggregatorWorkspace ws;
    ws.threads = threads;
    const auto first = agg_large->aggregate(batch_large, ws);
    const Vector first_copy(first.begin(), first.end());
    const auto second = agg_small->aggregate(batch_small, ws);
    const Vector second_copy(second.begin(), second.end());
    const auto third = agg_large->aggregate(batch_large, ws);
    const Vector third_copy(third.begin(), third.end());

    EXPECT_EQ(second_copy, reference_aggregate(name, in_small, 11, 2))
        << "threads=" << threads;
    EXPECT_EQ(first_copy, third_copy) << "threads=" << threads;
  }
}

/// Every rule that has a seed implementation to pin against.  mda_greedy
/// is new in this repo (the approximate large-n fallback, PR 4): there is
/// no seed code to be bit-identical to; its own invariants live in
/// tests/test_aggregators.cpp.
std::vector<std::string> gars_with_seed_reference() {
  auto names = aggregator_names();
  std::erase(names, "mda_greedy");
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllGars, GarGoldenTest,
                         ::testing::ValuesIn(gars_with_seed_reference()));

TEST(GarGolden, ThreadedMatrixAboveDispatchGateMatchesReference) {
  // 64 rows of d = 8448: 2016 pairs * 8448 = 17.0M pair-coordinates,
  // above pairwise_dist_sq's 2^24 pool-dispatch gate, so the threads = 4
  // workspace really splits the matrix across the shared pool.  The
  // forged duplicates keep the score ties of the adversarial goldens.
  const size_t n = 64, f = 2, d = 8448;
  const auto inputs = adversarial_inputs(n, f, d, 21);
  for (const char* name : {"krum", "multi-krum", "mda", "bulyan"})
    expect_bit_identical(name, n, f, inputs, "above-gate");

  // mda_greedy has no seed implementation (see gars_with_seed_reference
  // above); its threaded run is pinned to its serial one.
  const auto greedy = make_aggregator("mda_greedy", n, f);
  const GradientBatch batch = GradientBatch::from_vectors(inputs);
  AggregatorWorkspace serial, threaded;
  threaded.threads = 4;
  const auto want = greedy->aggregate(batch, serial);
  const Vector want_copy(want.begin(), want.end());
  const auto got = greedy->aggregate(batch, threaded);
  EXPECT_EQ(Vector(got.begin(), got.end()), want_copy);
}

TEST(GarGolden, KrumScoresReferenceMatchesMatrixPath) {
  // The free krum_scores function is the reference; the matrix path must
  // reproduce it exactly, including on shrunken Bulyan-style pools.
  const auto inputs = adversarial_inputs(11, 2, 13, 9);
  const GradientBatch batch = GradientBatch::from_vectors(inputs);

  std::vector<double> dist(11 * 11);
  pairwise_dist_sq(batch, dist, 1);
  std::vector<size_t> active(11);
  for (size_t i = 0; i < 11; ++i) active[i] = i;
  std::vector<double> scores(11);
  std::vector<double> scratch;
  krum_scores_from_matrix(dist, 11, active, 2, scores, scratch);
  EXPECT_EQ(scores, krum_scores(inputs, 2));

  // Shrunken pool {0, 2, 3, 7, 9}: reference recomputes from vectors.
  const std::vector<size_t> pool{0, 2, 3, 7, 9};
  std::vector<Vector> pool_vectors;
  for (size_t i : pool) pool_vectors.push_back(inputs[i]);
  std::vector<double> pool_scores(pool.size());
  krum_scores_from_matrix(dist, 11, pool, 2, pool_scores, scratch);
  EXPECT_EQ(pool_scores, krum_scores(pool_vectors, 2));
}

TEST(GarGolden, SelectionHelpersMatchReference) {
  const auto inputs = adversarial_inputs(25, 5, 9, 11);
  const GradientBatch batch = GradientBatch::from_vectors(inputs);
  AggregatorWorkspace ws;
  Mda(25, 5).select_subset_view(batch, ws);
  EXPECT_EQ(ws.selected, reference::mda_select(inputs, 5));
  Bulyan(25, 5).select_indices_view(batch, ws);
  EXPECT_EQ(ws.selected, reference::bulyan_select(inputs, 25, 5));
}

}  // namespace
}  // namespace dpbyz
