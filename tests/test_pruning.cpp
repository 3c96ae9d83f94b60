// Tests for the prune knob (aggregation/aggregator.hpp, math/sketch.hpp):
//
//   * the JL sketch: its distance fill is symmetric, deterministic and
//     within a loose envelope of the exact distances, and its projection
//     matches the documented hash;
//   * prune=approx: deterministic, pinned to recorded output bits, and on
//     well-separated committees the sketch ranking agrees with the exact
//     selection;
//   * config plumbing: parse/label/validate for the prune knob, and
//     "exact" as a spelling of "off";
//   * thread-width determinism of the approx trainer path (the suite
//     name carries the MathKernelsThreaded prefix so the TSAN CI job
//     picks it up).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

#include "aggregation/aggregator.hpp"
#include "aggregation/hierarchical.hpp"
#include "core/config.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "math/gradient_batch.hpp"
#include "math/rng.hpp"
#include "math/sketch.hpp"
#include "models/linear_model.hpp"

#include "bits_digest.hpp"

namespace dpbyz {
namespace {

using testing_support::bits_digest;

std::vector<Vector> random_rows(size_t n, size_t d, uint64_t seed, double sigma = 1.0) {
  Rng rng(seed);
  std::vector<Vector> g;
  g.reserve(n);
  for (size_t i = 0; i < n; ++i) g.push_back(rng.normal_vector(d, sigma));
  return g;
}

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

TEST(BatchSketch, DistanceFillIsSymmetricDeterministicAndUnbiasedish) {
  const auto rows = random_rows(13, 257, 8);
  const GradientBatch batch = GradientBatch::from_vectors(rows);
  BatchSketch sketch;
  std::vector<double> a(13 * 13), b(13 * 13);
  sketch.compute(batch);
  sketch.fill_dist_sq(a);
  sketch.compute(batch);
  sketch.fill_dist_sq(b);
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

TEST(BatchSketch, SignTableMatchesHashDefinition) {
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

// The approx path's output bits, pinned so that any rework of the sketch
// or of where the GARs read their distances must reproduce them exactly.
TEST(PruneApprox, SelectionAggregatesReproduceThePinnedBits) {
  const std::map<std::string, uint64_t> pins = {
      {"krum", 0x550f7c5007ec3c03ULL},       {"multi-krum", 0x94e925ee86d8b40dULL},
      {"mda", 0xd965aa1d21f2bf2eULL},        {"mda_greedy", 0x82287c25139423aeULL},
      {"bulyan", 0x7c4b7d5329e93fceULL}};
  const GradientBatch batch = GradientBatch::from_vectors(random_rows(15, 257, 25));
  for (const auto& [name, pin] : pins) {
    const auto agg = make_aggregator(name, 15, 3, PruneMode::kApprox);
    AggregatorWorkspace ws;
    EXPECT_EQ(bits_digest(agg->aggregate(batch, ws)), pin) << name;
  }
}

TEST(PruneApprox, ShardedKrumReproducesThePinnedBits) {
  // One-level tree: each child sketches and selects within its own rows.
  const GradientBatch batch = GradientBatch::from_vectors(adversarial_tied(33, 2, 129, 26));
  const HierarchicalAggregator tree("krum", "median", 33, 2, 1, 3, 1, PruneMode::kApprox);
  AggregatorWorkspace ws;
  EXPECT_EQ(bits_digest(tree.aggregate(batch, ws)), 0x5195e3cd05d5c7fbULL);
}

TEST(PruneApprox, TrainerReproducesThePinnedTheta) {
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
  c.prune = "approx";
  c.steps = 6;
  c.eval_every = 6;
  c.batch_size = 5;
  const RunResult run = Trainer(c, model, data, data).run();
  EXPECT_EQ(bits_digest(run.final_parameters), 0x5f0585f13917ec05ULL);
  EXPECT_EQ(bits_digest(run.train_loss), 0xe16ea6a0d5ed1b2aULL);
}

// ---- config plumbing --------------------------------------------------------

TEST(PruneConfig, ParseAndNameRoundTrip) {
  EXPECT_EQ(parse_prune_mode("off"), PruneMode::kOff);
  EXPECT_EQ(parse_prune_mode("exact"), PruneMode::kOff);  // a spelling of off
  EXPECT_EQ(parse_prune_mode("approx"), PruneMode::kApprox);
  EXPECT_THROW(parse_prune_mode("fast"), std::invalid_argument);
  EXPECT_STREQ(prune_mode_name(PruneMode::kOff), "off");
  EXPECT_STREQ(prune_mode_name(PruneMode::kApprox), "approx");
  for (const PruneMode mode : {PruneMode::kOff, PruneMode::kApprox})
    EXPECT_EQ(parse_prune_mode(prune_mode_name(mode)), mode);
}

TEST(PruneConfig, ValidateAndLabelCarryTheKnob) {
  ExperimentConfig c;
  c.prune = "exact";
  c.validate();
  EXPECT_NE(c.label().find("+prune(exact)"), std::string::npos);
  c.prune = "approx";
  c.validate();
  EXPECT_NE(c.label().find("+prune(approx)"), std::string::npos);
  c.prune = "banana";
  try {
    c.validate();
    ADD_FAILURE() << "validate() accepted prune = banana";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("config: prune", 0), 0u) << what;
    EXPECT_NE(what.find("banana"), std::string::npos) << what;
  }
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

TEST(MathKernelsThreadedPruning, TrainerPruneApproxBitIdenticalAcrossThreadWidths) {
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
  c.prune = "approx";  // each child's sketch runs concurrently at T>1
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
