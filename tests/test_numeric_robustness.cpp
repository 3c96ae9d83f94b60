// Regression tests for the numeric-robustness bugfix sweep (ISSUE 5
// satellites): the Weiszfeld denominator guard, the boundary-input fixes
// in statistics / the RDP accountant, and degenerate (n' = 1) rounds
// through pairwise_dist_sq and the round engine's per-n' GAR cache.
//
// Each test pins a case that either misbehaved before the sweep (NaN
// aggregates, +inf epsilon, silent 0.0 variance) or was audited and
// found guarded (duplicated Weiszfeld rows) — the test keeps it that way.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "aggregation/aggregator.hpp"
#include "aggregation/krum.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "dp/accountant.hpp"
#include "math/gradient_batch.hpp"
#include "math/rng.hpp"
#include "math/statistics.hpp"
#include "models/linear_model.hpp"
#include "theory/vn_ratio.hpp"

namespace dpbyz {
namespace {

// ---- Weiszfeld (geometric median) -----------------------------------------

// Audit result (guarded, kept that way): a row coinciding with the
// iterate gets the kEps-clamped weight, so duplicated rows are safe.
TEST(WeiszfeldRobustness, AllRowsIdenticalReturnsThatRow) {
  const Vector row{0.5, -1.25, 3.0};
  GradientBatch batch(5, row.size());
  for (size_t i = 0; i < batch.rows(); ++i) batch.set_row(i, row);

  const auto gm = make_aggregator("geometric-median", batch.rows(), 0);
  AggregatorWorkspace ws;
  const auto out = gm->aggregate(batch, ws);
  // The mean of identical rows IS the row, every later iterate stays on
  // it, so the fixed point is exact.
  EXPECT_EQ(Vector(out.begin(), out.end()), row);
}

TEST(WeiszfeldRobustness, IterateCoincidingWithAnInputRowStaysFinite) {
  // Three rows whose mean (the Weiszfeld starting iterate) equals row 0
  // exactly: z_0 = (0,0) = g_0, so iteration 1 divides by ||z - g_0|| = 0
  // — the kEps clamp must absorb it.
  GradientBatch batch(3, 2);
  batch.set_row(0, Vector{0.0, 0.0});
  batch.set_row(1, Vector{1.0, 2.0});
  batch.set_row(2, Vector{-1.0, -2.0});

  const auto gm = make_aggregator("geometric-median", batch.rows(), 1);
  AggregatorWorkspace ws;
  const auto out = gm->aggregate(batch, ws);
  for (double x : out) EXPECT_TRUE(std::isfinite(x));
  // The duplicated-mass point dominates: the geometric median of this
  // symmetric instance is (0, 0) up to the solver tolerance.
  EXPECT_NEAR(out[0], 0.0, 1e-6);
  EXPECT_NEAR(out[1], 0.0, 1e-6);
}

// The confirmed bug: finite rows with ~1e200 components overflow every
// pairwise dist_sq to +inf, all weights underflow to zero, and the old
// loop divided the numerator by a denominator of exactly 0 — NaN output.
// The guard falls back to the coordinate-wise median of the rows.
TEST(WeiszfeldRobustness, HugeMagnitudeRowsDoNotEmitNaN) {
  GradientBatch batch(3, 2);
  batch.set_row(0, Vector{1e200, -1e200});
  batch.set_row(1, Vector{2e200, 1e200});
  batch.set_row(2, Vector{-1e200, 3e200});

  const auto gm = make_aggregator("geometric-median", batch.rows(), 1);
  AggregatorWorkspace ws;
  const auto out = gm->aggregate(batch, ws);
  ASSERT_EQ(out.size(), 2u);
  for (double x : out) EXPECT_TRUE(std::isfinite(x));
  EXPECT_DOUBLE_EQ(out[0], 1e200);  // median of {-1e200, 1e200, 2e200}
  EXPECT_DOUBLE_EQ(out[1], 1e200);  // median of {-1e200, 1e200, 3e200}
}

// The fallback must be robust, not merely finite: a SINGLE Byzantine row
// at ~1e200 forces the overflow path (the mean-seeded iterate lands
// ~1e199 away from every row, so all weights underflow), and a mean
// fallback would hand that one attacker the aggregate.  The coordinate-
// median fallback must stay pinned to the honest cluster.
TEST(WeiszfeldRobustness, SingleHugeByzantineRowCannotSteerTheFallback) {
  GradientBatch batch(5, 2);
  batch.set_row(0, Vector{1.0, -1.0});
  batch.set_row(1, Vector{1.1, -0.9});
  batch.set_row(2, Vector{0.9, -1.1});
  batch.set_row(3, Vector{1.05, -0.95});
  batch.set_row(4, Vector{1e200, -1e200});  // the attacker

  const auto gm = make_aggregator("geometric-median", batch.rows(), 1);
  AggregatorWorkspace ws;
  const auto out = gm->aggregate(batch, ws);
  ASSERT_EQ(out.size(), 2u);
  // Bounded by the honest cluster (median of 5 values with one outlier).
  EXPECT_GE(out[0], 0.9);
  EXPECT_LE(out[0], 1.1);
  EXPECT_GE(out[1], -1.1);
  EXPECT_LE(out[1], -0.9);
}

// ---- statistics boundaries -------------------------------------------------

TEST(StatisticsBoundaries, VarianceOfEmptySampleThrows) {
  const std::vector<double> empty;
  EXPECT_THROW(stats::variance(empty), std::invalid_argument);
  EXPECT_THROW(stats::stddev(empty), std::invalid_argument);
}

TEST(StatisticsBoundaries, SingleObservationKeepsZeroVarianceConvention) {
  const std::vector<double> one{3.5};
  EXPECT_EQ(stats::variance(one), 0.0);
  EXPECT_EQ(stats::stddev(one), 0.0);
}

// ---- RDP accountant boundaries ---------------------------------------------

// The confirmed bug: sensitivity/noise ratios below ~1e-154 make rho
// underflow to exactly 0; the alpha grid then evaluated 0 * inf = NaN on
// every point and the conversion returned +inf — the opposite of the
// truth (zero Rényi divergence composes to eps -> 0).
TEST(RdpAccountantBoundaries, RhoUnderflowReportsZeroEpsilonNotInf) {
  dp::RdpAccountant acc(/*noise_stddev=*/1e160, /*l2_sensitivity=*/1e-160);
  acc.record_steps(1000);
  const double eps = acc.epsilon_for_delta(1e-6);
  EXPECT_EQ(eps, 0.0);
}

// Just outside the exact-zero window: rho is denormal but nonzero, so
// alpha_star still overflows to +inf — the conversion must fall back to
// the analytic optimum (tiny, finite), not +inf.
TEST(RdpAccountantBoundaries, DenormalRhoReportsTinyFiniteEpsilon) {
  dp::RdpAccountant acc(/*noise_stddev=*/1e155, /*l2_sensitivity=*/1.0);
  acc.record_steps(1000);
  const double eps = acc.epsilon_for_delta(1e-6);
  EXPECT_TRUE(std::isfinite(eps));
  EXPECT_GE(eps, 0.0);
  EXPECT_LT(eps, 1e-100);
}

TEST(RdpAccountantBoundaries, OrdinaryRatiosStillPositiveAndFinite) {
  dp::RdpAccountant acc(2.0, 1.0);
  acc.record_steps(100);
  const double eps = acc.epsilon_for_delta(1e-6);
  EXPECT_TRUE(std::isfinite(eps));
  EXPECT_GT(eps, 0.0);
}

// ---- VN-ratio boundaries ---------------------------------------------------

TEST(VnRatioBoundaries, NoisyRatioRejectsZeroMeanNorm) {
  EXPECT_THROW(theory::noisy_vn_ratio(1.0, 0.0, 10, 1e-2, 50, 0.2, 1e-6),
               std::invalid_argument);
}

// ---- degenerate rounds (n' = 1) --------------------------------------------

TEST(DegenerateRounds, PairwiseDistSqHandlesSingleRowBatch) {
  GradientBatch batch(1, 1000);
  Rng rng(7);
  Vector v = rng.normal_vector(1000, 1.0);
  batch.set_row(0, v);
  std::vector<double> out(1, -1.0);
  pairwise_dist_sq(batch, out, 1);
  EXPECT_EQ(out[0], 0.0);  // the diagonal — no pair kernel runs
}

TEST(DegenerateRounds, KrumScoringRefusesSingleGradient) {
  const std::vector<double> dist_sq{0.0};
  const std::vector<size_t> active{0};
  std::vector<double> scores(1);
  std::vector<double> scratch;
  EXPECT_THROW(krum_scores_from_matrix(dist_sq, 1, active, 1, scores, scratch),
               std::invalid_argument);
}

/// A tiny task whose participation schedule floors to one live worker on
/// (almost) every round: all honest workers are stragglers with a period
/// longer than the run, so only the >= 1-live floor keeps rounds alive.
ExperimentConfig floor_config(size_t n, size_t f, const std::string& gar) {
  ExperimentConfig c;
  c.num_workers = n;
  c.num_byzantine = f;
  c.gar = gar;
  c.steps = 4;
  c.eval_every = 4;
  c.batch_size = 5;
  c.participation = "stragglers";
  c.num_stragglers = n;  // every honest worker stalls...
  c.straggler_period = 1000;  // ...on every round of this short run
  return c;
}

Dataset tiny_data() {
  BlobsConfig bc;
  bc.num_samples = 60;
  bc.num_features = 4;
  bc.separation = 4.0;
  return make_blobs(bc, 11);
}

// A GAR that handles n' = 1 explicitly (average of one row = the row)
// must train through floor rounds without throwing or emitting NaN.
TEST(DegenerateRounds, AverageTrainsThroughFlooredSingleWorkerRounds) {
  const Dataset data = tiny_data();
  const LinearModel model(4, LinearLoss::kMseOnSigmoid);
  auto c = floor_config(3, 0, "average");
  const RunResult result = Trainer(c, model, data, data).run();
  ASSERT_EQ(result.round_rows.size(), c.steps);
  for (size_t rows : result.round_rows) EXPECT_EQ(rows, 1u);
  for (double l : result.train_loss) EXPECT_TRUE(std::isfinite(l));
  for (double w : result.final_parameters) EXPECT_TRUE(std::isfinite(w));
}

// A GAR whose admissibility assumes n >= 2 must surface the named
// round-budget error — not a crash inside a pairwise kernel.
TEST(DegenerateRounds, KrumFlooredRoundThrowsNamedBudgetError) {
  const Dataset data = tiny_data();
  const LinearModel model(4, LinearLoss::kMseOnSigmoid);
  auto c = floor_config(7, 2, "krum");  // admissible at n = 7, not n' = 1
  Trainer trainer(c, model, data, data);
  try {
    trainer.run();
    FAIL() << "expected the degenerate round to throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("RoundPipeline: round budget (n' = 1"),
              std::string::npos)
        << "actual message: " << e.what();
  }
}

}  // namespace
}  // namespace dpbyz
