// Unit tests for models: linear model gradients (checked against finite
// differences), quadratic model, clipping.
#include <gtest/gtest.h>

#include <cmath>

#include "data/synthetic.hpp"
#include "models/clipping.hpp"
#include "models/linear_model.hpp"
#include "models/mlp_model.hpp"
#include "models/quadratic_model.hpp"

#include "bits_digest.hpp"

namespace dpbyz {
namespace {

Dataset tiny_classification() {
  return Dataset(Matrix::from_rows({{1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}, {0.0, 0.0}}),
                 Vector{1.0, 0.0, 1.0, 0.0});
}

std::vector<size_t> all_rows(const Dataset& d) {
  std::vector<size_t> idx(d.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  return idx;
}

/// Central finite-difference gradient of model.batch_loss at w.
Vector numerical_gradient(const Model& m, const Vector& w, const Dataset& d,
                          const std::vector<size_t>& batch, double h = 1e-6) {
  Vector g(w.size());
  Vector wp = w;
  for (size_t i = 0; i < w.size(); ++i) {
    wp[i] = w[i] + h;
    const double up = m.batch_loss(wp, d, batch);
    wp[i] = w[i] - h;
    const double down = m.batch_loss(wp, d, batch);
    wp[i] = w[i];
    g[i] = (up - down) / (2.0 * h);
  }
  return g;
}

class LinearModelGradientTest : public ::testing::TestWithParam<LinearLoss> {};

TEST_P(LinearModelGradientTest, AnalyticMatchesFiniteDifference) {
  const Dataset d = tiny_classification();
  const LinearModel m(2, GetParam());
  const auto batch = all_rows(d);
  // Probe several parameter points, including non-zero bias.
  const std::vector<Vector> points{
      {0.0, 0.0, 0.0}, {0.5, -0.3, 0.2}, {-1.0, 2.0, -0.5}};
  for (const Vector& w : points) {
    const Vector analytic = m.batch_gradient(w, d, batch);
    const Vector numeric = numerical_gradient(m, w, d, batch);
    for (size_t i = 0; i < w.size(); ++i)
      EXPECT_NEAR(analytic[i], numeric[i], 1e-5)
          << "loss=" << to_string(GetParam()) << " coord=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllLosses, LinearModelGradientTest,
                         ::testing::Values(LinearLoss::kMseOnSigmoid,
                                           LinearLoss::kLeastSquares,
                                           LinearLoss::kLogistic));

TEST(LinearModel, DimIncludesBias) {
  const LinearModel m(68, LinearLoss::kMseOnSigmoid);
  EXPECT_EQ(m.dim(), 69u);  // the paper's d = 69
}

TEST(LinearModel, PerfectSeparationGivesFullAccuracy) {
  const Dataset d = tiny_classification();  // label = x0
  const LinearModel m(2, LinearLoss::kMseOnSigmoid);
  const Vector w{10.0, 0.0, -5.0};  // sign(10*x0 - 5) == label
  EXPECT_DOUBLE_EQ(m.accuracy(w, d), 1.0);
}

TEST(LinearModel, ZeroParamsGiveMajorityClassAccuracy) {
  const Dataset d = tiny_classification();
  const LinearModel m(2, LinearLoss::kMseOnSigmoid);
  const Vector w(3, 0.0);  // score 0 -> predicts negative for all
  EXPECT_DOUBLE_EQ(m.accuracy(w, d), 0.5);
}

TEST(LinearModel, BatchGradientAveragesPerSampleGradients) {
  const Dataset d = tiny_classification();
  const LinearModel m(2, LinearLoss::kLeastSquares);
  const Vector w{0.1, 0.2, 0.3};
  const std::vector<size_t> b01{0, 1};
  const std::vector<size_t> b0{0}, b1{1};
  const Vector g01 = m.batch_gradient(w, d, b01);
  const Vector g0 = m.batch_gradient(w, d, b0);
  const Vector g1 = m.batch_gradient(w, d, b1);
  for (size_t i = 0; i < w.size(); ++i)
    EXPECT_NEAR(g01[i], 0.5 * (g0[i] + g1[i]), 1e-12);
}

TEST(LinearModel, EmptyBatchThrows) {
  const Dataset d = tiny_classification();
  const LinearModel m(2, LinearLoss::kMseOnSigmoid);
  const std::vector<size_t> empty;
  EXPECT_THROW(m.batch_gradient(Vector(3, 0.0), d, empty), std::invalid_argument);
  EXPECT_THROW(m.batch_loss(Vector(3, 0.0), d, empty), std::invalid_argument);
}

TEST(LinearModel, WrongParameterDimensionThrows) {
  const Dataset d = tiny_classification();
  const LinearModel m(2, LinearLoss::kMseOnSigmoid);
  const std::vector<size_t> batch{0};
  EXPECT_THROW(m.batch_gradient(Vector(2, 0.0), d, batch), std::invalid_argument);
}

TEST(Sigmoid, StableAtExtremes) {
  EXPECT_NEAR(sigmoid(0.0), 0.5, 1e-12);
  EXPECT_NEAR(sigmoid(1000.0), 1.0, 1e-12);
  EXPECT_NEAR(sigmoid(-1000.0), 0.0, 1e-12);
  EXPECT_TRUE(std::isfinite(sigmoid(-1e308)));
}

TEST(QuadraticModel, GradientIsWMinusBatchMean) {
  const size_t dim = 3;
  QuadraticModel m(dim, Vector{1.0, 2.0, 3.0});
  const Dataset d(Matrix::from_rows({{0.0, 0.0, 0.0}, {2.0, 2.0, 2.0}}), Vector{});
  const Vector w{1.0, 1.0, 1.0};
  const std::vector<size_t> batch{0, 1};
  // batch mean = (1,1,1); gradient = w - mean = 0.
  EXPECT_EQ(m.batch_gradient(w, d, batch), (Vector{0.0, 0.0, 0.0}));
}

TEST(QuadraticModel, ExcessLossIsHalfSquaredDistance) {
  QuadraticModel m(2, Vector{3.0, 4.0});
  EXPECT_DOUBLE_EQ(m.excess_loss(Vector{0.0, 0.0}), 12.5);
  EXPECT_DOUBLE_EQ(m.excess_loss(Vector{3.0, 4.0}), 0.0);
}

TEST(QuadraticModel, GradientMatchesFiniteDifference) {
  GaussianMeanConfig cfg;
  cfg.dim = 4;
  cfg.num_samples = 10;
  const auto g = make_gaussian_mean(cfg, 3);
  QuadraticModel m(cfg.dim, g.mean);
  const std::vector<size_t> batch{0, 3, 7};
  const Vector w{0.5, -0.5, 1.0, 0.0};
  const Vector analytic = m.batch_gradient(w, g.data, batch);
  const Vector numeric = numerical_gradient(m, w, g.data, batch);
  for (size_t i = 0; i < w.size(); ++i) EXPECT_NEAR(analytic[i], numeric[i], 1e-5);
}

TEST(QuadraticModel, AccuracyIsNan) {
  QuadraticModel m(2, Vector{0.0, 0.0});
  const Dataset d(Matrix(3, 2), Vector{});
  EXPECT_TRUE(std::isnan(m.accuracy(Vector{0.0, 0.0}, d)));
}

TEST(Clipping, LeavesShortVectorsUntouched) {
  Vector g{0.3, 0.4};  // norm 0.5
  clip_l2_inplace(g, 1.0);
  EXPECT_EQ(g, (Vector{0.3, 0.4}));
}

TEST(Clipping, ScalesLongVectorsToBound) {
  Vector g{3.0, 4.0};  // norm 5
  const double pre = clip_l2_inplace(g, 1.0);
  EXPECT_DOUBLE_EQ(pre, 5.0);
  EXPECT_NEAR(vec::norm(g), 1.0, 1e-12);
  // Direction preserved.
  EXPECT_NEAR(g[0] / g[1], 0.75, 1e-12);
}

TEST(Clipping, RejectsNonPositiveBound) {
  Vector g{1.0};
  EXPECT_THROW(clip_l2_inplace(g, 0.0), std::invalid_argument);
}

TEST(BatchGradientInto, LinearMatchesAllocatingWrapperBitForBit) {
  const Dataset d = tiny_classification();
  const auto batch = all_rows(d);
  for (LinearLoss loss :
       {LinearLoss::kMseOnSigmoid, LinearLoss::kLeastSquares, LinearLoss::kLogistic}) {
    const LinearModel m(2, loss);
    const Vector w{0.5, -0.3, 0.2};
    Vector into(m.dim(), 99.0);  // stale contents must be overwritten
    m.batch_gradient_into(w, d, batch, into);
    EXPECT_EQ(into, m.batch_gradient(w, d, batch)) << to_string(loss);
  }
}

TEST(BatchGradientInto, QuadraticMatchesAllocatingWrapperBitForBit) {
  const Dataset d(Matrix::from_rows({{1.0, 2.0}, {3.0, -1.0}, {0.5, 0.5}}), Vector{});
  const QuadraticModel m(2, Vector{0.0, 0.0});
  const std::vector<size_t> batch{0, 1, 2};
  const Vector w{0.25, -0.75};
  Vector into(2, 99.0);
  m.batch_gradient_into(w, d, batch, into);
  EXPECT_EQ(into, m.batch_gradient(w, d, batch));
}

TEST(BatchGradientInto, RejectsWrongOutputDimension) {
  const Dataset d = tiny_classification();
  const LinearModel m(2, LinearLoss::kLogistic);
  const auto batch = all_rows(d);
  Vector wrong(m.dim() + 1);
  EXPECT_THROW(m.batch_gradient_into(Vector(m.dim(), 0.0), d, batch, wrong),
               std::invalid_argument);
}

// ---- one-pass loss + gradient ----------------------------------------------

using testing_support::same_bits;

/// Batches of 1..9 rows (every remainder of the four-sample blocks), with
/// a repeated row, over a 43-row blob dataset (a partial last block for
/// accuracy) with negative and zero weights.
struct FusedCase {
  Dataset data;
  Vector w;
  std::vector<std::vector<size_t>> batches;
};

FusedCase fused_case(size_t features) {
  BlobsConfig cfg;
  cfg.num_samples = 43;
  cfg.num_features = features;
  FusedCase c{make_blobs(cfg, 17), Vector(features + 1), {}};
  for (size_t j = 0; j <= features; ++j)
    c.w[j] = (j % 3 == 0) ? 0.0 : 0.37 * std::sin(static_cast<double>(j) + 1.0);
  for (size_t b = 1; b <= 9; ++b) {
    std::vector<size_t> batch;
    for (size_t k = 0; k < b; ++k) batch.push_back((7 * k + b) % cfg.num_samples);
    if (b > 2) batch[b - 1] = batch[0];
    c.batches.push_back(batch);
  }
  return c;
}

TEST(BatchLossGradient, LinearOnePassEqualsSeparateCallsForEveryLoss) {
  const FusedCase c = fused_case(13);
  for (LinearLoss loss :
       {LinearLoss::kMseOnSigmoid, LinearLoss::kLeastSquares, LinearLoss::kLogistic}) {
    const LinearModel m(13, loss);
    for (const auto& batch : c.batches) {
      Vector fused(m.dim(), 99.0);
      const double fused_loss = m.batch_loss_gradient_into(c.w, c.data, batch, fused);
      EXPECT_TRUE(same_bits(fused_loss, m.batch_loss(c.w, c.data, batch)))
          << to_string(loss) << " b = " << batch.size();
      EXPECT_TRUE(same_bits(fused, m.batch_gradient(c.w, c.data, batch)))
          << to_string(loss) << " b = " << batch.size();
    }
  }
}

TEST(BatchLossGradient, LinearPassesKeepThePerSampleChains) {
  // The four-wide score blocks must reproduce the per-sample formulas
  // built on score(): one chain per sample, loss and gradient terms added
  // in batch order.
  const FusedCase c = fused_case(13);
  const LinearModel m(13, LinearLoss::kMseOnSigmoid);
  for (const auto& batch : c.batches) {
    double loss = 0.0;
    Vector grad(m.dim(), 0.0);
    for (size_t i : batch) {
      const double p = sigmoid(m.score(c.w, c.data.x(i)));
      const double y = c.data.y(i);
      loss += (p - y) * (p - y);
      const double dz = 2.0 * (p - y) * p * (1.0 - p);
      for (size_t j = 0; j < 13; ++j) grad[j] += dz * c.data.x(i)[j];
      grad[13] += dz;
    }
    const double b = static_cast<double>(batch.size());
    for (double& g : grad) g *= 1.0 / b;
    Vector fused(m.dim());
    EXPECT_TRUE(same_bits(m.batch_loss_gradient_into(c.w, c.data, batch, fused), loss / b));
    EXPECT_TRUE(same_bits(fused, grad)) << "b = " << batch.size();
  }
  size_t correct = 0;
  for (size_t i = 0; i < c.data.size(); ++i)
    correct += (m.score(c.w, c.data.x(i)) > 0.0) == (c.data.y(i) > 0.5);
  EXPECT_EQ(m.accuracy(c.w, c.data),
            static_cast<double>(correct) / static_cast<double>(c.data.size()));
}

TEST(BatchLossGradient, DefaultPathEqualsSeparateCallsForMlpAndQuadratic) {
  const FusedCase c = fused_case(5);
  const MlpModel mlp(5, 4, 3);
  const Vector mlp_w = mlp.initial_parameters();
  const QuadraticModel quad(5, Vector(5, 0.25));
  const Vector quad_w{0.5, -1.0, 0.0, 2.0, -0.125};
  for (const auto& batch : c.batches) {
    Vector fused(mlp.dim(), 99.0);
    EXPECT_TRUE(same_bits(mlp.batch_loss_gradient_into(mlp_w, c.data, batch, fused),
                          mlp.batch_loss(mlp_w, c.data, batch)));
    EXPECT_TRUE(same_bits(fused, mlp.batch_gradient(mlp_w, c.data, batch)));
    Vector qfused(quad.dim(), 99.0);
    EXPECT_TRUE(same_bits(quad.batch_loss_gradient_into(quad_w, c.data, batch, qfused),
                          quad.batch_loss(quad_w, c.data, batch)));
    EXPECT_TRUE(same_bits(qfused, quad.batch_gradient(quad_w, c.data, batch)));
  }
}

}  // namespace
}  // namespace dpbyz
