// Unit tests for core/worker and core/server.
#include <gtest/gtest.h>

#include <cmath>

#include "aggregation/average.hpp"
#include "core/server.hpp"
#include "core/worker.hpp"
#include "data/synthetic.hpp"
#include "dp/gaussian_mechanism.hpp"
#include "models/linear_model.hpp"

namespace dpbyz {
namespace {

struct Fixture {
  Dataset data;
  LinearModel model;
  Fixture()
      : data(make_blobs(
            [] {
              BlobsConfig c;
              c.num_samples = 200;
              c.num_features = 5;
              return c;
            }(),
            3)),
        model(5, LinearLoss::kMseOnSigmoid) {}
};

TEST(HonestWorker, CleanGradientIsClipped) {
  Fixture fx;
  NoNoise none;
  HonestWorker w(fx.model, fx.data, 16, 1e-3, none, Rng(1));
  const Vector params(fx.model.dim(), 0.0);
  const Vector sent = w.submit(params);
  EXPECT_LE(vec::norm(w.last_clean_gradient()), 1e-3 + 1e-12);
  // Without noise the sent gradient IS the clean gradient.
  EXPECT_EQ(sent, w.last_clean_gradient());
}

TEST(HonestWorker, RecordsBatchLoss) {
  Fixture fx;
  NoNoise none;
  HonestWorker w(fx.model, fx.data, 16, 1.0, none, Rng(1));
  const Vector params(fx.model.dim(), 0.0);
  w.submit(params);
  // MSE-on-sigmoid loss at w = 0 is (0.5 - y)^2 = 0.25 for every sample.
  EXPECT_NEAR(w.last_batch_loss(), 0.25, 1e-12);
}

TEST(HonestWorker, NoiseChangesSubmissionButNotCleanGradient) {
  Fixture fx;
  const auto mech = GaussianMechanism::for_clipped_gradients(0.5, 1e-6, 1e-2, 16);
  HonestWorker noisy(fx.model, fx.data, 16, 1e-2, mech, Rng(1));
  NoNoise none;
  HonestWorker clean(fx.model, fx.data, 16, 1e-2, none, Rng(1));
  const Vector params(fx.model.dim(), 0.0);
  const Vector sent_noisy = noisy.submit(params);
  const Vector sent_clean = clean.submit(params);
  // Same seed => same batch => same clean gradient.
  EXPECT_EQ(noisy.last_clean_gradient(), clean.last_clean_gradient());
  EXPECT_NE(sent_noisy, sent_clean);
}

TEST(HonestWorker, DeterministicAcrossIdenticalConstruction) {
  Fixture fx;
  const auto mech = GaussianMechanism::for_clipped_gradients(0.5, 1e-6, 1e-2, 8);
  HonestWorker a(fx.model, fx.data, 8, 1e-2, mech, Rng(9));
  HonestWorker b(fx.model, fx.data, 8, 1e-2, mech, Rng(9));
  const Vector params(fx.model.dim(), 0.0);
  EXPECT_EQ(a.submit(params), b.submit(params));
}

TEST(HonestWorker, ValidatesConstruction) {
  Fixture fx;
  NoNoise none;
  EXPECT_THROW(HonestWorker(fx.model, fx.data, 0, 1.0, none, Rng(1)),
               std::invalid_argument);
  EXPECT_THROW(HonestWorker(fx.model, fx.data, 4, 0.0, none, Rng(1)),
               std::invalid_argument);
}

TEST(ParameterServer, AppliesAggregateAndUpdate) {
  auto gar = std::make_unique<Average>(2, 0);
  SgdOptimizer opt(2, constant_lr(1.0), 0.0);
  ParameterServer server(std::move(gar), std::move(opt), Vector{0.0, 0.0});
  const std::vector<Vector> grads{{1.0, 0.0}, {3.0, 2.0}};
  server.aggregate_with(server.gar(), GradientBatch::from_vectors(grads));
  server.apply(1);
  EXPECT_EQ(server.last_aggregate(), (Vector{2.0, 1.0}));
  EXPECT_EQ(server.parameters(), (Vector{-2.0, -1.0}));
}

TEST(ParameterServer, ExposesGar) {
  ParameterServer server(std::make_unique<Average>(3, 0),
                         SgdOptimizer(1, constant_lr(1.0), 0.0), Vector{0.0});
  EXPECT_EQ(server.gar().name(), "average");
  EXPECT_EQ(server.gar().n(), 3u);
}

TEST(ParameterServer, NullAggregatorThrows) {
  EXPECT_THROW(ParameterServer(nullptr, SgdOptimizer(1, constant_lr(1.0), 0.0),
                               Vector{0.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace dpbyz
