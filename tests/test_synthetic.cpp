// Unit tests for the synthetic dataset generators.
#include "data/synthetic.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "math/statistics.hpp"

#include "bits_digest.hpp"

namespace dpbyz {
namespace {

TEST(PhishingLike, ShapeMatchesPaper) {
  const Dataset d = make_phishing_like(PhishingLikeConfig{}, 42);
  EXPECT_EQ(d.size(), 11055u);
  EXPECT_EQ(d.dim(), 68u);
  EXPECT_TRUE(d.labeled());
}

TEST(PhishingLike, FeaturesAreThreeLevel) {
  PhishingLikeConfig cfg;
  cfg.num_samples = 500;
  const Dataset d = make_phishing_like(cfg, 1);
  std::set<double> levels;
  for (size_t i = 0; i < d.size(); ++i)
    for (double v : d.x(i)) levels.insert(v);
  for (double v : levels) EXPECT_TRUE(v == 0.0 || v == 0.5 || v == 1.0);
}

TEST(PhishingLike, LabelBalanceNearConfigured) {
  const Dataset d = make_phishing_like(PhishingLikeConfig{}, 42);
  EXPECT_NEAR(d.positive_fraction(), 0.557, 0.03);
}

TEST(PhishingLike, DeterministicInSeed) {
  PhishingLikeConfig cfg;
  cfg.num_samples = 100;
  const Dataset a = make_phishing_like(cfg, 5);
  const Dataset b = make_phishing_like(cfg, 5);
  const Dataset c = make_phishing_like(cfg, 6);
  EXPECT_EQ(a.features().data(), b.features().data());
  EXPECT_EQ(a.labels(), b.labels());
  EXPECT_NE(a.features().data(), c.features().data());
}

TEST(PhishingLike, ClassesAreLinearlySeparableIsh) {
  // The class-conditional feature means must differ on informative
  // coordinates — otherwise no linear model could learn the task.
  PhishingLikeConfig cfg;
  cfg.num_samples = 4000;
  const Dataset d = make_phishing_like(cfg, 42);
  double max_gap = 0.0;
  for (size_t j = 0; j < d.dim(); ++j) {
    double pos_sum = 0, neg_sum = 0;
    size_t pos_n = 0, neg_n = 0;
    for (size_t i = 0; i < d.size(); ++i) {
      if (d.y(i) > 0.5) {
        pos_sum += d.x(i)[j];
        ++pos_n;
      } else {
        neg_sum += d.x(i)[j];
        ++neg_n;
      }
    }
    max_gap = std::max(max_gap, std::abs(pos_sum / pos_n - neg_sum / neg_n));
  }
  EXPECT_GT(max_gap, 0.05);
}

TEST(GaussianMean, TotalVarianceMatchesSigma) {
  GaussianMeanConfig cfg;
  cfg.dim = 32;
  cfg.sigma = 2.0;
  cfg.num_samples = 5000;
  const auto g = make_gaussian_mean(cfg, 7);
  EXPECT_EQ(g.data.dim(), 32u);
  EXPECT_EQ(g.mean.size(), 32u);
  EXPECT_NEAR(vec::norm(g.mean), cfg.mean_radius, 1e-9);
  // E||x - x_bar||^2 should be sigma^2 = 4.
  double acc = 0.0;
  for (size_t i = 0; i < g.data.size(); ++i) {
    const auto x = g.data.x(i);
    double dist_sq = 0.0;
    for (size_t j = 0; j < cfg.dim; ++j) {
      const double diff = x[j] - g.mean[j];
      dist_sq += diff * diff;
    }
    acc += dist_sq;
  }
  EXPECT_NEAR(acc / static_cast<double>(g.data.size()), 4.0, 0.2);
}

TEST(GaussianMean, DeterministicInSeed) {
  GaussianMeanConfig cfg;
  cfg.num_samples = 50;
  cfg.dim = 4;
  const auto a = make_gaussian_mean(cfg, 3);
  const auto b = make_gaussian_mean(cfg, 3);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.data.features().data(), b.data.features().data());
}

TEST(Blobs, BalancedAndSeparated) {
  BlobsConfig cfg;
  cfg.num_samples = 3000;
  cfg.separation = 6.0;
  const Dataset d = make_blobs(cfg, 11);
  EXPECT_EQ(d.size(), 3000u);
  EXPECT_NEAR(d.positive_fraction(), 0.5, 0.05);
}

TEST(Generators, RejectEmptyShapes) {
  PhishingLikeConfig p;
  p.num_samples = 0;
  EXPECT_THROW(make_phishing_like(p, 1), std::invalid_argument);
  GaussianMeanConfig g;
  g.dim = 0;
  EXPECT_THROW(make_gaussian_mean(g, 1), std::invalid_argument);
  BlobsConfig b;
  b.num_features = 0;
  EXPECT_THROW(make_blobs(b, 1), std::invalid_argument);
}

// ---- golden pins: every generator's output bits at two seeds --------------
// Digests of the features, then the labels (or the mean), recorded before
// the generators moved onto Rng::add_normal.

using testing_support::bits_digest;

uint64_t dataset_digest(const Dataset& d) {
  return bits_digest(d.labels(), bits_digest(d.features().data()));
}

TEST(SyntheticGolden, BlobsReproduceThePinnedBits) {
  BlobsConfig cfg;
  cfg.num_samples = 37;
  cfg.num_features = 11;
  EXPECT_EQ(dataset_digest(make_blobs(cfg, 3)), 0x65f0f28664e9a153ULL);
  EXPECT_EQ(dataset_digest(make_blobs(cfg, 2024)), 0x41ddcbe4245ae33bULL);
}

TEST(SyntheticGolden, PhishingLikeReproducesThePinnedBits) {
  PhishingLikeConfig cfg;
  cfg.num_samples = 41;
  cfg.num_features = 23;
  EXPECT_EQ(dataset_digest(make_phishing_like(cfg, 3)), 0x06361bf968a971e5ULL);
  EXPECT_EQ(dataset_digest(make_phishing_like(cfg, 2024)), 0x7d84af057dd2ec38ULL);
}

TEST(SyntheticGolden, GaussianMeanReproducesThePinnedBits) {
  GaussianMeanConfig cfg;
  cfg.num_samples = 29;
  cfg.dim = 17;
  const GaussianMeanData a = make_gaussian_mean(cfg, 3);
  const GaussianMeanData b = make_gaussian_mean(cfg, 2024);
  EXPECT_EQ(bits_digest(a.mean, bits_digest(a.data.features().data())), 0x79d36f0d3dd15363ULL);
  EXPECT_EQ(bits_digest(b.mean, bits_digest(b.data.features().data())), 0xb1a10e5a29955334ULL);
}

}  // namespace
}  // namespace dpbyz
