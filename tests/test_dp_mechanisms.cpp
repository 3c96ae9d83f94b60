// Unit + statistical tests for the DP mechanisms and sensitivity calculus.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>

#include "dp/gaussian_mechanism.hpp"
#include "dp/laplace_mechanism.hpp"
#include "dp/sensitivity.hpp"
#include "math/statistics.hpp"

#include "bits_digest.hpp"

namespace dpbyz {
namespace {

TEST(Sensitivity, L2MatchesPaperFormula) {
  // Delta_h = 2 G_max / b (Eq. 5 with clipped per-sample gradients).
  EXPECT_DOUBLE_EQ(dp::l2_sensitivity(0.01, 50), 2.0 * 0.01 / 50.0);
  EXPECT_THROW(dp::l2_sensitivity(0.0, 50), std::invalid_argument);
  EXPECT_THROW(dp::l2_sensitivity(0.01, 0), std::invalid_argument);
}

TEST(Sensitivity, L1CarriesSqrtD) {
  EXPECT_DOUBLE_EQ(dp::l1_sensitivity(0.01, 50, 64),
                   dp::l2_sensitivity(0.01, 50) * 8.0);
}

TEST(GaussianMechanism, NoiseScaleMatchesPaperFormula) {
  // s = 2 G_max sqrt(2 log(1.25/delta)) / (b eps)   [paper §2.3]
  const double g_max = 1e-2, eps = 0.2, delta = 1e-6;
  const size_t b = 50;
  const double expected =
      2.0 * g_max * std::sqrt(2.0 * std::log(1.25 / delta)) / (b * eps);
  EXPECT_DOUBLE_EQ(GaussianMechanism::noise_scale(eps, delta, g_max, b), expected);
  const auto mech = GaussianMechanism::for_clipped_gradients(eps, delta, g_max, b);
  EXPECT_DOUBLE_EQ(mech.noise_stddev(), expected);
}

TEST(GaussianMechanism, RejectsOutOfRangeBudget) {
  EXPECT_THROW(GaussianMechanism(1.5, 1e-6, 0.1), std::invalid_argument);
  EXPECT_THROW(GaussianMechanism(0.0, 1e-6, 0.1), std::invalid_argument);
  EXPECT_THROW(GaussianMechanism(0.5, 0.0, 0.1), std::invalid_argument);
  EXPECT_THROW(GaussianMechanism(0.5, 1.0, 0.1), std::invalid_argument);
  EXPECT_THROW(GaussianMechanism(0.5, 1e-6, 0.0), std::invalid_argument);
}

TEST(GaussianMechanism, PerturbIsUnbiasedWithCorrectSpread) {
  const GaussianMechanism mech(0.5, 1e-5, 1.0);  // s = 2 sqrt(2 ln 1.25e5)
  const double s = mech.noise_stddev();
  Rng rng(1);
  const Vector g{1.0, -2.0};
  stats::RunningStat c0, c1;
  for (int i = 0; i < 20000; ++i) {
    const Vector o = mech.perturb(g, rng);
    c0.push(o[0]);
    c1.push(o[1]);
  }
  EXPECT_NEAR(c0.mean(), 1.0, 4.0 * s / std::sqrt(20000.0) + 1e-9);
  EXPECT_NEAR(c1.mean(), -2.0, 4.0 * s / std::sqrt(20000.0) + 1e-9);
  EXPECT_NEAR(c0.stddev(), s, 0.05 * s);
  EXPECT_NEAR(c1.stddev(), s, 0.05 * s);
}

TEST(GaussianMechanism, TotalNoiseVarianceIsDTimesS2) {
  const GaussianMechanism mech(0.5, 1e-5, 1.0);
  const double s = mech.noise_stddev();
  EXPECT_DOUBLE_EQ(mech.total_noise_variance(69), 69.0 * s * s);
}

TEST(GaussianMechanism, HigherPrivacyMeansMoreNoise) {
  const double g_max = 1e-2;
  const size_t b = 50;
  EXPECT_GT(GaussianMechanism::noise_scale(0.1, 1e-6, g_max, b),
            GaussianMechanism::noise_scale(0.5, 1e-6, g_max, b));
  EXPECT_GT(GaussianMechanism::noise_scale(0.2, 1e-8, g_max, b),
            GaussianMechanism::noise_scale(0.2, 1e-4, g_max, b));
}

TEST(GaussianMechanism, NoiseScaleShrinksWithBatch) {
  EXPECT_GT(GaussianMechanism::noise_scale(0.2, 1e-6, 1e-2, 10),
            GaussianMechanism::noise_scale(0.2, 1e-6, 1e-2, 500));
}

TEST(LaplaceMechanism, ScaleIsSensitivityOverEps) {
  const LaplaceMechanism mech(0.5, 2.0);
  EXPECT_DOUBLE_EQ(mech.scale(), 4.0);
  EXPECT_DOUBLE_EQ(mech.noise_stddev(), std::sqrt(2.0) * 4.0);
}

TEST(LaplaceMechanism, PerturbHasLaplaceSpread) {
  const LaplaceMechanism mech(1.0, 0.5);  // scale 0.5
  Rng rng(2);
  stats::RunningStat s;
  const Vector g{0.0};
  for (int i = 0; i < 40000; ++i) s.push(mech.perturb(g, rng)[0]);
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.stddev(), std::sqrt(2.0) * 0.5, 0.03);
}

TEST(LaplaceMechanism, ForClippedGradientsUsesL1Sensitivity) {
  const auto mech = LaplaceMechanism::for_clipped_gradients(0.5, 0.01, 50, 64);
  EXPECT_DOUBLE_EQ(mech.scale(), dp::l1_sensitivity(0.01, 50, 64) / 0.5);
}

TEST(NoNoise, IsIdentity) {
  const NoNoise mech;
  Rng rng(1);
  const Vector g{1.0, 2.0};
  EXPECT_EQ(mech.perturb(g, rng), g);
  EXPECT_EQ(mech.noise_stddev(), 0.0);
  EXPECT_EQ(mech.total_noise_variance(100), 0.0);
}

TEST(Mechanisms, DescribeMentionsParameters) {
  const GaussianMechanism g(0.2, 1e-6, 0.1);
  EXPECT_NE(g.describe().find("gaussian"), std::string::npos);
  EXPECT_NE(g.describe().find("0.2"), std::string::npos);
  const LaplaceMechanism l(0.5, 1.0);
  EXPECT_NE(l.describe().find("laplace"), std::string::npos);
}

TEST(Mechanisms, PerturbIntoDrawForDrawIdenticalToPerturb) {
  // The hot-path _into variant must consume the rng stream identically
  // and produce the same doubles as the allocating wrapper — the worker
  // pipeline rewire relies on it for bit-identical training runs.
  const GaussianMechanism gauss(0.5, 1e-5, 0.02);
  const LaplaceMechanism lap(0.5, 0.02);
  const NoNoise none;
  const Vector g{0.5, -1.25, 3.0, 0.0};
  const NoiseMechanism* mechs[] = {&gauss, &lap, &none};
  for (const NoiseMechanism* mech : mechs) {
    Rng a(7), b(7);
    const Vector via_wrapper = mech->perturb(g, a);
    Vector via_into(g.size(), 0.0);
    mech->perturb_into(g, b, via_into);
    EXPECT_EQ(via_wrapper, via_into) << mech->describe();
  }
}

TEST(Mechanisms, PerturbIntoSupportsAliasedOutput) {
  // The worker may sanitize in place (out aliasing the input buffer).
  const GaussianMechanism mech(0.5, 1e-5, 0.02);
  Vector g{1.0, 2.0, -3.0};
  Rng a(11), b(11);
  const Vector want = mech.perturb(g, a);
  mech.perturb_into(g, b, g);
  EXPECT_EQ(g, want);
}

TEST(Mechanisms, PerturbIntoRejectsDimensionMismatch) {
  const GaussianMechanism gauss(0.5, 1e-5, 0.02);
  const LaplaceMechanism lap(0.5, 0.02);
  const Vector g{1.0, 2.0};
  Vector out(3, 0.0);
  Rng rng(1);
  EXPECT_THROW(gauss.perturb_into(g, rng, out), std::invalid_argument);
  EXPECT_THROW(lap.perturb_into(g, rng, out), std::invalid_argument);
}

TEST(GaussianMechanismGolden, PerturbIntoAndEngineStateReproduceThePins) {
  // The noise bits and the engine state left behind, after three single-
  // word draws so the normal pairs start at an odd engine offset and
  // straddle the 312-word state block for the larger d.  The gradient
  // carries signed zeros.
  const std::map<size_t, uint64_t> pins{
      {1, 0xdca1c62699322d91ULL},   {69, 0xcafb7c2b9793affbULL},
      {155, 0x303f91c2323bc291ULL}, {156, 0xa5e97d6fe372a45eULL},
      {311, 0x5f5d119c20d8474dULL}, {312, 0x5bcfb26495fb6990ULL},
      {313, 0x85318c5b0639b655ULL}, {1001, 0x833ae9cdf9f83d33ULL}};
  const GaussianMechanism mech(0.5, 1e-5, 0.02);
  for (const auto& [d, pin] : pins) {
    Vector g(d);
    for (size_t i = 0; i < d; ++i)
      g[i] = (i % 5 == 0) ? -0.0 : 0.01 * static_cast<double>(i) - 1.0;
    Rng rng(1000 + d);
    for (int k = 0; k < 3; ++k) (void)rng.uniform();
    Vector out(d);
    mech.perturb_into(g, rng, out);
    // The engine state as the decimal text the pins were recorded from:
    // "rng <seed> <312 state words> <index>\n".
    std::ostringstream state;
    state << "rng " << rng.seed();
    for (const uint64_t word : rng.engine().state) state << ' ' << word;
    state << ' ' << rng.engine().index << '\n';
    EXPECT_EQ(testing_support::text_digest(state.str(), testing_support::bits_digest(out)),
              pin)
        << "d = " << d;
  }
}

}  // namespace
}  // namespace dpbyz
