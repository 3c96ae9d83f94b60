#include "data/synthetic.hpp"

#include <cmath>

#include "utils/errors.hpp"

namespace dpbyz {

Dataset make_phishing_like(const PhishingLikeConfig& cfg, uint64_t seed) {
  require(cfg.num_samples > 0 && cfg.num_features > 0,
          "make_phishing_like: empty shape");
  require(cfg.positive_fraction > 0.0 && cfg.positive_fraction < 1.0,
          "make_phishing_like: positive_fraction must be in (0,1)");
  Rng root(seed);
  Rng structure = root.derive("structure");
  Rng sampling = root.derive("sampling");

  // Class-mean direction: only a subset of features is informative.  The
  // two class means sit at +/- separation/2 along this direction.
  const size_t d = cfg.num_features;
  Vector direction(d, 0.0);
  const auto num_informative =
      static_cast<size_t>(std::ceil(cfg.informative_fraction * static_cast<double>(d)));
  const auto informative = structure.permutation(d);
  double dir_norm_sq = 0.0;
  for (size_t k = 0; k < num_informative; ++k) {
    const double v = structure.normal();
    direction[informative[k]] = v;
    dir_norm_sq += v * v;
  }
  check_internal(dir_norm_sq > 0.0, "make_phishing_like: degenerate direction");
  vec::scale_inplace(direction, 1.0 / std::sqrt(dir_norm_sq));

  // Latent class means shift * direction, shift = +/- separation / 2.
  Vector positive_mean(d), negative_mean(d);
  for (size_t j = 0; j < d; ++j) {
    positive_mean[j] = (0.5 * cfg.class_separation) * direction[j];
    negative_mean[j] = (-0.5 * cfg.class_separation) * direction[j];
  }

  Matrix x(cfg.num_samples, d);
  Vector y(cfg.num_samples);
  for (size_t i = 0; i < cfg.num_samples; ++i) {
    const bool positive = sampling.bernoulli(cfg.positive_fraction);
    y[i] = positive ? 1.0 : 0.0;
    auto row = x.row(i);
    sampling.add_normal(positive ? positive_mean : negative_mean, cfg.noise_sigma, row);
    for (double& latent : row) {
      // Quantize to the {0, 0.5, 1} levels of the LIBSVM phishing encoding.
      if (latent < -0.43)
        latent = 0.0;
      else if (latent > 0.43)
        latent = 1.0;
      else
        latent = 0.5;
    }
  }
  return Dataset(std::move(x), std::move(y));
}

GaussianMeanData make_gaussian_mean(const GaussianMeanConfig& cfg, uint64_t seed) {
  require(cfg.num_samples > 0 && cfg.dim > 0, "make_gaussian_mean: empty shape");
  require(cfg.sigma > 0, "make_gaussian_mean: sigma must be positive");
  Rng root(seed);
  Rng mean_rng = root.derive("mean");
  Rng sample_rng = root.derive("samples");

  // x_bar: uniformly random direction scaled to mean_radius.
  Vector mean = mean_rng.normal_vector(cfg.dim, 1.0);
  const double n = vec::norm(mean);
  check_internal(n > 0.0, "make_gaussian_mean: degenerate mean");
  vec::scale_inplace(mean, cfg.mean_radius / n);

  // Per-coordinate stddev sigma/sqrt(d) gives E||x - x_bar||^2 = sigma^2,
  // i.e. total gradient-noise variance sigma^2 as in the paper's proof.
  const double coord_sigma = cfg.sigma / std::sqrt(static_cast<double>(cfg.dim));
  Matrix x(cfg.num_samples, cfg.dim);
  for (size_t i = 0; i < cfg.num_samples; ++i) sample_rng.add_normal(mean, coord_sigma, x.row(i));
  return {Dataset(std::move(x), Vector{}), std::move(mean)};
}

Dataset make_blobs(const BlobsConfig& cfg, uint64_t seed) {
  require(cfg.num_samples > 0 && cfg.num_features > 0, "make_blobs: empty shape");
  Rng root(seed);
  Rng center_rng = root.derive("centers");
  Rng sample_rng = root.derive("samples");

  Vector center = center_rng.normal_vector(cfg.num_features, 1.0);
  const double n = vec::norm(center);
  check_internal(n > 0.0, "make_blobs: degenerate center");
  vec::scale_inplace(center, cfg.separation / (2.0 * n));

  // The two blob means, +center and -center.
  Vector negative_center(cfg.num_features);
  for (size_t j = 0; j < cfg.num_features; ++j) negative_center[j] = -center[j];

  Matrix x(cfg.num_samples, cfg.num_features);
  Vector y(cfg.num_samples);
  for (size_t i = 0; i < cfg.num_samples; ++i) {
    const bool positive = sample_rng.bernoulli(0.5);
    y[i] = positive ? 1.0 : 0.0;
    sample_rng.add_normal(positive ? center : negative_center, cfg.sigma, x.row(i));
  }
  return Dataset(std::move(x), std::move(y));
}

}  // namespace dpbyz
