#include "math/sketch.hpp"

#include <cmath>

#include "math/rng.hpp"
#include "utils/errors.hpp"

namespace dpbyz {

double BatchSketch::sign(size_t column, size_t lane) {
  const uint64_t h = splitmix64(kSeed ^ (column * kDim + lane));
  return (h & 1) ? 1.0 : -1.0;
}

void BatchSketch::compute(const GradientBatch& batch) {
  const size_t n = batch.rows();
  const size_t d = batch.dim();
  require(d > 0, "BatchSketch::compute: zero-dimensional rows");
  rows_ = n;
  proj_.resize(n * kDim);
  sign_table_.resize(d * kDim);

  // The sign matrix is shared by every row, so materialise it once
  // (d × k doubles = 2.5 MB at d = 1e4, streamed sequentially) instead
  // of hashing per (row, column, lane).
  for (size_t c = 0; c < d; ++c)
    for (size_t l = 0; l < kDim; ++l)
      sign_table_[c * kDim + l] = (splitmix64(kSeed ^ (c * kDim + l)) & 1) ? 1.0 : -1.0;

  const double scale = 1.0 / std::sqrt(static_cast<double>(kDim));
  for (size_t i = 0; i < n; ++i) {
    const auto row = batch.row(i);
    double* out = proj_.data() + i * kDim;
    for (size_t l = 0; l < kDim; ++l) out[l] = 0.0;
    const double* signs = sign_table_.data();
    for (size_t c = 0; c < d; ++c) {
      const double x = row[c];
      const double* s = signs + c * kDim;
      for (size_t l = 0; l < kDim; ++l) out[l] += x * s[l];
    }
    for (size_t l = 0; l < kDim; ++l) out[l] *= scale;
  }
}

double BatchSketch::approx_dist_sq(size_t i, size_t j) const {
  // Fixed scalar loop on purpose: the sketch must be a pure function of
  // the input bytes, independent of the process math mode, so that
  // prune=approx selections do not flip when fast_math toggles.
  const double* a = proj_.data() + i * kDim;
  const double* b = proj_.data() + j * kDim;
  double acc = 0.0;
  for (size_t l = 0; l < kDim; ++l) {
    const double diff = a[l] - b[l];
    acc += diff * diff;
  }
  return acc;
}

void BatchSketch::fill_dist_sq(std::span<double> out) const {
  const size_t n = rows_;
  require(out.size() == n * n, "BatchSketch::fill_dist_sq: output must be rows*rows");
  for (size_t i = 0; i < n; ++i) {
    out[i * n + i] = 0.0;
    for (size_t j = i + 1; j < n; ++j)
      out[i * n + j] = out[j * n + i] = approx_dist_sq(i, j);
  }
}

}  // namespace dpbyz
