#include "models/linear_model.hpp"

#include <algorithm>
#include <cmath>

#include "utils/errors.hpp"

namespace dpbyz {

double Model::full_loss(const Vector& w, const Dataset& data) const {
  std::vector<size_t> all(data.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  return batch_loss(w, data, all);
}

double Model::batch_loss_gradient_into(const Vector& w, const Dataset& data,
                                       std::span<const size_t> batch,
                                       std::span<double> out) const {
  batch_gradient_into(w, data, batch, out);
  return batch_loss(w, data, batch);
}

Vector Model::batch_gradient(const Vector& w, const Dataset& data,
                             std::span<const size_t> batch) const {
  Vector g(dim(), 0.0);
  batch_gradient_into(w, data, batch, g);
  return g;
}

double Model::accuracy(const Vector&, const Dataset&) const {
  return std::nan("");
}

double sigmoid(double z) {
  if (z >= 0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

const char* to_string(LinearLoss loss) {
  switch (loss) {
    case LinearLoss::kMseOnSigmoid: return "mse_sigmoid";
    case LinearLoss::kLeastSquares: return "least_squares";
    case LinearLoss::kLogistic: return "logistic";
  }
  return "unknown";
}

LinearModel::LinearModel(size_t num_features, LinearLoss loss)
    : num_features_(num_features), loss_(loss) {
  require(num_features > 0, "LinearModel: need at least one feature");
}

double LinearModel::score(const Vector& w, std::span<const double> x) const {
  require(w.size() == dim(), "LinearModel::score: wrong parameter dimension");
  require(x.size() == num_features_, "LinearModel::score: wrong feature dimension");
  double z = w[num_features_];  // bias
  for (size_t j = 0; j < num_features_; ++j) z += w[j] * x[j];
  return z;
}

double LinearModel::predict(const Vector& w, std::span<const double> x) const {
  const double z = score(w, x);
  return loss_ == LinearLoss::kLeastSquares ? z : sigmoid(z);
}

namespace {

/// Scores of four samples side by side: four independent chains, each
/// starting from the bias and adding w[j] * x[j] in j order — exactly
/// score()'s chain, so every z is bit-identical to it.  The chains share
/// each w[j] load and overlap their add latencies.
void score4(const double* w, size_t f, const double* const x[4], double z[4]) {
  double z0 = w[f], z1 = w[f], z2 = w[f], z3 = w[f];
  for (size_t j = 0; j < f; ++j) {
    const double wj = w[j];
    z0 += wj * x[0][j];
    z1 += wj * x[1][j];
    z2 += wj * x[2][j];
    z3 += wj * x[3][j];
  }
  z[0] = z0;
  z[1] = z1;
  z[2] = z2;
  z[3] = z3;
}

/// Scores of rows row_of(0), ..., row_of(count - 1), visited four at a
/// time as visit(first, lanes, rows, z) with lanes = 4 except in the last
/// block.  A short last block repeats its last row in the spare lanes.
template <typename RowOf, typename Visit>
void for_each_score_block(const double* w, size_t f, size_t count, RowOf row_of,
                          Visit visit) {
  for (size_t first = 0; first < count; first += 4) {
    const size_t lanes = std::min<size_t>(4, count - first);
    const double* rows[4] = {};
    for (size_t k = 0; k < 4; ++k) rows[k] = row_of(first + std::min(k, lanes - 1));
    double z[4] = {};
    score4(w, f, rows, z);
    visit(first, lanes, rows, z);
  }
}

/// Loss of one sample at score z (returned when kLoss) and dL/dz (into
/// dz when kGrad), with the sigmoid evaluated once for both.
template <bool kLoss, bool kGrad>
double sample_terms(LinearLoss kind, double z, double y, double& dz) {
  switch (kind) {
    case LinearLoss::kMseOnSigmoid: {
      const double p = sigmoid(z);
      const double diff = p - y;
      if constexpr (kGrad) dz = 2.0 * diff * p * (1.0 - p);
      return diff * diff;
    }
    case LinearLoss::kLeastSquares: {
      const double diff = z - y;
      if constexpr (kGrad) dz = 2.0 * diff;
      return diff * diff;
    }
    case LinearLoss::kLogistic:
      if constexpr (kGrad) dz = sigmoid(z) - y;
      if constexpr (kLoss) {
        // Stable: log(1 + exp(-|z|)) + max(z,0) - z*y
        return std::log1p(std::exp(-std::abs(z))) + std::max(z, 0.0) - z * y;
      }
      return 0.0;
  }
  return 0.0;
}

}  // namespace

template <bool kLoss, bool kGrad>
double LinearModel::accumulate(const Vector& w, const Dataset& data,
                               std::span<const size_t> batch, std::span<double> g) const {
  require(!batch.empty(), "LinearModel: empty batch");
  require(data.labeled(), "LinearModel: dataset must be labeled");
  require(w.size() == dim(), "LinearModel: wrong parameter dimension");
  require(data.dim() == num_features_, "LinearModel: wrong feature dimension");
  const size_t f = num_features_;
  double loss = 0.0;
  for_each_score_block(
      w.data(), f, batch.size(), [&](size_t k) { return data.x(batch[k]).data(); },
      [&](size_t first, size_t lanes, const double* const rows[4], const double z[4]) {
        double dz[4] = {};
        for (size_t k = 0; k < lanes; ++k) {
          const double term =
              sample_terms<kLoss, kGrad>(loss_, z[k], data.y(batch[first + k]), dz[k]);
          if constexpr (kLoss) loss += term;
        }
        if constexpr (kGrad) {
          // Coordinate j receives the samples' terms in batch order, as
          // with one pass per sample; four samples share one pass over g.
          if (lanes == 4) {
            for (size_t j = 0; j < f; ++j)
              g[j] = (((g[j] + dz[0] * rows[0][j]) + dz[1] * rows[1][j]) +
                      dz[2] * rows[2][j]) +
                     dz[3] * rows[3][j];
            g[f] = (((g[f] + dz[0]) + dz[1]) + dz[2]) + dz[3];  // bias input is 1
          } else {
            for (size_t k = 0; k < lanes; ++k) {
              for (size_t j = 0; j < f; ++j) g[j] += dz[k] * rows[k][j];
              g[f] += dz[k];
            }
          }
        }
      });
  return loss;
}

void LinearModel::batch_gradient_into(const Vector& w, const Dataset& data,
                                      std::span<const size_t> batch,
                                      std::span<double> g) const {
  require(g.size() == dim(), "LinearModel::batch_gradient: wrong output dimension");
  vec::fill(g, 0.0);
  accumulate<false, true>(w, data, batch, g);
  vec::scale_inplace(g, 1.0 / static_cast<double>(batch.size()));
}

double LinearModel::batch_loss(const Vector& w, const Dataset& data,
                               std::span<const size_t> batch) const {
  return accumulate<true, false>(w, data, batch, {}) / static_cast<double>(batch.size());
}

double LinearModel::batch_loss_gradient_into(const Vector& w, const Dataset& data,
                                             std::span<const size_t> batch,
                                             std::span<double> g) const {
  require(g.size() == dim(), "LinearModel::batch_gradient: wrong output dimension");
  vec::fill(g, 0.0);
  const double loss = accumulate<true, true>(w, data, batch, g);
  vec::scale_inplace(g, 1.0 / static_cast<double>(batch.size()));
  return loss / static_cast<double>(batch.size());
}

double LinearModel::accuracy(const Vector& w, const Dataset& data) const {
  require(data.labeled(), "LinearModel::accuracy: dataset must be labeled");
  require(data.size() > 0, "LinearModel::accuracy: empty dataset");
  require(w.size() == dim(), "LinearModel::accuracy: wrong parameter dimension");
  require(data.dim() == num_features_, "LinearModel::accuracy: wrong feature dimension");
  size_t correct = 0;
  for_each_score_block(
      w.data(), num_features_, data.size(), [&](size_t i) { return data.x(i).data(); },
      [&](size_t first, size_t lanes, const double* const*, const double z[4]) {
        for (size_t k = 0; k < lanes; ++k) {
          const bool predicted_positive = z[k] > 0.0;  // sigma(z) > 0.5 <=> z > 0
          const bool actual_positive = data.y(first + k) > 0.5;
          if (predicted_positive == actual_positive) ++correct;
        }
      });
  return static_cast<double>(correct) / static_cast<double>(data.size());
}

}  // namespace dpbyz
