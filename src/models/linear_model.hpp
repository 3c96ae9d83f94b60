// linear_model.hpp — linear classifier with selectable loss.
//
// The paper's experiments train "a logistic regression model ... with the
// mean square error as training loss" (§5.1): prediction sigma(w.x + w_0),
// loss (sigma(z) - y)^2.  We also provide plain least-squares and the
// logistic negative log-likelihood, both used in tests and extension
// benches.  The bias is folded into the parameter vector (d = features+1),
// matching the paper's d = 69 on 68 features.
#pragma once

#include "models/model.hpp"

namespace dpbyz {

enum class LinearLoss {
  kMseOnSigmoid,  ///< (sigma(z) - y)^2 — the paper's setup
  kLeastSquares,  ///< (z - y)^2
  kLogistic,      ///< -y log sigma(z) - (1-y) log(1 - sigma(z))
};

/// Return a parseable name ("mse_sigmoid", "least_squares", "logistic").
const char* to_string(LinearLoss loss);

/// Binary linear classifier over datasets with labels in {0, 1}.
class LinearModel final : public Model {
 public:
  /// `num_features` excludes the bias; dim() == num_features + 1.
  LinearModel(size_t num_features, LinearLoss loss);

  size_t dim() const override { return num_features_ + 1; }
  LinearLoss loss_kind() const { return loss_; }

  void batch_gradient_into(const Vector& w, const Dataset& data,
                           std::span<const size_t> batch,
                           std::span<double> out) const override;
  double batch_loss(const Vector& w, const Dataset& data,
                    std::span<const size_t> batch) const override;
  /// One pass: each sample's score z = w.x is computed once and feeds
  /// both its loss term and its gradient term.
  double batch_loss_gradient_into(const Vector& w, const Dataset& data,
                                  std::span<const size_t> batch,
                                  std::span<double> out) const override;
  double accuracy(const Vector& w, const Dataset& data) const override;

  /// Raw score z = w[0..f).x + w[f] for one sample.
  double score(const Vector& w, std::span<const double> x) const;

  /// Model output: sigma(z) for the sigmoid losses, z for least squares.
  double predict(const Vector& w, std::span<const double> x) const;

 private:
  /// The shared pass behind batch_loss, batch_gradient_into and
  /// batch_loss_gradient_into: returns the summed loss (when kLoss) and
  /// accumulates the summed gradient into g (when kGrad), both in batch
  /// order.
  template <bool kLoss, bool kGrad>
  double accumulate(const Vector& w, const Dataset& data, std::span<const size_t> batch,
                    std::span<double> g) const;

  size_t num_features_;
  LinearLoss loss_;
};

/// Numerically stable logistic sigmoid.
double sigmoid(double z);

}  // namespace dpbyz
