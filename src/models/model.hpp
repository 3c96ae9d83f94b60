// model.hpp — the learning-task interface.
//
// A Model binds a parameter vector w in R^d to a per-sample loss
// Q(w, x) and its exact gradient.  Workers compute the mini-batch
// gradient h(xi) = (1/b) sum_j grad Q(w, x_j) (Eq. 4 of the paper);
// the trainer evaluates full-dataset loss/accuracy for the reported
// metrics.  All models here have closed-form gradients — no autodiff.
#pragma once

#include <cstddef>
#include <span>

#include "data/dataset.hpp"
#include "math/vector_ops.hpp"

namespace dpbyz {

/// Abstract learning task with exact per-sample gradients.
class Model {
 public:
  virtual ~Model() = default;

  /// Number of trainable parameters d.
  virtual size_t dim() const = 0;

  /// Mini-batch gradient (1/|batch|) sum over batch of grad Q(w, x_i),
  /// written into `out` (length dim()) without heap allocation — the
  /// worker pipeline's hot path, where `out` is the worker's row of the
  /// round's GradientBatch arena or its reused clean-gradient buffer.
  /// Implementations keep any per-call scratch on the stack or in
  /// thread_local buffers so concurrent calls from distinct threads are
  /// safe (the threaded trainer runs one worker pipeline per thread).
  virtual void batch_gradient_into(const Vector& w, const Dataset& data,
                                   std::span<const size_t> batch,
                                   std::span<double> out) const = 0;

  /// Allocating convenience wrapper around batch_gradient_into —
  /// value-identical by construction (tests and cold call sites).
  Vector batch_gradient(const Vector& w, const Dataset& data,
                        std::span<const size_t> batch) const;

  /// Mean loss over the given rows of `data`.
  virtual double batch_loss(const Vector& w, const Dataset& data,
                            std::span<const size_t> batch) const = 0;

  /// batch_gradient_into and batch_loss in one call, returning the loss —
  /// the worker's per-step pair.  Both results must be bit-identical to
  /// the two separate calls.  The default makes exactly those calls;
  /// models whose loss and gradient share per-sample work override it
  /// with one pass.
  virtual double batch_loss_gradient_into(const Vector& w, const Dataset& data,
                                          std::span<const size_t> batch,
                                          std::span<double> out) const;

  /// Mean loss over the entire dataset.
  double full_loss(const Vector& w, const Dataset& data) const;

  /// Classification accuracy over the entire dataset; NaN for tasks
  /// without a notion of accuracy (e.g. the quadratic estimation task).
  virtual double accuracy(const Vector& w, const Dataset& data) const;

  /// A fresh parameter vector to start training from.  Zeros by default
  /// (fine for convex tasks); models with internal symmetry (MLP) override
  /// with a deterministic random initialization.
  virtual Vector initial_parameters() const { return vec::zeros(dim()); }
};

}  // namespace dpbyz
