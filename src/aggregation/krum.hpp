// krum.hpp — Krum and Multi-Krum (Blanchard et al., NeurIPS 2017).
//
// Krum scores each gradient by the sum of squared L2 distances to its
// n - f - 2 nearest neighbours (excluding itself) and outputs the gradient
// with the lowest score.  Intuition: a Byzantine gradient far from the
// honest cluster accumulates large distances and cannot win; a Byzantine
// gradient close enough to win is by construction harmless.
//
// Multi-Krum averages the m lowest-scoring gradients (m = n - f here),
// trading some robustness slack for lower variance.
//
// Admissibility: n >= 2f + 3 (the neighbourhood size n - f - 2 must be
// at least 1 and the majority argument needs 2f + 2 < n).
//
// The hot path scores gradients from the workspace's precomputed pairwise
// squared-distance matrix (shared with MDA and Bulyan); the free
// krum_scores function below recomputes distances from owning vectors and
// serves as the reference implementation for the golden tests.
#pragma once

#include "aggregation/aggregator.hpp"

namespace dpbyz {

/// Krum scores for an arbitrary pool: each gradient's sum of squared
/// distances to its `count - f - 2` nearest neighbours, with the
/// neighbourhood clamped to [1, count-1] so shrunken pools (Bulyan's
/// iterated selection) remain well-defined.  Reference implementation —
/// allocates its own distance matrix.
std::vector<double> krum_scores(std::span<const Vector> gradients, size_t f);

/// Index of the minimum-score gradient, breaking exact score ties by
/// lexicographic comparison of the gradient vectors.  Ties are not an
/// edge case: with a 1-element neighbourhood, mutual nearest neighbours
/// receive *identical* scores, and without a canonical tie-break the
/// selection (hence Bulyan) would depend on input order, violating the
/// permutation invariance a GAR must have.
size_t krum_argmin(std::span<const Vector> gradients, const std::vector<double>& scores);

/// Hot-path scoring over a candidate pool: `active` lists the batch rows
/// that form the pool (in pool order) and `dist_sq` is the full n*n
/// squared-distance matrix of the batch (n = stride).  Writes the score of
/// every pool member into out_scores[0 .. active.size()), using
/// scratch_row (capacity >= active.size() - 1) for the neighbour sums.
/// Bit-identical to krum_scores on the corresponding vectors.
void krum_scores_from_matrix(std::span<const double> dist_sq, size_t stride,
                             std::span<const size_t> active, size_t f,
                             std::span<double> out_scores, std::vector<double>& scratch_row);

/// Position (within `active`) of the minimum-score pool member, with the
/// same lexicographic tie-break as krum_argmin, comparing batch rows.
size_t krum_argmin_view(const GradientBatch& batch, std::span<const size_t> active,
                        std::span<const double> scores);

class Krum : public Aggregator {
 public:
  Krum(size_t n, size_t f);

  std::string name() const override { return "krum"; }
  double vn_threshold() const override;

 protected:
  void aggregate_into(const GradientBatch& batch, AggregatorWorkspace& ws) const override;
  bool certifies_finite() const override { return true; }

  /// Fill ws.dist_sq / ws.active / ws.scores for the full batch and
  /// return the number of gradients (shared by Krum and Multi-Krum).
  size_t score_batch(const GradientBatch& batch, AggregatorWorkspace& ws) const;
};

/// Multi-Krum: average of the m = n - f smallest-score gradients.
class MultiKrum final : public Krum {
 public:
  MultiKrum(size_t n, size_t f);

  std::string name() const override { return "multi-krum"; }

 protected:
  void aggregate_into(const GradientBatch& batch, AggregatorWorkspace& ws) const override;
};

}  // namespace dpbyz
