// bulyan.hpp — Bulyan of Krum (El Mhamdi et al., ICML 2018).
//
// Two stages:
//   1. Selection: repeatedly run Krum over the remaining gradients,
//      moving each winner into a selection set, until theta = n - 2f
//      gradients are selected.
//   2. Aggregation: per coordinate, keep the beta = theta - 2f values
//      closest to the coordinate median of the selection set and average
//      them ("trimmed median" step), defeating the hidden large-coordinate
//      attacks that pure Krum admits.
//
// Admissibility: n >= 4f + 3 (so that theta >= 2f + 3 keeps every inner
// Krum call admissible and beta = theta - 2f >= 3).
//
// The hot path computes the pairwise distance matrix ONCE and rescores the
// shrinking pool from it — O(n²d + θn²) instead of the seed's θ recomputed
// O(n²d) matrices — which makes Bulyan's cost essentially one Krum.
#pragma once

#include "aggregation/aggregator.hpp"

namespace dpbyz {

class Bulyan final : public Aggregator {
 public:
  Bulyan(size_t n, size_t f);

  std::string name() const override { return "bulyan"; }
  double vn_threshold() const override;

  /// The iterated-Krum selection stage: fills ws.dist_sq and leaves the
  /// n - 2f selected indices in ws.selected (selection order).
  void select_indices_view(const GradientBatch& batch, AggregatorWorkspace& ws) const;

 protected:
  void aggregate_into(const GradientBatch& batch, AggregatorWorkspace& ws) const override;
  bool certifies_finite() const override { return true; }
};

}  // namespace dpbyz
