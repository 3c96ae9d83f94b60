// cge.hpp — Comparative Gradient Elimination (Gupta & Vaidya, 2020).
//
// Extension beyond the paper's GAR table (see docs/AGGREGATORS.md): sort the n
// submitted gradients by L2 norm and average the n - f smallest.  The
// intuition mirrors trimmed aggregation in norm space: a Byzantine
// gradient must keep its norm within the honest range to survive, which
// caps the bias it can inject.  CGE is due to one of the paper's authors
// and is a natural "what about other statistically-robust rules" probe;
// it has no published VN-ratio constant, so vn_threshold() is NaN and the
// theory benches skip it.
#pragma once

#include "aggregation/aggregator.hpp"

namespace dpbyz {

class Cge final : public Aggregator {
 public:
  /// Requires n > 2f (a norm-majority of honest gradients).
  Cge(size_t n, size_t f);

  std::string name() const override { return "cge"; }

  /// Leaves the indices of the n - f smallest-norm rows in ws.selected
  /// (ties broken by lexicographic row order for permutation invariance).
  /// Checks no finiteness; aggregate() does.
  void select_indices_view(const GradientBatch& batch, AggregatorWorkspace& ws) const;

 protected:
  void aggregate_into(const GradientBatch& batch, AggregatorWorkspace& ws) const override;
};

}  // namespace dpbyz
