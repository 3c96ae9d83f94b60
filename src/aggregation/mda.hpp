// mda.hpp — Minimum-Diameter Averaging (El-Mhamdi et al., 2020).
//
// MDA selects the subset S of n - f gradients with the smallest diameter
// max_{i,j in S} ||g_i - g_j|| and outputs the average of S.  Because at
// least n - f submitted gradients are honest, the chosen subset's diameter
// is no larger than the honest cluster's, which bounds how far Byzantine
// members of S can sit from the honest mean.
//
// MDA is the GAR used in all of the paper's experiments: it "has one of
// the largest VN ratio upper bounds among known (alpha, f)-Byzantine
// resilient GARs" (§5.1), k_F = (n - f) / (sqrt(8) f).
//
// Complexity: exact subset search is combinatorial.  We enumerate the
// C(n, n-f) subsets with a branch-and-bound on the running diameter —
// exact and fast for the committee sizes of this paper (n = 11: 462
// subsets).  Construction refuses instances whose subset count exceeds
// a safety cap, pointing users to Multi-Krum for very large n.
//
// The hot path fills the workspace's shared squared-distance matrix,
// square-roots it in place, and runs the branch-and-bound on the exact
// true-distance doubles the seed implementation compared (comparing
// squared values instead would diverge on the rare ties that sqrt
// rounding creates).
#pragma once

#include "aggregation/aggregator.hpp"

namespace dpbyz {

class Mda final : public Aggregator {
 public:
  /// Requires 1 <= f and n >= 2f + 1, and C(n, f) within the search cap.
  Mda(size_t n, size_t f);

  std::string name() const override { return "mda"; }
  double vn_threshold() const override;

  /// Subset selection: fills ws.dist_sq and leaves the winning subset of
  /// minimal diameter in ws.selected (ascending index order).
  void select_subset_view(const GradientBatch& batch, AggregatorWorkspace& ws) const;

  /// Number of subsets the exact search would enumerate for (n, f).
  static double subset_count(size_t n, size_t f);

  /// Enumeration cap used by the constructor.
  static constexpr double kMaxSubsets = 5e6;

 protected:
  void aggregate_into(const GradientBatch& batch, AggregatorWorkspace& ws) const override;
  bool certifies_finite() const override { return true; }
};

/// Greedy/approximate MDA for committee sizes beyond the exact search's
/// C(n, f) <= 5e6 cap (factory name "mda_greedy").
///
/// Seed subset: the n - f gradients nearest the coordinate-wise median —
/// a robust centre that at most f outliers cannot drag far.  Local
/// search: steepest-descent swaps (evict one member, admit one outsider)
/// as long as a swap strictly shrinks the subset diameter.  The result
/// is the average of a locally-minimal-diameter subset: not guaranteed
/// to match the exact MDA optimum, but every accepted swap only shrinks
/// the diameter below the seed subset's, and the honest-majority
/// argument that bounds MDA's output error needs only a diameter no
/// larger than the honest cluster's — which the *exact* minimum
/// guarantees and the greedy minimum merely approaches.  No published
/// VN-ratio constant, so vn_threshold() is NaN (docs/AGGREGATORS.md).
///
/// Deterministic: ties in the seed ordering break by index, candidate
/// swaps are scanned in (evictee, admittee) index order, and only
/// strictly-improving swaps are taken.  Complexity: O(n²d) for the
/// distance matrix plus O((n-f)³ + (n-f)²f) per swap pass — polynomial
/// where the exact search is combinatorial.
class MdaGreedy final : public Aggregator {
 public:
  /// Requires 1 <= f and n >= 2f + 1 (no subset-count cap).
  MdaGreedy(size_t n, size_t f);

  std::string name() const override { return "mda_greedy"; }

  /// Hot-path subset selection: fills ws.dist_sq (square-rooted in
  /// place, like Mda) and leaves the chosen subset in ws.selected
  /// (ascending index order).  Exposed for tests.
  void select_subset_view(const GradientBatch& batch, AggregatorWorkspace& ws) const;

  /// Diameter (true distance) of `subset` under the square-rooted
  /// matrix left in ws.dist_sq by select_subset_view; test helper.
  static double subset_diameter(std::span<const double> dist, size_t n,
                                std::span<const size_t> subset);

 protected:
  void aggregate_into(const GradientBatch& batch, AggregatorWorkspace& ws) const override;
  bool certifies_finite() const override { return true; }
};

}  // namespace dpbyz
