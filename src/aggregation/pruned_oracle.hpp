// pruned_oracle.hpp — certified distance bounds + lazy exact cache for
// the selection GARs (the `prune` knob; docs/ARCHITECTURE.md, "Distance
// pruning").
//
// Krum and mda_greedy consume pairwise distances but *select* — most of
// the O(n²) exact d-wide distances can never influence which rows win.
// The oracle makes that structure exploitable with three ingredients
// (prune=exact; multi-krum, mda and bulyan run their unpruned path there,
// because they need most exact distances anyway):
//
//   1. CERTIFIED bounds.  From per-row norms and P = 8 pivot rows (whose
//      exact distance rows are computed eagerly, seeding the cache) it
//      derives, for every pair (i, j),
//
//          lb(i,j) = max( | ||g_i|| − ||g_j|| | ,
//                         max_p | d(g_i, p) − d(g_j, p) | )   − slack
//          ub(i,j) = min( ||g_i|| + ||g_j|| ,
//                         min_p ( d(g_i, p) + d(g_j, p) ) )   + slack
//
//      — the reverse/forward triangle inequalities of the L2 metric.
//      The slack term absorbs floating-point rounding of the computed
//      norms/pivot distances (see kSlackRel below), so the *stored*
//      bounds safely bracket the *computed* exact values:
//      lb(i,j) <= dist(i,j) <= ub(i,j) holds for the doubles the seed
//      code produces, which is what the exact-mode equivalence proofs
//      need (property-tested on adversarial inputs in test_pruning.cpp).
//      Pivots are chosen farthest-first (deterministically), which keeps
//      the pivot set spread out — the pivot bound for (i, j) is tight
//      when some pivot is close to i or to j.
//
//   2. A JL sketch (math/sketch.hpp) whose O(k)-per-pair approximate
//      distances RANK candidates — cheap, unbiased, but NOT certified.
//      In exact mode the sketch only orders the evaluation of surviving
//      candidates (good ordering makes the incumbent score drop fast,
//      which makes the certified bounds prune more); in approx mode
//      (prune=approx) the sketch distances replace the exact matrix
//      outright, with a measured selection-disagreement envelope
//      (BENCH_gar_scaling.json, docs/AGGREGATORS.md).
//
//   3. A lazy symmetric exact cache: exact_sq(i, j) computes
//      vec::dist_sq(row_i, row_j) — bit-identical to the matrix entries
//      pairwise_dist_sq fills, in either math mode — at most once per
//      pair, so mda_greedy's swap passes pay each surviving pair exactly
//      once.  exact_pairs() reports how many
//      pairs were evaluated; 1 − exact_pairs/total_pairs is the
//      pruned-pair fraction the bench records.
//
// The oracle lives inside AggregatorWorkspace and follows its rules: no
// cross-call invariants (prepare() rebuilds everything), single-threaded
// use, grow-only buffers so steady-state calls allocate nothing.  It
// holds a pointer to the batch only between prepare() and the end of the
// enclosing aggregate call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "math/gradient_batch.hpp"
#include "math/sketch.hpp"

namespace dpbyz {

/// The ExperimentConfig::prune knob, parsed.
enum class PruneMode {
  kOff,     ///< today's code path, byte-for-byte (default)
  kExact,   ///< certified bounds skip exact distances; selections bit-identical
  kApprox,  ///< JL sketch distances replace the exact matrix (measured envelope)
};

/// Parse "off" / "exact" / "approx"; throws std::invalid_argument otherwise.
PruneMode parse_prune_mode(const std::string& s);

/// Inverse of parse_prune_mode.
const char* prune_mode_name(PruneMode mode);

class PrunedDistanceOracle {
 public:
  /// Pivot-row budget: each pivot costs one exact n-row (O(n·d)) at
  /// prepare time and one column in every bound evaluation.  8 keeps the
  /// prepare cost at O(8·n·d) — negligible against the O(n²·d) it
  /// replaces — while covering clustered data well.
  static constexpr size_t kMaxPivots = 8;

  /// Relative rounding slack folded into the certified bounds: the raw
  /// triangle-inequality bounds are exact for real numbers but are
  /// computed from rounded norms/pivot distances (relative error
  /// ~d·eps ≈ 1e-11 at d = 1e5).  Each pair's bound is widened by
  /// kSlackRel · (||g_i|| + ||g_j|| + 2·max_r ||g_r||) — two decades of
  /// margin over the worst rounding, still ~1e-9 of the data scale, so
  /// pruning power is unaffected for any separation that matters.
  static constexpr double kSlackRel = 1e-9;

  /// Build bounds, sketch, ranking matrix and reset the exact cache for
  /// this batch (exact mode).  O(n·d·(P + k)) + O(n²·(P + k)).
  /// Allocation-free once warmed up at this (n, d).
  void prepare(const GradientBatch& batch);

  /// Approx mode: compute the sketch and fill `out` (n*n, row-major) with
  /// the JL approximate squared distances — a drop-in replacement for
  /// pairwise_dist_sq with zero diagonal and exact symmetry.  Does not
  /// build bounds or the cache.
  void fill_approx(const GradientBatch& batch, std::span<double> out);

  size_t rows() const { return rows_; }

  /// Lazily-cached exact squared distance, bit-identical to the
  /// pairwise_dist_sq matrix entry in the current math mode.
  double exact_sq(size_t i, size_t j);

  /// sqrt(exact_sq(i, j)) — the true-distance double MDA compares.
  /// Cached alongside the squared value.
  double exact_dist(size_t i, size_t j);

  /// Certified true-distance bounds (slack-widened; see above).
  double lb_dist(size_t i, size_t j) const { return lb_[i * rows_ + j]; }
  double ub_dist(size_t i, size_t j) const { return ub_[i * rows_ + j]; }

  /// Certified squared-distance lower bound (lb² deflated one more notch
  /// so squaring rounding cannot cross the exact value).
  double lb_sq(size_t i, size_t j) const;

  /// JL approximate squared distance (ranking only; never certified).
  double approx_sq(size_t i, size_t j) const { return approx_[i * rows_ + j]; }

  /// Deflate a nonnegative score sum so that FP accumulation rounding
  /// cannot push a lower-bound sum above the exact-path score it brackets.
  static double deflate(double x) { return x - x * 1e-10; }

  /// Distinct pairs exact-evaluated since prepare() (pivot rows included).
  size_t exact_pairs() const { return exact_pairs_; }

  /// n·(n−1)/2 — the denominator of the pruned-pair fraction.
  size_t total_pairs() const { return rows_ * (rows_ - 1) / 2; }

  const BatchSketch& sketch() const { return sketch_; }

  /// Number of pivots chosen for the current batch (min(kMaxPivots, n)).
  size_t pivots() const { return pivot_ids_.size(); }

  // Shared scratch for the pruned GAR paths (per-pool score bounds,
  // candidate lists, orderings).  Plain data, same rules as
  // AggregatorWorkspace members: any caller may scribble, sequential use
  // only, grow-only capacity.
  std::vector<double> scr_lb;
  std::vector<double> scr_rank;
  std::vector<double> scr_tmp;
  std::vector<size_t> scr_order;

 private:
  const GradientBatch* batch_ = nullptr;  // valid prepare() .. end of call
  size_t rows_ = 0;
  BatchSketch sketch_;
  std::vector<size_t> pivot_ids_;
  std::vector<double> lb_;        // n×n certified lower bounds (distance)
  std::vector<double> ub_;        // n×n certified upper bounds (distance)
  std::vector<double> approx_;    // n×n JL squared distances (ranking)
  std::vector<double> cache_sq_;  // n×n lazy exact squared distances
  std::vector<double> cache_d_;   // n×n lazy exact true distances
  std::vector<uint8_t> known_;    // n×n cache-valid flags
  size_t exact_pairs_ = 0;
};

}  // namespace dpbyz
