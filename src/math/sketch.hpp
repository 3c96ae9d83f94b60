// sketch.hpp — a seeded Johnson–Lindenstrauss sketch of a gradient batch.
//
// The selection GARs (Krum, MDA, Bulyan) consume the n×n pairwise
// distance matrix, whose exact fill costs O(n²·d).  prune=approx replaces
// it with distances between k-dimensional signed projections
// s_i = (1/√k) · R g_i, R ∈ {−1, +1}^{k×d} (Achlioptas 2003): O(n·d·k)
// once per batch, after which every distance ||s_i − s_j||² costs O(k)
// instead of O(d) (docs/ARCHITECTURE.md, "Distance pruning").
//
// The sign matrix is derived from splitmix64 on (seed, column, lane), so
// the sketch is a pure function of the input bytes and the fixed seed:
// identical across runs, platforms, and thread widths — no std::
// distribution is involved (their outputs are implementation-defined).
//
// Contract: the sketch is an ESTIMATE.  E[||s_i − s_j||²] = ||g_i − g_j||²
// and the JL concentration bound makes large relative errors unlikely at
// k = 32, but nothing is guaranteed per pair, so selections made on it
// may differ from the exact ones (the measured envelope is in
// BENCH_gar_scaling.json and docs/AGGREGATORS.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "math/gradient_batch.hpp"

namespace dpbyz {

/// Per-batch sketch state.  Buffers are grow-only (resize never shrinks
/// capacity), so recomputing the sketch for a same-shape batch is
/// allocation-free after warmup.
class BatchSketch {
 public:
  /// Projection width.  k = 32 keeps the sketch pass ~300x cheaper than
  /// the exact pairwise kernel at d = 1e4 while the JL relative error
  /// concentrates around sqrt(2/k) ≈ 25% — loose as a measurement, ample
  /// for the documented prune=approx envelope.
  static constexpr size_t kDim = 32;

  /// Fixed seed for the sign matrix.  A constant (not the experiment
  /// seed) so a batch's sketch never depends on experiment plumbing —
  /// two runs over the same bytes always sketch identically.
  static constexpr uint64_t kSeed = 0x9e3779b97f4a7c15ULL;

  /// Project every row through the seeded sign matrix.  O(n·d·k);
  /// allocation-free once warmed up at this (n, d).
  void compute(const GradientBatch& batch);

  size_t rows() const { return rows_; }

  /// The k-dimensional projected row (1/√k scaling already applied).
  std::span<const double> projected(size_t i) const {
    return {proj_.data() + i * kDim, kDim};
  }

  /// Approximate squared distance ||s_i − s_j||² ≈ ||g_i − g_j||².  O(k).
  double approx_dist_sq(size_t i, size_t j) const;

  /// Fill `out` (rows()², row-major) with approx_dist_sq for every pair —
  /// a drop-in for pairwise_dist_sq with zero diagonal and exact symmetry.
  void fill_dist_sq(std::span<double> out) const;

  /// The (row c, lane l) entry of the sign matrix: ±1, derived from
  /// splitmix64(kSeed ^ (c·kDim + l)).  Exposed so tests can pin the
  /// projection against a from-scratch reimplementation.
  static double sign(size_t column, size_t lane);

 private:
  size_t rows_ = 0;
  std::vector<double> proj_;        // rows × kDim, row-major
  std::vector<double> sign_table_;  // dim × kDim, ±1.0 (doubles: the
                                    // projection inner loop compiles to
                                    // plain mul/add, no select)
};

}  // namespace dpbyz
