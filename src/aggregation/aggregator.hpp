// aggregator.hpp — gradient aggregation rule (GAR) interface.
//
// The server applies a deterministic GAR F to the n submitted gradients:
// G_t^agg = F(g_t^(1), ..., g_t^(n))  (paper §2.1).  Each concrete GAR is
// constructed for a fixed (n, f) pair, validates its own admissibility
// constraints (e.g. Krum needs n >= 2f + 3), and exposes the paper's
// VN-ratio constant k_F(n, f) so the theory module can evaluate Eq. (8).
//
// All GARs here are *statistically robust* in the paper's sense (Remark 2):
// they filter attacks using only the submitted gradients.
//
// Kernel contract (the hot path):
//   * inputs arrive as a contiguous GradientBatch (one row per worker);
//   * all scratch, including the result, lives in a caller-owned
//     AggregatorWorkspace — after the workspace has warmed up at a given
//     (n, d), aggregate(batch, ws) performs zero heap allocations;
//   * the returned view aliases ws.output and stays valid until the next
//     aggregate call on the same workspace;
//   * implementations are permutation-invariant in the batch rows and
//     bit-identical to the seed std::span<const Vector> implementations
//     (preserved in aggregation/reference_gars.hpp and enforced by the
//     golden tests).
// The std::span<const Vector> overload is a test-facing convenience: it
// packs the vectors into a temporary batch (GradientBatch::from_vectors)
// and forwards to the batch path, so it checks the same rules and returns
// the same bits — but it allocates, so no round loop calls it.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "aggregation/workspace.hpp"
#include "math/gradient_batch.hpp"
#include "math/vector_ops.hpp"

namespace dpbyz {

/// Deterministic gradient aggregation rule for a fixed (n, f).
class Aggregator {
 public:
  /// Validates 0 <= f and n >= 1; concrete GARs tighten this.
  Aggregator(size_t n, size_t f);
  virtual ~Aggregator() = default;

  /// Aggregate the batch's n() rows into ws.output and return a view of
  /// it.  Zero heap allocations once `ws` has warmed up at this (n, d).
  std::span<const double> aggregate(const GradientBatch& batch,
                                    AggregatorWorkspace& ws) const;

  /// Test-facing convenience: packs `gradients` into a temporary batch
  /// and forwards to the view path (allocates; not for the hot loop).
  Vector aggregate(std::span<const Vector> gradients) const;

  /// Short identifier ("krum", "mda", ...), stable across versions.
  virtual std::string name() const = 0;

  /// The multiplicative constant k_F(n, f) of the VN-ratio condition
  /// (Eq. 2): F is guaranteed (alpha, f)-Byzantine resilient whenever
  /// stddev(G) / ||E[G]|| <= k_F(n, f).  NaN for rules with no published
  /// constant (average, geometric median).
  virtual double vn_threshold() const;

  size_t n() const { return n_; }
  size_t f() const { return f_; }

 protected:
  /// The NVI hook every concrete GAR implements.  Contract (the public
  /// aggregate() wrapper guarantees the preconditions):
  ///   * on entry the batch's shape is validated (rows == n(), dim > 0)
  ///     and ws is reserved for (rows, dim) with ws.output already sized
  ///     to batch.dim();
  ///   * every row is finite, and exactly one party checks it: for a
  ///     rule whose certifies_finite() is false, aggregate()'s sweep
  ///     before the call; otherwise the rule itself, before it reads a
  ///     row for anything else — the selection rules from their distance
  ///     matrix (fill_certified_dist_sq), the tree with one root sweep
  ///     before any child runs.  The tree's children and leaves get
  ///     ws.rows_finite set and check nothing.  A non-finite batch throws
  ///     std::invalid_argument with one message on every path;
  ///   * the implementation writes the aggregate into ws.output, using
  ///     any other ws buffer as scratch, and allocates nothing once ws
  ///     has warmed up at this (n, d) — measured by bench_gar_scaling's
  ///     operator-new counter, not merely asserted;
  ///   * it reads the batch through row()/flat() views only (inputs may
  ///     be non-owning row-range views of a larger arena — the
  ///     aggregation tree depends on this) and keeps no reference to batch or ws
  ///     past the call;
  ///   * output must be permutation-invariant in the batch rows and
  ///     bit-identical to the seed implementation preserved in
  ///     reference_gars.{hpp,cpp} (enforced by tests/test_gar_golden).
  virtual void aggregate_into(const GradientBatch& batch,
                              AggregatorWorkspace& ws) const = 0;

  /// True when aggregate_into establishes finiteness itself (see its
  /// contract), so aggregate() skips its sweep.
  virtual bool certifies_finite() const { return false; }

  /// Shared shape validation: rows == n, dim > 0.
  void validate_shape(const GradientBatch& batch) const;

  /// The finiteness sweep, at `threads` width (GradientBatch::all_finite).
  /// Byzantine inputs may be anything *finite*; non-finite values are
  /// rejected with std::invalid_argument to keep downstream arithmetic
  /// well-defined — a real server would drop such gradients as trivially
  /// malformed.
  static void require_finite(const GradientBatch& batch, size_t threads = 1);

  /// fill_dist_sq, then require_finite when the matrix does not certify
  /// the rows and ws.rows_finite is unset: the selection rules' first
  /// read of the batch.
  static void fill_certified_dist_sq(const GradientBatch& batch, AggregatorWorkspace& ws);

 private:
  /// The tree hands its children views its root has already swept.
  friend class HierarchicalAggregator;

  /// aggregate() with ws.rows_finite = `rows_finite`; true skips every
  /// finiteness check.
  std::span<const double> run(const GradientBatch& batch, AggregatorWorkspace& ws,
                              bool rows_finite) const;

  size_t n_;
  size_t f_;
};

/// The selection GARs' one source of pairwise distances: fill ws.dist_sq
/// (n×n, row-major) with the exact squared distances, computed at
/// ws.threads width.  Only distinct rows are paired: a row that is a
/// bitwise copy of an earlier one (the f colluding Byzantine workers
/// send one vector f times over) maps to its first occurrence, found by
/// a filter on the first word and then memcmp, and the kernel runs over
/// the m distinct rows (pairwise_dist_sq's index-list form, thread gate
/// on m) before the m×m result is expanded in place to n×n.  An entry between
/// two copies is +0.0, the kernel's value for a finite pair.  Rows that
/// compare == but differ in bits (±0.0) stay distinct.  Bit-identical to
/// pairwise_dist_sq over the whole batch whenever the rows are finite.
/// Returns true when the matrix certifies that every row is finite:
/// at least two distinct rows and every entry finite (a NaN or ±inf
/// coordinate makes every distance of its row NaN or +inf, since the
/// terms are squares).  False when the rows hold a non-finite value, or
/// there is one distinct row, or finite distances overflowed to +inf.
bool fill_dist_sq(const GradientBatch& batch, AggregatorWorkspace& ws);

/// Names accepted by make_aggregator.
std::vector<std::string> aggregator_names();

/// Factory: name in {"average", "krum", "multi-krum", "mda",
/// "mda_greedy", "median", "trimmed-mean", "bulyan", "meamed", "phocas",
/// "cge", "geometric-median"} — the list aggregator_names() returns, catalogued
/// with budgets/complexities/citations in docs/AGGREGATORS.md.  Throws
/// std::invalid_argument for unknown names or inadmissible (n, f).
/// (The HierarchicalAggregator tree is constructed directly — it needs
/// inner/merge names, levels and a branch; see aggregation/hierarchical.hpp.)
std::unique_ptr<Aggregator> make_aggregator(const std::string& name, size_t n, size_t f);

}  // namespace dpbyz
