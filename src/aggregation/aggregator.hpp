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
// The std::span<const Vector> overload is the legacy convenience path: it
// packs the vectors into a temporary batch and forwards — correct but
// allocating, for tests and cold call sites only.
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

  /// Legacy convenience: packs `gradients` into a temporary batch and
  /// forwards to the view path (allocates; not for the hot loop).
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
  ///   * on entry the batch is validated (rows == n(), dim > 0, finite)
  ///     and ws is reserved for (rows, dim) with ws.output already sized
  ///     to batch.dim();
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

  /// Shared input validation: rows == n, dim > 0, no NaN/Inf (Byzantine
  /// inputs may be anything *finite*; non-finite values are rejected to
  /// keep downstream arithmetic well-defined — a real server would drop
  /// such gradients as trivially malformed).
  void validate_batch(const GradientBatch& batch) const;

  /// Legacy-path validation with the same rules, on owning vectors.
  void validate_inputs(std::span<const Vector> gradients) const;

 private:
  size_t n_;
  size_t f_;
};

/// The selection GARs' one source of pairwise distances: fill ws.dist_sq
/// (n×n, row-major) with the exact squared distances, computed at
/// ws.threads width.
void fill_dist_sq(const GradientBatch& batch, AggregatorWorkspace& ws);

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
