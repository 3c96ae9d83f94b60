// workspace.hpp — reusable scratch memory for the GAR hot path.
//
// Every GAR needs per-call scratch: the shared n×n pairwise-distance
// matrix (Krum / MDA / Bulyan) and its distinct-row index, per-coordinate
// gather columns (median family), selection index buffers, and the output
// vector itself.  The
// seed implementation allocated all of this inside every aggregate()
// call; AggregatorWorkspace hoists it into a caller-owned arena that is
// grown once (reserve) and then recycled — after the first aggregation at
// a given (n, d) the steady-state path performs zero heap allocations.
//
// The workspace is plain data on purpose: it carries no invariants between
// calls, any GAR may scribble over any scratch member, and a single
// workspace can be shared across different GARs as long as calls are
// sequential.  It is NOT thread-safe; concurrent aggregations need one
// workspace each.  The non-scratch members are `threads`, the thread
// budget its owner grants the GAR's pairwise kernel, and `rows_finite`,
// which aggregate() sets on entry to every call.
//
// Row counts may vary call to call on the same workspace: every buffer is
// (re)sized by the rule per call and reserve() only ever grows capacity,
// so the round engine's partial-participation rounds (n' < n rows, a
// different per-round GAR) stay allocation-free once the workspace has
// warmed up at the largest (n, d) it has seen.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "math/vector_ops.hpp"

namespace dpbyz {

struct AggregatorWorkspace {
  /// Thread budget for the O(n²·d) pairwise matrix (fill_dist_sq in
  /// aggregator.hpp); 0 picks the hardware concurrency, 1 keeps it on
  /// the calling thread.  Every width is bit-identical.  ParameterServer
  /// sets it from ExperimentConfig::threads; the tree's child workspaces
  /// keep 1, since their children already run inside pool tasks.
  size_t threads = 1;
  /// Set by Aggregator::aggregate on every call: true when the caller has
  /// already established that every row is finite (the aggregation
  /// tree's root sweep), so the rule must not check again.
  bool rows_finite = false;
  /// Shared pairwise squared-distance matrix, n*n row-major.
  std::vector<double> dist_sq;
  /// fill_dist_sq's distinct rows: the batch index of each distinct row's
  /// first occurrence, ascending.
  std::vector<size_t> distinct;
  /// fill_dist_sq's row classes: row i is a bitwise copy of row
  /// distinct[row_class[i]].
  std::vector<size_t> row_class;
  /// Per-gradient scores (Krum score, CGE squared norm, ...).
  std::vector<double> scores;
  /// Length-n scalar scratch (a score row handed to nth_element).
  std::vector<double> row;
  /// Per-coordinate gather column (median / trimmed-mean family).
  std::vector<double> column;
  /// Sorted copy of `column` for in-place median / trimmed-mean anchors.
  std::vector<double> column_sorted;
  /// (|value - anchor|, value) pairs for mean-around-anchor rules.
  std::vector<std::pair<double, double>> by_closeness;
  /// Index ordering scratch (partial_sort of candidates).
  std::vector<size_t> order;
  /// Selection output (MDA subset, Bulyan selection, ...).
  std::vector<size_t> selected;
  /// Shrinking candidate pool (Bulyan) / DFS path (MDA).
  std::vector<size_t> active;
  /// The aggregate itself; aggregate() returns a view of this.
  Vector output;
  /// Length-d vector scratch (Weiszfeld numerator).
  Vector scratch_d;

  /// Grow every buffer's capacity to what an (n, d) aggregation can need.
  /// Never shrinks; calling again with smaller extents is a no-op.
  void reserve(size_t n, size_t d) {
    dist_sq.reserve(n * n);
    distinct.reserve(n);
    row_class.reserve(n);
    scores.reserve(n);
    row.reserve(n);
    column.reserve(n);
    column_sorted.reserve(n);
    by_closeness.reserve(n);
    order.reserve(n);
    selected.reserve(n);
    active.reserve(n);
    output.reserve(d);
    scratch_d.reserve(d);
  }
};

}  // namespace dpbyz
