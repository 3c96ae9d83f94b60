#include "aggregation/bulyan.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "aggregation/kf_table.hpp"
#include "aggregation/krum.hpp"
#include "math/statistics.hpp"
#include "utils/errors.hpp"

namespace dpbyz {

Bulyan::Bulyan(size_t n, size_t f) : Aggregator(n, f) {
  require(n >= 4 * f + 3, "Bulyan: requires n >= 4f + 3");
}

void Bulyan::select_indices_view(const GradientBatch& batch, AggregatorWorkspace& ws) const {
  const size_t count = batch.rows();
  const size_t theta = n() - 2 * f();

  // One distance matrix for the whole selection: every inner Krum round
  // rescores the surviving pool from it instead of recomputing O(n²d)
  // distances over copied vectors.
  fill_certified_dist_sq(batch, ws);

  ws.active.resize(count);
  std::iota(ws.active.begin(), ws.active.end(), size_t{0});
  ws.selected.clear();

  while (ws.selected.size() < theta) {
    // Iterated Krum over the shrinking pool.  The pool bottoms out at
    // n - theta + 1 = 2f + 1 elements, below plain Krum's n >= 2f + 3
    // admissibility, so we use the clamped scoring helper (the standard
    // implementation choice, cf. Garfield / the authors' code).
    ws.scores.resize(ws.active.size());
    krum_scores_from_matrix(ws.dist_sq, count, ws.active, f(), ws.scores, ws.row);
    const size_t winner = krum_argmin_view(batch, ws.active, ws.scores);
    ws.selected.push_back(ws.active[winner]);
    ws.active.erase(ws.active.begin() + static_cast<std::ptrdiff_t>(winner));
  }
}

void Bulyan::aggregate_into(const GradientBatch& batch, AggregatorWorkspace& ws) const {
  select_indices_view(batch, ws);
  const size_t theta = ws.selected.size();
  const size_t beta = theta - 2 * f();
  check_internal(beta >= 1, "Bulyan: beta must be positive");

  const size_t d = batch.dim();
  ws.column.resize(theta);
  ws.column_sorted.resize(theta);
  ws.by_closeness.resize(theta);
  for (size_t c = 0; c < d; ++c) {
    for (size_t i = 0; i < theta; ++i) ws.column[i] = batch.row(ws.selected[i])[c];
    std::copy(ws.column.begin(), ws.column.end(), ws.column_sorted.begin());
    const double med = stats::median_inplace(ws.column_sorted);
    for (size_t i = 0; i < theta; ++i)
      ws.by_closeness[i] = {std::abs(ws.column[i] - med), ws.column[i]};
    std::nth_element(ws.by_closeness.begin(),
                     ws.by_closeness.begin() + static_cast<std::ptrdiff_t>(beta - 1),
                     ws.by_closeness.end());
    double acc = 0.0;
    for (size_t i = 0; i < beta; ++i) acc += ws.by_closeness[i].second;
    ws.output[c] = acc / static_cast<double>(beta);
  }
}

double Bulyan::vn_threshold() const { return kf::krum(n(), f()); }

}  // namespace dpbyz
