#include "aggregation/cge.hpp"

#include <algorithm>
#include <numeric>

#include "utils/errors.hpp"

namespace dpbyz {

Cge::Cge(size_t n, size_t f) : Aggregator(n, f) {
  require(n > 2 * f, "Cge: requires n > 2f");
}

void Cge::select_indices_view(const GradientBatch& batch, AggregatorWorkspace& ws) const {
  const size_t count = batch.rows();
  ws.scores.resize(count);
  for (size_t i = 0; i < count; ++i) ws.scores[i] = vec::norm_sq(batch.row(i));

  ws.selected.resize(count);
  std::iota(ws.selected.begin(), ws.selected.end(), size_t{0});
  const size_t keep = n() - f();
  const auto& norms = ws.scores;
  std::partial_sort(ws.selected.begin(),
                    ws.selected.begin() + static_cast<std::ptrdiff_t>(keep),
                    ws.selected.end(), [&norms, &batch](size_t a, size_t b) {
                      return norms[a] < norms[b] ||
                             (norms[a] == norms[b] &&
                              vec::lex_less(batch.row(a), batch.row(b)));
                    });
  ws.selected.resize(keep);
}

void Cge::aggregate_into(const GradientBatch& batch, AggregatorWorkspace& ws) const {
  select_indices_view(batch, ws);
  mean_rows_of_into(batch, ws.selected, ws.output);
}

}  // namespace dpbyz
