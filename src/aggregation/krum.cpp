#include "aggregation/krum.hpp"

#include <algorithm>
#include <numeric>

#include "aggregation/kf_table.hpp"
#include "utils/errors.hpp"

namespace dpbyz {

namespace {

/// Nominal neighbourhood count - f - 2, clamped so Bulyan's shrinking
/// pools (down to 2f + 1 elements) still score meaningfully.
size_t neighbourhood(size_t count, size_t f) {
  const size_t nominal = count > f + 2 ? count - f - 2 : 1;
  return std::min(nominal, count - 1);
}

/// Sum of the `neighbours` smallest entries of row[0..len) (row is
/// clobbered).  Shared by the reference and matrix paths so both sum in
/// the exact same order.
double nearest_neighbour_sum(std::vector<double>& row, size_t len, size_t neighbours) {
  std::nth_element(row.begin(), row.begin() + static_cast<std::ptrdiff_t>(neighbours - 1),
                   row.begin() + static_cast<std::ptrdiff_t>(len));
  return std::accumulate(row.begin(), row.begin() + static_cast<std::ptrdiff_t>(neighbours),
                         0.0);
}

}  // namespace

Krum::Krum(size_t n, size_t f) : Aggregator(n, f) {
  require(n >= 2 * f + 3, "Krum: requires n >= 2f + 3");
}

std::vector<double> krum_scores(std::span<const Vector> gradients, size_t f) {
  const size_t count = gradients.size();
  require(count >= 2, "krum_scores: need at least two gradients");
  const size_t neighbours = neighbourhood(count, f);

  // Pairwise squared distances: one flat count*count buffer, each
  // symmetric entry computed once.
  std::vector<double> dist_sq(count * count, 0.0);
  for (size_t i = 0; i < count; ++i)
    for (size_t j = i + 1; j < count; ++j)
      dist_sq[i * count + j] = dist_sq[j * count + i] =
          vec::dist_sq(gradients[i], gradients[j]);

  std::vector<double> out(count);
  std::vector<double> row(count - 1);
  for (size_t i = 0; i < count; ++i) {
    size_t k = 0;
    for (size_t j = 0; j < count; ++j)
      if (j != i) row[k++] = dist_sq[i * count + j];
    out[i] = nearest_neighbour_sum(row, k, neighbours);
  }
  return out;
}

void krum_scores_from_matrix(std::span<const double> dist_sq, size_t stride,
                             std::span<const size_t> active, size_t f,
                             std::span<double> out_scores, std::vector<double>& scratch_row) {
  const size_t count = active.size();
  require(count >= 2, "krum_scores_from_matrix: need at least two gradients");
  require(out_scores.size() >= count, "krum_scores_from_matrix: scores buffer too small");
  const size_t neighbours = neighbourhood(count, f);
  scratch_row.resize(count - 1);

  for (size_t i = 0; i < count; ++i) {
    const double* matrix_row = dist_sq.data() + active[i] * stride;
    size_t k = 0;
    for (size_t j = 0; j < count; ++j)
      if (j != i) scratch_row[k++] = matrix_row[active[j]];
    out_scores[i] = nearest_neighbour_sum(scratch_row, k, neighbours);
  }
}

size_t krum_argmin(std::span<const Vector> gradients, const std::vector<double>& scores) {
  require(gradients.size() == scores.size(), "krum_argmin: size mismatch");
  size_t best = 0;
  for (size_t i = 1; i < scores.size(); ++i) {
    if (scores[i] < scores[best] ||
        (scores[i] == scores[best] && gradients[i] < gradients[best])) {
      best = i;
    }
  }
  return best;
}

size_t krum_argmin_view(const GradientBatch& batch, std::span<const size_t> active,
                        std::span<const double> scores) {
  require(scores.size() >= active.size(), "krum_argmin_view: size mismatch");
  size_t best = 0;
  for (size_t i = 1; i < active.size(); ++i) {
    if (scores[i] < scores[best] ||
        (scores[i] == scores[best] &&
         vec::lex_less(batch.row(active[i]), batch.row(active[best])))) {
      best = i;
    }
  }
  return best;
}

size_t Krum::score_batch(const GradientBatch& batch, AggregatorWorkspace& ws) const {
  const size_t count = batch.rows();
  fill_certified_dist_sq(batch, ws);
  ws.active.resize(count);
  std::iota(ws.active.begin(), ws.active.end(), size_t{0});
  ws.scores.resize(count);
  krum_scores_from_matrix(ws.dist_sq, count, ws.active, f(), ws.scores, ws.row);
  return count;
}

void Krum::aggregate_into(const GradientBatch& batch, AggregatorWorkspace& ws) const {
  score_batch(batch, ws);
  const size_t best = krum_argmin_view(batch, ws.active, ws.scores);
  vec::copy(batch.row(best), ws.output);
}

double Krum::vn_threshold() const { return kf::krum(n(), f()); }

MultiKrum::MultiKrum(size_t n, size_t f) : Krum(n, f) {}

void MultiKrum::aggregate_into(const GradientBatch& batch, AggregatorWorkspace& ws) const {
  const size_t m = n() - f();
  const size_t count = score_batch(batch, ws);
  ws.order.resize(count);
  std::iota(ws.order.begin(), ws.order.end(), size_t{0});
  // Same lexicographic tie-break as krum_argmin, so the selected *set* is
  // permutation-invariant even when scores tie at the cut boundary.
  const auto& s = ws.scores;
  std::partial_sort(ws.order.begin(), ws.order.begin() + static_cast<std::ptrdiff_t>(m),
                    ws.order.end(), [&s, &batch](size_t a, size_t b) {
                      return s[a] < s[b] ||
                             (s[a] == s[b] && vec::lex_less(batch.row(a), batch.row(b)));
                    });
  mean_rows_of_into(batch, std::span<const size_t>(ws.order.data(), m), ws.output);
}

}  // namespace dpbyz
