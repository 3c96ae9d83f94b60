#include "aggregation/aggregator.hpp"

#include <cmath>
#include <cstring>

#include "aggregation/average.hpp"
#include "aggregation/bulyan.hpp"
#include "aggregation/cge.hpp"
#include "aggregation/geometric_median.hpp"
#include "aggregation/krum.hpp"
#include "aggregation/mda.hpp"
#include "aggregation/meamed.hpp"
#include "aggregation/median.hpp"
#include "aggregation/phocas.hpp"
#include "aggregation/trimmed_mean.hpp"
#include "utils/errors.hpp"

namespace dpbyz {

Aggregator::Aggregator(size_t n, size_t f) : n_(n), f_(f) {
  require(n >= 1, "Aggregator: n must be at least 1");
  require(f <= n, "Aggregator: f cannot exceed n");
}

double Aggregator::vn_threshold() const { return std::nan(""); }

std::span<const double> Aggregator::aggregate(const GradientBatch& batch,
                                              AggregatorWorkspace& ws) const {
  return run(batch, ws, /*rows_finite=*/false);
}

std::span<const double> Aggregator::run(const GradientBatch& batch, AggregatorWorkspace& ws,
                                        bool rows_finite) const {
  validate_shape(batch);
  if (!rows_finite && !certifies_finite()) require_finite(batch);
  ws.reserve(batch.rows(), batch.dim());
  ws.output.resize(batch.dim());
  ws.rows_finite = rows_finite;
  aggregate_into(batch, ws);
  return ws.output;
}

Vector Aggregator::aggregate(std::span<const Vector> gradients) const {
  // from_vectors enforces equal dimensions; the forwarded aggregate()
  // validates count, dim and finiteness.
  const GradientBatch batch = GradientBatch::from_vectors(gradients);
  AggregatorWorkspace ws;
  const auto view = aggregate(batch, ws);
  return Vector(view.begin(), view.end());
}

void Aggregator::validate_shape(const GradientBatch& batch) const {
  if (batch.rows() != n_)  // message built lazily: this runs every step
    throw std::invalid_argument(
        "Aggregator::aggregate: expected exactly n gradients (name=" + name() + ")");
  require(batch.dim() > 0, "Aggregator::aggregate: zero-dimensional gradients");
}

void Aggregator::require_finite(const GradientBatch& batch, size_t threads) {
  require(batch.all_finite(threads),
          "Aggregator::aggregate: non-finite gradient component (a real "
          "server drops such submissions as malformed)");
}

void Aggregator::fill_certified_dist_sq(const GradientBatch& batch,
                                        AggregatorWorkspace& ws) {
  if (!fill_dist_sq(batch, ws) && !ws.rows_finite) require_finite(batch);
}

bool fill_dist_sq(const GradientBatch& batch, AggregatorWorkspace& ws) {
  const size_t n = batch.rows();
  const size_t d = batch.dim();
  ws.dist_sq.resize(n * n);
  if (n == 0) return false;

  // Distinct rows, in batch order: a row joins the class of the first
  // earlier distinct row with its bits.
  const double* base = batch.row(0).data();
  ws.distinct.clear();
  ws.row_class.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const double* r = base + i * d;
    size_t c = 0;
    for (; c < ws.distinct.size(); ++c) {
      const double* q = base + ws.distinct[c] * d;
      if (std::memcmp(r, q, sizeof(double)) == 0 && std::memcmp(r, q, d * sizeof(double)) == 0)
        break;
    }
    if (c == ws.distinct.size()) ws.distinct.push_back(i);
    ws.row_class[i] = c;
  }

  const size_t m = ws.distinct.size();
  const std::span<double> distinct_matrix(ws.dist_sq.data(), m * m);
  pairwise_dist_sq(batch, ws.distinct, distinct_matrix, ws.threads);
  const bool certified = m >= 2 && vec::all_finite(distinct_matrix);
  if (m == n) return certified;

  // Expand the m×m prefix to n×n in place, last entry first: entry (i, j)
  // reads (class(i), class(j)), at or below i*n + j, and every entry still
  // to be written reads strictly below it, so no source is overwritten
  // before it is read.  Two copies meet on the distinct diagonal, +0.0.
  double* dist = ws.dist_sq.data();
  for (size_t i = n; i-- > 0;) {
    const double* src = dist + ws.row_class[i] * m;
    double* dst = dist + i * n;
    for (size_t j = n; j-- > 0;) dst[j] = src[ws.row_class[j]];
  }
  return certified;
}

std::vector<std::string> aggregator_names() {
  return {"average", "krum",       "multi-krum", "mda", "mda_greedy",
          "median",  "trimmed-mean", "bulyan",   "meamed", "phocas",
          "cge",     "geometric-median"};
}

std::unique_ptr<Aggregator> make_aggregator(const std::string& name, size_t n, size_t f) {
  if (name == "average") return std::make_unique<Average>(n, f);
  if (name == "krum") return std::make_unique<Krum>(n, f);
  if (name == "multi-krum") return std::make_unique<MultiKrum>(n, f);
  if (name == "mda") return std::make_unique<Mda>(n, f);
  if (name == "mda_greedy") return std::make_unique<MdaGreedy>(n, f);
  if (name == "median") return std::make_unique<CoordinateMedian>(n, f);
  if (name == "trimmed-mean") return std::make_unique<TrimmedMean>(n, f);
  if (name == "bulyan") return std::make_unique<Bulyan>(n, f);
  if (name == "meamed") return std::make_unique<Meamed>(n, f);
  if (name == "phocas") return std::make_unique<Phocas>(n, f);
  if (name == "cge") return std::make_unique<Cge>(n, f);
  if (name == "geometric-median") return std::make_unique<GeometricMedian>(n, f);
  throw std::invalid_argument("make_aggregator: unknown GAR '" + name + "'");
}

}  // namespace dpbyz
