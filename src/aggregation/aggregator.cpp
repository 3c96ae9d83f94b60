#include "aggregation/aggregator.hpp"

#include <cmath>

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
  validate_batch(batch);
  ws.reserve(batch.rows(), batch.dim());
  ws.output.resize(batch.dim());
  aggregate_into(batch, ws);
  return ws.output;
}

Vector Aggregator::aggregate(std::span<const Vector> gradients) const {
  // No validate_inputs here: from_vectors enforces equal dimensions and
  // the forwarded aggregate() re-validates count/dim/finiteness, so a
  // second full O(n*d) scan would buy nothing.
  const GradientBatch batch = GradientBatch::from_vectors(gradients);
  AggregatorWorkspace ws;
  const auto view = aggregate(batch, ws);
  return Vector(view.begin(), view.end());
}

void Aggregator::validate_batch(const GradientBatch& batch) const {
  if (batch.rows() != n_)  // message built lazily: this runs every step
    throw std::invalid_argument(
        "Aggregator::aggregate: expected exactly n gradients (name=" + name() + ")");
  require(batch.dim() > 0, "Aggregator::aggregate: zero-dimensional gradients");
  require(batch.all_finite(),
          "Aggregator::aggregate: non-finite gradient component (a real "
          "server drops such submissions as malformed)");
}

void Aggregator::validate_inputs(std::span<const Vector> gradients) const {
  require(gradients.size() == n_,
          "Aggregator::aggregate: expected exactly n gradients (name=" + name() + ")");
  const size_t d = gradients[0].size();
  require(d > 0, "Aggregator::aggregate: zero-dimensional gradients");
  for (const Vector& g : gradients) {
    require(g.size() == d, "Aggregator::aggregate: dimension mismatch across gradients");
    require(vec::all_finite(g),
            "Aggregator::aggregate: non-finite gradient component (a real "
            "server drops such submissions as malformed)");
  }
}

void fill_dist_sq(const GradientBatch& batch, AggregatorWorkspace& ws) {
  ws.dist_sq.resize(batch.rows() * batch.rows());
  pairwise_dist_sq(batch, ws.dist_sq, ws.threads);
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
