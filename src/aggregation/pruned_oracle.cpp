#include "aggregation/pruned_oracle.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "math/vector_ops.hpp"
#include "utils/errors.hpp"

namespace dpbyz {

PruneMode parse_prune_mode(const std::string& s) {
  if (s == "off") return PruneMode::kOff;
  if (s == "exact") return PruneMode::kExact;
  if (s == "approx") return PruneMode::kApprox;
  throw std::invalid_argument("parse_prune_mode: prune must be off|exact|approx, got '" +
                              s + "'");
}

const char* prune_mode_name(PruneMode mode) {
  switch (mode) {
    case PruneMode::kExact:
      return "exact";
    case PruneMode::kApprox:
      return "approx";
    default:
      return "off";
  }
}

double PrunedDistanceOracle::exact_sq(size_t i, size_t j) {
  if (i == j) return 0.0;
  const size_t idx = i * rows_ + j;
  if (!known_[idx]) {
    // vec::dist_sq dispatches on the process math mode exactly like the
    // pairwise_dist_sq kernel does, so the cached double is the one the
    // full-matrix path would have produced.
    const double s = vec::dist_sq(batch_->row(i), batch_->row(j));
    const double t = std::sqrt(s);
    const size_t jdx = j * rows_ + i;
    cache_sq_[idx] = cache_sq_[jdx] = s;
    cache_d_[idx] = cache_d_[jdx] = t;
    known_[idx] = known_[jdx] = 1;
    ++exact_pairs_;
  }
  return cache_sq_[idx];
}

double PrunedDistanceOracle::exact_dist(size_t i, size_t j) {
  if (i == j) return 0.0;
  const size_t idx = i * rows_ + j;
  if (!known_[idx]) exact_sq(i, j);
  return cache_d_[idx];
}

double PrunedDistanceOracle::lb_sq(size_t i, size_t j) const {
  const size_t idx = i * rows_ + j;
  // A cached pair's tightest valid bound is the exact value itself —
  // and re-squaring the sqrt'd distance could round ABOVE exact_sq, so
  // the cached squared value is also the only safe one.
  if (known_[idx]) return cache_sq_[idx];
  const double l = lb_[idx];
  return deflate(l * l);
}

void PrunedDistanceOracle::prepare(const GradientBatch& batch) {
  const size_t n = batch.rows();
  require(n >= 1, "PrunedDistanceOracle::prepare: empty batch");
  batch_ = &batch;
  rows_ = n;
  sketch_.compute(batch);

  lb_.resize(n * n);
  ub_.resize(n * n);
  approx_.resize(n * n);
  cache_sq_.resize(n * n);
  cache_d_.resize(n * n);
  known_.assign(n * n, 0);
  exact_pairs_ = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t diag = i * n + i;
    cache_sq_[diag] = 0.0;
    cache_d_[diag] = 0.0;
    known_[diag] = 1;
    lb_[diag] = 0.0;
    ub_[diag] = 0.0;
    approx_[diag] = 0.0;
  }

  // Farthest-first pivot selection, seeded at row 0: each pivot's exact
  // distance row is computed eagerly (filling the cache), and the next
  // pivot is the row farthest from every pivot chosen so far (ties break
  // by smallest index — fully deterministic).  Stops early when every
  // remaining row coincides with a pivot.
  const size_t pivot_budget = std::min(kMaxPivots, n);
  pivot_ids_.clear();
  scr_tmp.assign(n, std::numeric_limits<double>::infinity());
  size_t next = 0;
  for (size_t p = 0; p < pivot_budget; ++p) {
    pivot_ids_.push_back(next);
    for (size_t j = 0; j < n; ++j)
      scr_tmp[j] = std::min(scr_tmp[j], exact_dist(next, j));
    size_t far = 0;
    for (size_t j = 1; j < n; ++j)
      if (scr_tmp[j] > scr_tmp[far]) far = j;
    if (!(scr_tmp[far] > 0.0)) break;  // all rows duplicate some pivot
    next = far;
  }

  double max_norm = 0.0;
  for (size_t i = 0; i < n; ++i) max_norm = std::max(max_norm, sketch_.norm(i));

  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const size_t ij = i * n + j;
      const size_t ji = j * n + i;
      approx_[ij] = approx_[ji] = sketch_.approx_dist_sq(i, j);
      if (known_[ij]) {  // pivot rows: the bound IS the exact distance
        lb_[ij] = lb_[ji] = cache_d_[ij];
        ub_[ij] = ub_[ji] = cache_d_[ij];
        continue;
      }
      const double ni = sketch_.norm(i);
      const double nj = sketch_.norm(j);
      double raw_lb = std::abs(ni - nj);
      double raw_ub = ni + nj;
      for (size_t p : pivot_ids_) {
        const double dip = cache_d_[p * n + i];
        const double djp = cache_d_[p * n + j];
        raw_lb = std::max(raw_lb, std::abs(dip - djp));
        raw_ub = std::min(raw_ub, dip + djp);
      }
      const double slack = kSlackRel * (ni + nj + 2.0 * max_norm);
      double lb = raw_lb - slack;
      if (!(lb > 0.0)) lb = 0.0;  // clamps negatives and any NaN from inf-inf
      double ub = raw_ub + slack;
      if (std::isnan(ub)) ub = std::numeric_limits<double>::infinity();
      lb_[ij] = lb_[ji] = lb;
      ub_[ij] = ub_[ji] = ub;
    }
  }
}

void PrunedDistanceOracle::fill_approx(const GradientBatch& batch,
                                       std::span<double> out) {
  const size_t n = batch.rows();
  require(out.size() == n * n, "PrunedDistanceOracle::fill_approx: output must be n*n");
  rows_ = n;
  sketch_.compute(batch);
  for (size_t i = 0; i < n; ++i) {
    out[i * n + i] = 0.0;
    for (size_t j = i + 1; j < n; ++j)
      out[i * n + j] = out[j * n + i] = sketch_.approx_dist_sq(i, j);
  }
}

}  // namespace dpbyz
