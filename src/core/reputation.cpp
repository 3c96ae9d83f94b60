#include "core/reputation.hpp"

#include <algorithm>

#include "utils/codec.hpp"
#include "utils/errors.hpp"

namespace dpbyz {

ReputationBook::ReputationBook(const ExperimentConfig& config, size_t pool_size)
    : enabled_(config.reputation == "distance"),
      beta_(config.reputation_beta),
      outlier_sq_(config.reputation_outlier * config.reputation_outlier),
      admit_(config.reputation_admit),
      evict_(config.reputation_evict),
      scores_(pool_size, 0.5) {
  dist_scratch_.reserve(pool_size);
  median_scratch_.reserve(pool_size);
}

void ReputationBook::update(uint32_t worker, double dist_sq, double threshold) {
  const double verdict = dist_sq <= threshold ? 1.0 : 0.0;
  scores_[worker] = (1.0 - beta_) * scores_[worker] + beta_ * verdict;
}

void ReputationBook::observe_round(const GradientBatch& batch, size_t live_honest,
                                   std::span<const uint32_t> live_ids,
                                   const GradientBatch& shadow,
                                   std::span<const uint32_t> shadow_ids,
                                   const Vector& aggregate) {
  if (!enabled_ || live_honest == 0) return;
  require(live_ids.size() == live_honest,
          "ReputationBook: live id/row count mismatch");
  const std::span<const double> center(aggregate);

  // Distances of the live (admitted, delivered) rows; their median sets
  // the round's inlier bar.  nth_element reorders median_scratch_, so
  // the per-worker values stay intact in dist_scratch_.
  dist_scratch_.assign(live_honest, 0.0);
  for (size_t k = 0; k < live_honest; ++k)
    dist_scratch_[k] = vec::dist_sq(batch.row(k), center);
  median_scratch_ = dist_scratch_;
  const size_t mid = live_honest / 2;  // upper median for even counts
  std::nth_element(median_scratch_.begin(), median_scratch_.begin() + mid,
                   median_scratch_.end());
  const double threshold = outlier_sq_ * median_scratch_[mid];

  for (size_t k = 0; k < live_honest; ++k)
    update(live_ids[k], dist_scratch_[k], threshold);

  // Quarantined auditionees are judged against the *admitted* roster's
  // spread — the bar above — never against each other.
  require(shadow_ids.size() == shadow.rows(),
          "ReputationBook: shadow id/row count mismatch");
  for (size_t q = 0; q < shadow.rows(); ++q)
    update(shadow_ids[q], vec::dist_sq(shadow.row(q), center), threshold);
}

void ReputationBook::save(std::ostream& os) const {
  codec::put_u64(os, enabled_ ? 1 : 0);
  codec::put_f64s(os, scores_);
}

void ReputationBook::load(std::istream& is) {
  codec::Reader in(is, "ReputationBook: truncated checkpoint state");
  const bool enabled = in.u64() != 0;
  std::vector<double> scores = in.f64s();
  // Fewer scores than slots happens when the checkpoint was written
  // under a shorter horizon (smaller joiner pool); the tail slots were
  // unborn then and keep the uncommitted 0.5.
  require(scores.size() <= scores_.size(),
          "ReputationBook: checkpoint state does not match this configuration");
  require(enabled == enabled_, "ReputationBook: checkpoint reputation mode mismatch");
  scores.resize(scores_.size(), 0.5);
  scores_ = std::move(scores);
}

}  // namespace dpbyz
