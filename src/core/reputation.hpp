// reputation.hpp — aggregation-derived worker reputation (ROADMAP item 5).
//
// The admission problem: a joiner claims to be an honest worker, but the
// server has no ground truth — only the gradients it already aggregates.
// This module turns the aggregation result itself into the admission
// signal, at zero extra model evaluations: after every round the server
// has (a) each delivered row and (b) the GAR's selected aggregate.  A
// row's squared distance to that aggregate is exactly the quantity the
// selection GARs already rank on (krum scores sum these distances over
// the closest neighbours; the MDA subset minimizes their diameter; the
// tree merge discards the outlying child aggregates) — so
// "distance to the selected center, compared to the live roster's
// median" is the universal, rule-independent surrogate for "would the
// defense have kept this row".
//
// Per round, per scored worker i:
//     d_i^2   = || row_i - aggregate ||^2
//     inlier  = d_i^2 <= kOutlier^2 * median_{j live}(d_j^2)
//     score_i = (1 - kBeta) * score_i + kBeta * [inlier]
//
// The EMA starts at 0.5 (uncommitted), converges to 1 for workers whose
// submissions consistently blend into the honest spread and to 0 for
// persistent outliers.  MembershipManager consumes the scores at epoch
// boundaries: a quarantined joiner needs score >= kAdmit after at least
// one epoch of auditing; an active worker below kEvict is evicted.
// Quarantined workers submit every round ("shadow participation": their
// rows sit behind the aggregated prefix and never influence θ) so the
// book audits them with the same signal.
//
// Determinism: pure arithmetic on the round batch — no RNG, no clocks —
// so churn runs stay bit-reproducible per (config, seed, churn_seed).
// All methods are called from the trainer loop between acquires; the
// scratch buffers make observe_round allocation-free at steady state.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "math/gradient_batch.hpp"
#include "math/vector_ops.hpp"

namespace dpbyz {

class ReputationBook {
 public:
  static constexpr double kBeta = 0.2;     ///< EMA step toward the round's 0/1 verdict
  static constexpr double kOutlier = 4.0;  ///< inlier iff d^2 <= kOutlier^2 x median d^2
  static constexpr double kAdmit = 0.8;    ///< min score for quarantine -> active
  static constexpr double kEvict = 0.05;   ///< active workers below this are evicted

  /// Inert book: enabled() == false, scores stay at the initial 0.5.
  ReputationBook() = default;

  /// `pool_size` is the total worker-id space scores range over (initial
  /// roster + every potential joiner slot).
  ReputationBook(const ExperimentConfig& config, size_t pool_size);

  /// False when config.reputation == "off": observe_round is a no-op and
  /// the thresholds never gate anyone (admission is purely time-based).
  bool enabled() const { return enabled_; }

  /// Score one aggregated round.  `batch` is the round's aggregated view
  /// whose leading `live_honest` rows are the delivered honest
  /// submissions of workers `live_ids` (same order); `shadow` /
  /// `shadow_ids` are the quarantined auditionees' rows (may be empty);
  /// `aggregate` is the GAR's output for the round.  The inlier median
  /// is computed over the *live* rows only — quarantined rows are judged
  /// against the admitted roster's spread, never against each other.
  void observe_round(const GradientBatch& batch, size_t live_honest,
                     std::span<const uint32_t> live_ids,
                     const GradientBatch& shadow,
                     std::span<const uint32_t> shadow_ids, const Vector& aggregate);

  double score(uint32_t worker) const { return scores_[worker]; }
  const std::vector<double>& scores() const { return scores_; }

  /// Threshold verdicts (always permissive when not enabled()).
  bool admits(uint32_t worker) const {
    return !enabled_ || scores_[worker] >= kAdmit;
  }
  bool evicts(uint32_t worker) const {
    return enabled_ && scores_[worker] < kEvict;
  }

  /// Reset a slot to the uncommitted 0.5 when its worker joins (a pool
  /// slot is never reused, but the explicit reset keeps join order out
  /// of the score semantics).
  void on_join(uint32_t worker) { scores_[worker] = 0.5; }

  /// Checkpoint round trip (codec words: scores are bit-exact).
  void save(std::ostream& os) const;
  void load(std::istream& is);

 private:
  void update(uint32_t worker, double dist_sq, double threshold);

  bool enabled_ = false;
  std::vector<double> scores_;
  std::vector<double> dist_scratch_;    ///< per-live-row d^2 this round
  std::vector<double> median_scratch_;  ///< reordered by nth_element
};

}  // namespace dpbyz
