// metrics.hpp — run results and multi-seed summaries.
//
// The paper reports, per configuration, "the average and standard
// deviation of both the cross-accuracy and the average loss" over 5
// seeded repetitions.  RunResult captures one run; summarize() folds a
// set of runs into mean/stddev series aligned on step indices.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/membership.hpp"
#include "math/vector_ops.hpp"
#include "net/channel.hpp"

namespace dpbyz {

/// Test-set evaluation at one checkpoint.
struct EvalRecord {
  size_t step;      ///< 1-based step at which the evaluation happened
  double accuracy;  ///< cross-accuracy over the full test set
};

/// Wall-clock totals of the per-step phases, accumulated over a run
/// (seconds).  Under the round engine (pipeline_depth = k >= 1) `fill`
/// counts only the time the main thread spent *blocked* waiting for a
/// round's fill — the non-overlapped remainder of that round's own fill,
/// never the fills that completed behind earlier rounds — so
/// fill + aggregate + apply <= the run's wall-clock at every depth, and
/// the overlap win of the ring is directly observable per run:
/// the sum approaches max(fill_busy, aggregate) + apply as the overlap
/// improves.  `fill_busy` is the fill agent's actual producing time
/// (blocked or overlapped alike); fill_busy − fill is the overlap the
/// ring bought.  Timing never feeds back into the trajectory: a run is a
/// pure function of (config, seed, depth), so two runs differing only in
/// recorded phase times are bit-identical.
struct PhaseSeconds {
  double fill = 0.0;       ///< caller-visible fill wait (blocked time only)
  double fill_busy = 0.0;  ///< fill agent's producing time, incl. overlapped
  double aggregate = 0.0;  ///< GAR over the round batch
  double apply = 0.0;      ///< optimizer update on the aggregate
};

/// Everything recorded from a single training run.
struct RunResult {
  /// Mean honest-worker batch loss at every step (size == steps).
  std::vector<double> train_loss;
  /// Test accuracy every eval_every steps (plus the final step).
  std::vector<EvalRecord> eval;
  /// Per-phase wall-clock totals (see PhaseSeconds).
  PhaseSeconds phase;
  /// Rows aggregated per round, n' = live honest + delivered Byzantine
  /// (size == steps).  Constant n under full participation; varies under
  /// the round engine's iid / straggler schedules and across membership
  /// epochs.
  std::vector<size_t> round_rows;
  /// The GAR tolerance each round aggregated under (size == steps):
  /// constant config.num_byzantine without churn, the epoch's
  /// renegotiated f_e = min(f0, floor(h_e f0 / h0)) with it.
  std::vector<size_t> round_f;
  /// Every applied membership event, in application order (empty unless
  /// churn == "epoch").  A pure function of (config, seed, churn_seed) —
  /// replaying the same triple reproduces it exactly.
  std::vector<ChurnEvent> churn_trace;
  /// Final per-pool-worker reputation scores (empty unless churn ==
  /// "epoch" with reputation == "distance").
  std::vector<double> reputation_scores;
  Vector final_parameters;
  double final_accuracy = 0.0;
  double final_train_loss = 0.0;
  /// Minimum per-step training loss seen during the run (the paper
  /// discusses "the minimum loss is reached in N steps").
  double min_train_loss = 0.0;
  /// First 1-based step at which train_loss came within 5% of its run
  /// minimum; 0 when the run never stabilized.
  size_t steps_to_min_loss = 0;
  /// Wire/channel counters summed over every tree edge of the run
  /// (all-zero unless tree_levels >= 1 with wire != "off").  A seeded
  /// lossy run reproduces these exactly along with its trajectory —
  /// both are pure functions of (config, seed, channel_seed).
  net::ChannelStats channel;
};

/// Mean/stddev of a metric across runs, aligned per step index.
struct SeriesSummary {
  std::vector<size_t> steps;
  std::vector<double> mean;
  std::vector<double> stddev;
};

/// Per-step training-loss summary across seeds (series must be equal length).
SeriesSummary summarize_train_loss(const std::vector<RunResult>& runs);

/// Eval-accuracy summary across seeds (eval grids must agree).
SeriesSummary summarize_accuracy(const std::vector<RunResult>& runs);

/// Scalar mean/stddev of the runs' final accuracies.
struct ScalarSummary {
  double mean = 0.0;
  double stddev = 0.0;
};
ScalarSummary summarize_final_accuracy(const std::vector<RunResult>& runs);
ScalarSummary summarize_final_loss(const std::vector<RunResult>& runs);

}  // namespace dpbyz
