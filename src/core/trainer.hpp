// trainer.hpp — the synchronous training loop (paper Fig. 1(b)).
//
// Per step t:
//   1. the n - f honest workers run their pipeline (sample, gradient,
//      clip, DP-noise) and "send" their gradients;
//   2. if an attack is configured, the colluding adversary observes the
//      honest submissions and forges the f Byzantine gradients (all
//      identical, per the paper's attack definitions); otherwise the f
//      extra workers behave honestly (paper §5.1: under plain averaging
//      "the f workers do not implement any attack");
//   3. the server aggregates all n gradients with the GAR and updates w;
//   4. metrics are recorded (per-step honest batch loss; test accuracy
//      every eval_every steps).
//
// The trainer is allocation-free at steady state (every per-step stage
// writes into reused arenas/buffers; measured by bench_gar_scaling's
// pipeline sweep).  ExperimentConfig::threads (0, the default, is the
// hardware concurrency) runs the honest-worker pipelines, the flat GARs'
// pairwise-distance matrix and, with tree_levels >= 1, the tree's child
// dispatch on the process-wide ThreadPool; threads = 1 is the serial
// loop.  Results stay deterministic and bit-identical to the serial run
// given (config, model, datasets), which the test suite checks
// bit-for-bit.
//
// The synchronous loop above is the pipeline_depth = 0, participation =
// "full" default.  Every run executes through the round engine
// (core/pipeline.hpp), which at those defaults reproduces the loop's
// exact stage order on the calling thread — bit-identical to the seed,
// pinned by the PR-3 golden trajectories in tests/test_pipeline.cpp.
// pipeline_depth = 1 switches to double-buffered bounded-staleness-1
// rounds (fill of t+1 overlaps the aggregation of t); a participation
// schedule makes per-round partial participation first-class, with
// (n', f) admissibility revalidated every round.  Engine runs are
// deterministic given (config, seed) and bit-identical across `threads`
// settings.  RunResult::phase records per-phase (fill / aggregate /
// apply) wall-clock for every mode.
#pragma once

#include <memory>
#include <optional>

#include "attacks/attack.hpp"
#include "core/config.hpp"
#include "core/metrics.hpp"
#include "core/server.hpp"
#include "core/worker.hpp"
#include "models/model.hpp"

namespace dpbyz {

/// Majority-class share of each worker's shard under data_partition ==
/// "label-skew" (partition_label_skew's majority_fraction).
inline constexpr double kLabelSkewFraction = 0.8;

class Trainer {
 public:
  /// `test` may equal `train` for tasks without a test split (the
  /// quadratic experiments).  Keeps references; caller owns lifetimes.
  Trainer(const ExperimentConfig& config, const Model& model, const Dataset& train,
          const Dataset& test);

  /// Run the full T steps and return every recorded metric.
  RunResult run();

  /// Expose the constructed mechanism (for accounting reports).
  const NoiseMechanism& mechanism() const { return *mechanism_; }

 private:
  ExperimentConfig config_;
  const Model& model_;
  const Dataset& train_;
  const Dataset& test_;
  std::unique_ptr<NoiseMechanism> mechanism_;
  std::unique_ptr<Attack> attack_;  // null when attack disabled
};

/// Build the mechanism an honest worker would use under `config`
/// (NoNoise when DP is disabled).  Shared with the theory benches.
std::unique_ptr<NoiseMechanism> make_mechanism(const ExperimentConfig& config, size_t dim);

/// Construct the round GAR for `rows` submissions tolerating `f`
/// Byzantine at the config's topology: flat (default) or the
/// hierarchical tree with its wire/channel link (tree_levels >= 1).  The single construction path shared by the
/// trainer's full-round rule, the round engine's per-(n', f) cache and
/// ParameterServer::renegotiate — budgets and link wiring
/// cannot drift between them.  Throws std::invalid_argument when any
/// derived stage budget is inadmissible at (rows, f).
std::unique_ptr<Aggregator> make_round_aggregator(const ExperimentConfig& config,
                                                  size_t rows, size_t f);

/// Convenience at the configured budget f = config.num_byzantine.
std::unique_ptr<Aggregator> make_round_aggregator(const ExperimentConfig& config,
                                                  size_t rows);

}  // namespace dpbyz
