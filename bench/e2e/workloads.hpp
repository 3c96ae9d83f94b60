// workloads.hpp — the four reference workloads of bench_e2e.
//
// Each workload is one ExperimentConfig on one generated task.  The
// benchmark seed S generates everything the program sees: S seeds the
// dataset, and rep r of a run trains with config.seed, channel_seed and
// churn_seed all S + r, so the work of seed-dependent workloads (the churn
// trace, the channel faults) varies within a run and averages out.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "data/dataset.hpp"
#include "models/linear_model.hpp"

namespace e2e {

struct Workload {
  std::string name;
  /// Mean final accuracy over seeds 1..10 at the committed baseline; the
  /// correctness check requires a run's mean to stay within
  /// `accuracy_band` of it, so the paper's DP + attack antagonism cannot
  /// drift silently.
  double baseline_accuracy = 0.0;
  double accuracy_band = 0.05;
  /// Reps whose final accuracy and loss the quality metrics average (the
  /// first reps of a run, so the metrics depend on the seed only).
  size_t quality_reps = 3;
};

const std::vector<Workload>& workloads();

/// Throws std::invalid_argument naming the known workloads.
const Workload& find_workload(const std::string& name);

/// One seed's generated task: the workload's config and its data.
struct Instance {
  dpbyz::ExperimentConfig config;
  dpbyz::Dataset train;
  dpbyz::Dataset test;
  dpbyz::LinearModel model;
};

/// `tmp_dir` receives the checkpoint files of checkpointing workloads.
Instance make_instance(const Workload& workload, uint64_t seed,
                       const std::string& tmp_dir);

/// The config of rep `rep` of a run at benchmark seed `seed`.
dpbyz::ExperimentConfig rep_config(dpbyz::ExperimentConfig config, uint64_t seed,
                                   size_t rep);

}  // namespace e2e
