#include "workloads.hpp"

#include <stdexcept>

#include "data/synthetic.hpp"
#include "math/rng.hpp"

namespace e2e {

using dpbyz::Dataset;
using dpbyz::ExperimentConfig;
using dpbyz::LinearLoss;
using dpbyz::LinearModel;

const std::vector<Workload>& workloads() {
  // The churn workload's band is wider: its accuracy varies with the
  // dataset seed with a standard deviation of about 0.02, against about
  // 0.01 for the others.
  static const std::vector<Workload> all = {
      {"paper_mda", 0.5616, 0.05, 40},
      {"dp_tree_n1000", 0.5427, 0.05, 5},
      {"krum_exact_n200", 0.6014, 0.05, 4},
      {"churn_ckpt_ring", 0.5790, 0.10, 25},
  };
  return all;
}

const Workload& find_workload(const std::string& name) {
  std::string known;
  for (const Workload& w : workloads()) {
    if (w.name == name) return w;
    known += (known.empty() ? "" : ", ") + w.name;
  }
  throw std::invalid_argument("unknown workload '" + name + "' (known: " + known + ")");
}

namespace {

constexpr size_t kBlobTest = 1024;

/// The paper's phishing task (the PhishingExperiment split): 8400 train
/// and 2655 test points, d = 69 linear model.
Instance phishing(const ExperimentConfig& config, uint64_t seed) {
  const dpbyz::PhishingLikeConfig shape;
  const Dataset full = dpbyz::make_phishing_like(shape, seed);
  dpbyz::Rng split_rng = dpbyz::Rng(seed).derive("split");
  auto [train, test] = full.split(8400, split_rng);
  return {config, std::move(train), std::move(test),
          LinearModel(shape.num_features, LinearLoss::kMseOnSigmoid)};
}

/// Two Gaussian blobs (separation 3) with a held-out test set large
/// enough that its sampling error (about 1.5% of accuracy) stays below the
/// spread of the trained models.
Instance blobs(const ExperimentConfig& config, uint64_t seed, size_t train_count,
               size_t features) {
  dpbyz::BlobsConfig shape;
  shape.num_samples = train_count + kBlobTest;
  shape.num_features = features;
  const Dataset full = dpbyz::make_blobs(shape, seed);
  dpbyz::Rng split_rng = dpbyz::Rng(seed).derive("split");
  auto [train, test] = full.split(train_count, split_rng);
  return {config, std::move(train), std::move(test),
          LinearModel(features, LinearLoss::kMseOnSigmoid)};
}

/// The paper's DP + attack setting: Gaussian mechanism at eps = 0.2 and
/// the "a little is enough" attack.
ExperimentConfig dp_little() {
  ExperimentConfig c;
  c.dp_enabled = true;
  c.epsilon = 0.2;
  c.attack_enabled = true;
  c.attack = "little";
  return c;
}

}  // namespace

ExperimentConfig rep_config(ExperimentConfig config, uint64_t seed, size_t rep) {
  config.seed = config.channel_seed = config.churn_seed = seed + rep;
  return config;
}

Instance make_instance(const Workload& workload, uint64_t seed,
                       const std::string& tmp_dir) {
  if (workload.name == "paper_mda") {
    // §5.1 defaults: n = 11, f = 5, b = 50, MDA, T = 1000, eval every 50.
    return phishing(dp_little(), seed);
  }
  if (workload.name == "dp_tree_n1000") {
    ExperimentConfig c = dp_little();
    c.num_workers = 1000;
    c.num_byzantine = 10;
    c.batch_size = 10;
    c.steps = 40;
    c.eval_every = 40;
    c.gar = "mda";
    c.tree_levels = 2;
    c.tree_branch = 8;
    c.shard_merge_gar = "median";
    c.wire = "int8";
    c.channel = "lossy";
    c.channel_drop = 0.05;
    c.channel_corrupt = 0.01;
    c.channel_reorder = 0.1;
    return blobs(c, seed, 1024, 1000);
  }
  if (workload.name == "krum_exact_n200") {
    ExperimentConfig c = dp_little();
    c.dp_enabled = false;
    c.num_workers = 200;
    c.num_byzantine = 20;
    c.batch_size = 10;
    c.steps = 20;
    c.eval_every = 20;
    c.gar = "krum";
    c.prune = "exact";
    return blobs(c, seed, 256, 10000);
  }
  if (workload.name == "churn_ckpt_ring") {
    ExperimentConfig c = dp_little();
    c.num_byzantine = 3;
    c.gar = "median";
    c.steps = 2000;
    c.churn = "epoch";
    c.churn_epoch_rounds = 20;
    c.churn_join_prob = 0.7;
    // At leave 0.1 about one churn trace in fifteen empties the roster
    // and the run throws; at 0.05 none of 600 traces did.
    c.churn_leave_prob = 0.05;
    // Each checkpoint is about 1.5 MB and reaches the disk (the rename
    // over the previous file flushes it); every 50 rounds wrote 140 MB/s.
    c.checkpoint_path = tmp_dir + "/churn_ckpt_ring.ckpt";
    c.checkpoint_every = 250;
    c.checkpoint_resume = false;
    c.pipeline_depth = 1;
    c.threads = 2;
    return phishing(c, seed);
  }
  throw std::logic_error("make_instance: no config for workload '" + workload.name + "'");
}

}  // namespace e2e
