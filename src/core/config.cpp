#include "core/config.hpp"

#include <cmath>
#include <stdexcept>

#include "aggregation/aggregator.hpp"
#include "utils/errors.hpp"
#include "utils/strings.hpp"

namespace dpbyz {

void ExperimentConfig::validate() const {
  require(num_workers >= 1, "config: need at least one worker");
  require(num_byzantine < num_workers, "config: f must be < n");
  require(batch_size >= 1, "config: batch size must be positive");
  require(steps >= 1, "config: need at least one step");
  require(learning_rate > 0, "config: learning rate must be positive");
  require(lr_schedule == "constant" || lr_schedule == "theorem1",
          "config: lr_schedule must be 'constant' or 'theorem1'");
  require(momentum >= 0 && momentum < 1, "config: momentum must be in [0,1)");
  require(clip_norm > 0, "config: clip norm (G_max) must be positive");
  require(eval_every >= 1, "config: eval_every must be positive");
  require(dropout_prob >= 0 && dropout_prob < 1, "config: dropout_prob must be in [0,1)");
  require(worker_momentum >= 0 && worker_momentum < 1,
          "config: worker_momentum must be in [0,1)");
  require(data_partition == "shared" || data_partition == "iid" ||
              data_partition == "contiguous" || data_partition == "label-skew",
          "config: data_partition must be shared|iid|contiguous|label-skew");
  require(label_skew_fraction >= 0.5 && label_skew_fraction <= 1.0,
          "config: label_skew_fraction must be in [0.5, 1]");
  if (dp_enabled) {
    require(mechanism == "gaussian" || mechanism == "laplace",
            "config: mechanism must be 'gaussian' or 'laplace'");
    if (mechanism == "gaussian") {
      require(epsilon > 0 && epsilon < 1,
              "config: per-step epsilon must be in (0,1) for the Gaussian mechanism");
      require(delta > 0 && delta < 1, "config: delta must be in (0,1)");
    } else {
      require(epsilon > 0, "config: epsilon must be positive");
    }
  }
  try {
    parse_prune_mode(prune);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string("config: ") + e.what());
  }
  if (tree_levels > 0) {
    require(tree_branch >= 1, "config: tree_branch must be >= 1 when tree_levels > 0");
  } else {
    require(tree_branch == 0, "config: tree_branch requires tree_levels > 0");
  }
  require(wire == "off" || wire == "raw64" || wire == "int8" || wire == "topk",
          "config: wire must be off|raw64|int8|topk");
  if (wire != "off") {
    require(tree_levels >= 1, "config: wire requires tree_levels >= 1");
    require(wire_chunk >= 1, "config: wire_chunk must be >= 1");
  }
  require(channel == "off" || channel == "lossy",
          "config: channel must be off|lossy");
  if (channel == "lossy") {
    require(wire != "off", "config: channel == 'lossy' requires a wire format");
    auto probability = [](double p) { return p >= 0.0 && p <= 1.0; };
    require(probability(channel_drop) && probability(channel_duplicate) &&
                probability(channel_corrupt) && probability(channel_reorder),
            "config: channel fault probabilities must be in [0, 1]");
  }
  require(pipeline_depth <= kMaxPipelineDepth,
          "config: pipeline_depth must be in [0, " +
              std::to_string(kMaxPipelineDepth) + "]");
  require(straggler_policy != "adaptive",
          "config: straggler_policy 'adaptive' was removed (its skips were "
          "wall-clock driven); model stragglers with participation = "
          "'stragglers' or 'iid'");
  require(straggler_policy == "off", "config: straggler_policy must be off");
  require(!fast_math,
          "config: fast_math was removed (every reduction now runs the one "
          "golden-pinned implementation); leave it false");
  require(participation == "full" || participation == "iid" ||
              participation == "stragglers",
          "config: participation must be full|iid|stragglers");
  if (participation == "iid")
    require(participation_prob > 0 && participation_prob <= 1,
            "config: participation_prob must be in (0,1]");
  if (participation == "stragglers") {
    require(straggler_period >= 1, "config: straggler_period must be at least 1");
    const size_t honest =
        attack_enabled ? num_workers - num_byzantine : num_workers;
    require(num_stragglers <= honest,
            "config: num_stragglers cannot exceed the honest worker count");
  }
  require(churn == "off" || churn == "epoch", "config: churn must be off|epoch");
  if (churn == "epoch") {
    require(churn_epoch_rounds >= 1, "config: churn_epoch_rounds must be >= 1");
    auto probability = [](double p) { return p >= 0.0 && p <= 1.0; };
    require(probability(churn_join_prob) && probability(churn_leave_prob) &&
                probability(churn_crash_prob),
            "config: churn probabilities must be in [0, 1]");
    require(data_partition == "shared",
            "config: churn requires data_partition == 'shared' (a joiner has "
            "no pre-assigned shard)");
    require(reputation == "distance" || reputation == "off",
            "config: reputation must be distance|off");
    require(reputation_beta > 0 && reputation_beta <= 1,
            "config: reputation_beta must be in (0,1]");
    require(reputation_outlier >= 1.0, "config: reputation_outlier must be >= 1");
    require(probability(reputation_admit) && probability(reputation_evict),
            "config: reputation thresholds must be in [0, 1]");
    require(reputation_evict <= reputation_admit,
            "config: reputation_evict must not exceed reputation_admit");
    require(quarantine_epochs >= 1, "config: quarantine_epochs must be >= 1");
  }
  if (!checkpoint_path.empty()) {
    require(checkpoint_every >= 1,
            "config: checkpoint_path requires checkpoint_every >= 1");
    require(channel == "off",
            "config: checkpointing requires channel == 'off' (per-edge channel "
            "streams live inside the aggregators and are not captured)");
  } else {
    require(checkpoint_every == 0, "config: checkpoint_every requires checkpoint_path");
  }
  if (attack_enabled) {
    require(num_byzantine >= 1, "config: attack enabled but f = 0");
    require(attack_observes == "wire" || attack_observes == "clean",
            "config: attack_observes must be 'wire' or 'clean'");
    require(adapt_probes >= 1, "config: adapt_probes must be at least 1");
  }
}

std::string ExperimentConfig::label() const {
  std::string out = gar;
  if (tree_levels > 0)
    out += "+tree(L" + std::to_string(tree_levels) + ",B" +
           std::to_string(tree_branch) + ")";
  if (wire != "off") out += "+wire(" + wire + ")";
  if (channel != "off") out += "+chan";
  if (threads != 0) out += "+T" + std::to_string(threads);
  if (pipeline_depth > 0) out += "+p" + std::to_string(pipeline_depth);
  if (churn != "off")
    out += "+churn(E=" + std::to_string(churn_epoch_rounds) +
           ",cs=" + std::to_string(churn_seed) + ")";
  if (!checkpoint_path.empty()) out += "+ckpt";
  if (prune != "off") out += "+prune(" + prune + ")";
  if (participation != "full") out += "+" + participation;
  if (dp_enabled)
    out += "+dp(eps=" + strings::format_double(epsilon) + ")";
  if (attack_enabled) out += "+" + attack;
  out += "(b=" + std::to_string(batch_size) + ",seed=" + std::to_string(seed) + ")";
  return out;
}

ExperimentConfig ExperimentConfig::paper_baseline() { return ExperimentConfig{}; }

ExperimentConfig ExperimentConfig::with_dp(double eps) const {
  ExperimentConfig c = *this;
  c.dp_enabled = true;
  c.epsilon = eps;
  return c;
}

ExperimentConfig ExperimentConfig::with_attack(const std::string& attack_name) const {
  ExperimentConfig c = *this;
  c.attack_enabled = true;
  c.attack = attack_name;
  return c;
}

ExperimentConfig ExperimentConfig::with_seed(uint64_t s) const {
  ExperimentConfig c = *this;
  c.seed = s;
  return c;
}

ExperimentConfig ExperimentConfig::with_batch(size_t b) const {
  ExperimentConfig c = *this;
  c.batch_size = b;
  return c;
}

}  // namespace dpbyz
