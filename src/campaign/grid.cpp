#include "campaign/grid.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <stdexcept>

#include "attacks/adaptive.hpp"
#include "campaign/artifact.hpp"
#include "core/trainer.hpp"
#include "utils/errors.hpp"
#include "utils/strings.hpp"

namespace dpbyz::campaign {

namespace {

/// "name" or "name:nu" -> (name, nu-or-NaN).  Malformed nu throws.
std::pair<std::string, double> parse_attack(const std::string& value) {
  const auto parts = strings::split(value, ':');
  require(parts.size() <= 2 && !parts[0].empty(),
          "campaign: malformed attack axis value '" + value + "'");
  if (parts.size() == 1) return {parts[0], std::nan("")};
  return {parts[0], parse_metric(parts[1])};
}

/// The integer fields of axis value `value` (counts, levels, epochs):
/// decimal digits only, no sign, no overflow.
size_t parse_count(const std::string& digits, const std::string& value) {
  size_t out = 0;
  const char* end = digits.data() + digits.size();
  const auto [ptr, ec] = std::from_chars(digits.data(), end, out);
  if (ec != std::errc() || ptr != end)
    throw std::invalid_argument("campaign: '" + digits + "' in axis value '" + value +
                                "' is not a decimal count");
  return out;
}

/// Splits "2x4" (canonical) or "2,4" (accepted on input) into two sizes.
std::pair<size_t, size_t> parse_pair(const std::string& s, const std::string& what,
                                     const std::string& value) {
  auto parts = strings::split(s, 'x');
  if (parts.size() == 1) parts = strings::split(s, ',');
  require(parts.size() == 2 && !parts[0].empty() && !parts[1].empty(),
          "campaign: malformed " + what + " '" + s + "' (want <a>x<b>)");
  return {parse_count(parts[0], value), parse_count(parts[1], value)};
}

void apply_participation(ExperimentConfig& cfg, const std::string& value) {
  const auto parts = strings::split(value, ':');
  const std::string& kind = parts[0];
  if (kind == "full") {
    require(parts.size() == 1, "campaign: 'full' participation takes no argument");
    cfg.participation = "full";
    return;
  }
  if (kind == "iid") {
    cfg.participation = "iid";
    if (parts.size() == 2) cfg.participation_prob = parse_metric(parts[1]);
    else
      require(parts.size() == 1,
              "campaign: malformed participation '" + value + "'");
    return;
  }
  if (kind == "stragglers") {
    require(parts.size() == 2,
            "campaign: 'stragglers' needs a count, e.g. stragglers:2 or stragglers:2x3");
    cfg.participation = "stragglers";
    const auto sub = strings::split(parts[1], 'x');
    cfg.num_stragglers = parse_count(sub[0], value);
    if (sub.size() == 2)
      cfg.straggler_period = parse_count(sub[1], value);
    else
      require(sub.size() == 1, "campaign: malformed participation '" + value + "'");
    return;
  }
  throw std::invalid_argument("campaign: unknown participation kind '" + kind + "'");
}

/// Splits "axbxc" into three metrics (channel/churn axis arguments).
std::array<double, 3> parse_triple(const std::string& s, const std::string& what) {
  const auto parts = strings::split(s, 'x');
  require(parts.size() == 3,
          "campaign: malformed " + what + " '" + s + "' (want <a>x<b>x<c>)");
  return {parse_metric(parts[0]), parse_metric(parts[1]), parse_metric(parts[2])};
}

void apply_channel(ExperimentConfig& cfg, const std::string& value) {
  const auto parts = strings::split(value, ':');
  const std::string& kind = parts[0];
  if (kind == "off") {
    require(parts.size() == 1, "campaign: 'off' channel takes no argument");
    cfg.channel = "off";
    return;
  }
  if (kind == "lossy") {
    require(parts.size() == 2,
            "campaign: 'lossy' needs fault probabilities, e.g. lossy:0.05x0.01x0.1");
    const auto [drop, corrupt, reorder] = parse_triple(parts[1], "channel spec");
    cfg.channel = "lossy";
    cfg.channel_drop = drop;
    cfg.channel_corrupt = corrupt;
    cfg.channel_reorder = reorder;
    // The channel faults frames, so it needs a wire format; raw64 is the
    // bit-identical one.  A base that already picked a format keeps it.
    if (cfg.wire == "off") cfg.wire = "raw64";
    return;
  }
  throw std::invalid_argument("campaign: unknown channel kind '" + kind + "'");
}

void apply_churn(ExperimentConfig& cfg, const std::string& value) {
  const auto parts = strings::split(value, ':');
  const std::string& kind = parts[0];
  if (kind == "off") {
    require(parts.size() == 1, "campaign: 'off' churn takes no argument");
    cfg.churn = "off";
    return;
  }
  if (kind == "epoch") {
    require(parts.size() == 2,
            "campaign: 'epoch' churn needs <E>x<join>x<leave>, e.g. epoch:50x0.5x0.1");
    const auto sub = strings::split(parts[1], 'x');
    require(sub.size() == 3,
            "campaign: malformed churn spec '" + parts[1] + "' (want <E>x<join>x<leave>)");
    cfg.churn = "epoch";
    cfg.churn_epoch_rounds = parse_count(sub[0], value);
    cfg.churn_join_prob = parse_metric(sub[1]);
    cfg.churn_leave_prob = parse_metric(sub[2]);
    return;
  }
  throw std::invalid_argument("campaign: unknown churn kind '" + kind + "'");
}

void apply_topology(ExperimentConfig& cfg, const std::string& value) {
  const auto parts = strings::split(value, ':');
  const std::string& kind = parts[0];
  cfg.tree_levels = 0;
  cfg.tree_branch = 0;
  if (kind == "flat") {
    require(parts.size() == 1, "campaign: 'flat' topology takes no argument");
    return;
  }
  if (kind == "shards") {
    // The two-level sharded topology is the one-level tree with B = S
    // (bit-identical); S = 1 is the flat rule.
    require(parts.size() == 2, "campaign: 'shards' needs a count, e.g. shards:3");
    const size_t shards = parse_count(parts[1], value);
    require(shards >= 1, "campaign: 'shards' needs a count >= 1");
    if (shards > 1) {
      cfg.tree_levels = 1;
      cfg.tree_branch = shards;
    }
    return;
  }
  if (kind == "tree") {
    require(parts.size() == 2, "campaign: 'tree' needs levels and branch, e.g. tree:2x3");
    const auto [levels, branch] = parse_pair(parts[1], "tree spec", value);
    cfg.tree_levels = levels;
    cfg.tree_branch = branch;
    return;
  }
  throw std::invalid_argument("campaign: unknown topology kind '" + kind + "'");
}

/// Pre-screens the round GAR at `rows` rows.  A shards:S cell runs as
/// tree:1xS, which admits exactly the same cells, but its skip reasons
/// keep the wording of the two-level aggregator shards:S used to build,
/// so existing campaigns resume into byte-identical artifacts.
void screen_round_aggregator(const ExperimentConfig& cfg, size_t rows, bool sharded) {
  if (!sharded || cfg.tree_levels == 0) {
    (void)make_round_aggregator(cfg, rows);
    return;
  }
  const size_t shards = cfg.tree_branch, f = cfg.num_byzantine;
  require(shards <= cfg.num_workers, "config: cannot have more shards than workers");
  require(shards <= rows, "ShardedAggregator: more shards than rows");
  const size_t shard_f = (f + shards - 1) / shards, merge_f = f / (shard_f + 1);
  const std::string derived =
      "derived from (n=" + std::to_string(rows) + ", f=" + std::to_string(f);
  const PruneMode prune = parse_prune_mode(cfg.prune);
  auto stage = [prune](const std::string& context, const std::string& gar, size_t n,
                       size_t stage_f) {
    try {
      (void)make_aggregator(gar, n, stage_f, prune);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(context + ": " + e.what());
    }
  };
  for (size_t s = 0; s < shards; ++s) {
    const size_t size = (s + 1) * rows / shards - s * rows / shards;
    stage("ShardedAggregator: inner stage '" + cfg.gar + "' at shard " +
              std::to_string(s) + " (rows " + std::to_string(size) + ", f_shard " +
              std::to_string(shard_f) + "; " + derived + ", S=" +
              std::to_string(shards) + "))",
          cfg.gar, size, shard_f);
  }
  stage("ShardedAggregator: merge stage '" + cfg.shard_merge_gar + "' (S=" +
            std::to_string(shards) + ", f_merge " + std::to_string(merge_f) + "; " +
            derived + "), f_shard " + std::to_string(shard_f) + ")",
        cfg.shard_merge_gar, shards, merge_f);
}

}  // namespace

std::string canonical_topology(const std::string& topo) {
  const auto parts = strings::split(topo, ':');
  if (parts.size() == 2 && parts[0] == "tree") {
    const auto [levels, branch] = parse_pair(parts[1], "tree spec", topo);
    return "tree:" + std::to_string(levels) + "x" + std::to_string(branch);
  }
  // Validate the non-tree kinds eagerly too, so a malformed axis fails
  // at expansion, not on cell 738 of the run.
  ExperimentConfig scratch;
  apply_topology(scratch, topo);
  return topo;
}

std::string GridSpec::signature() const {
  std::vector<std::string> eps_s, topo_s;
  for (double e : dp_eps) eps_s.push_back(format_metric(e));
  for (const auto& t : topologies) topo_s.push_back(canonical_topology(t));
  const ExperimentConfig& b = base;
  std::vector<std::string> parts{
      "campaign-v3",
      "n=" + std::to_string(b.num_workers),
      "f=" + std::to_string(b.num_byzantine),
      "steps=" + std::to_string(b.steps),
      "batch=" + std::to_string(b.batch_size),
      "lr=" + format_metric(b.learning_rate),
      "momentum=" + format_metric(b.momentum),
      "clip=" + format_metric(b.clip_norm),
      "mechanism=" + b.mechanism,
      "delta=" + format_metric(b.delta),
      "depth=" + std::to_string(b.pipeline_depth),
      "observes=" + b.attack_observes,
      "probes=" + std::to_string(b.adapt_probes),
      "budget=" + std::to_string(b.adapt_budget),
      "partition=" + b.data_partition,
      "merge=" + b.shard_merge_gar,
      "churn_seed=" + std::to_string(b.churn_seed),
      "seeds=" + std::to_string(seeds),
      "data_seed=" + std::to_string(data_seed),
      "gars=" + strings::join(gars, "|"),
      "attacks=" + strings::join(attacks, "|"),
      "eps=" + strings::join(eps_s, "|"),
      "participation=" + strings::join(participation, "|"),
      "topologies=" + strings::join(topo_s, "|"),
      "channels=" + strings::join(channels, "|"),
      "churn=" + strings::join(churn, "|"),
      "prune=" + strings::join(prune, "|")};
  return sanitize_field(strings::join(parts, ";"));
}

std::vector<GridCell> expand_grid(const GridSpec& spec) {
  require(!spec.gars.empty() && !spec.attacks.empty() && !spec.dp_eps.empty() &&
              !spec.participation.empty() && !spec.topologies.empty() &&
              !spec.channels.empty() && !spec.churn.empty() &&
              !spec.prune.empty(),
          "campaign: every grid axis needs at least one value");
  require(spec.seeds >= 1, "campaign: seeds must be at least 1");

  std::vector<GridCell> cells;
  size_t index = 0;
  for (const std::string& gar : spec.gars)
    for (const std::string& attack : spec.attacks)
      for (double eps : spec.dp_eps)
        for (const std::string& part : spec.participation)
          for (const std::string& topo_raw : spec.topologies)
            for (const std::string& channel : spec.channels)
              for (const std::string& churn : spec.churn)
                for (const std::string& prune : spec.prune) {
                  const std::string topo = canonical_topology(topo_raw);
                  GridCell cell;
                  cell.index = index++;
                  cell.gar = gar;
                  cell.attack = attack;
                  cell.eps = eps;
                  cell.participation = part;
                  cell.topology = topo;
                  cell.channel = channel;
                  cell.churn = churn;
                  cell.prune = prune;

                  ExperimentConfig cfg = spec.base;
                  cfg.gar = gar;
                  cfg.prune = prune;
                  const auto [attack_name, attack_nu] = parse_attack(attack);
                  if (attack_name == "none") {
                    cfg.attack_enabled = false;
                  } else {
                    cfg.attack_enabled = true;
                    cfg.attack = attack_name;
                    cfg.attack_nu = attack_nu;
                  }
                  cfg.dp_enabled = eps > 0;
                  if (eps > 0) cfg.epsilon = eps;
                  apply_participation(cfg, part);
                  apply_topology(cfg, topo);
                  apply_channel(cfg, channel);
                  apply_churn(cfg, churn);

                  cell.id = gar + "/" + attack + "/eps=" + format_metric(eps) +
                            "/" + part + "/" + topo + "/" + channel + "/" +
                            churn + "/prune=" + prune;
                  cell.config = cfg;

                  // Admissibility pre-screen: materialize everything
                  // the trainer would construct, at full rows and —
                  // for the deterministic straggler schedule — at the
                  // worst-case round size, so inadmissible
                  // combinations surface here as skip reasons instead
                  // of exceptions mid-campaign.  (A churn cell whose
                  // roster later renegotiates into an inadmissible
                  // (n', f) is a *runtime* property of its trace; the
                  // runner records those as "error: ..." rows.)
                  try {
                    cfg.validate();
                    // shards:S has no wire edges to fault, exactly as
                    // before it became sugar for tree:1xS.
                    const bool sharded = topo.starts_with("shards:");
                    if (sharded)
                      require(cfg.wire == "off",
                              "config: wire requires tree_levels >= 1");
                    screen_round_aggregator(cfg, cfg.num_workers, sharded);
                    if (cfg.attack_enabled)
                      (void)make_attack(cfg.attack, cfg.attack_nu,
                                        AdaptiveSpec{cfg.gar, cfg.prune,
                                                     cfg.adapt_probes,
                                                     cfg.adapt_budget});
                    if (cfg.participation == "stragglers" &&
                        cfg.num_stragglers > 0) {
                      require(cfg.num_stragglers < cfg.num_workers,
                              "campaign: more stragglers than workers");
                      screen_round_aggregator(
                          cfg, cfg.num_workers - cfg.num_stragglers, sharded);
                    }
                  } catch (const std::exception& e) {
                    cell.skip_reason = sanitize_field(e.what());
                  }
                  cells.push_back(std::move(cell));
                }
  return cells;
}

}  // namespace dpbyz::campaign
