#include "campaign/grid.hpp"

#include <array>
#include <cmath>
#include <stdexcept>

#include "attacks/adaptive.hpp"
#include "campaign/artifact.hpp"
#include "core/checkpoint.hpp"
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

/// The integer fields of axis value `value` (counts, levels, epochs).
size_t parse_count(const std::string& digits, const std::string& value) {
  const std::optional<size_t> count = strings::parse_count(digits);
  if (!count)
    throw std::invalid_argument("campaign: '" + digits + "' in axis value '" + value +
                                "' is not a decimal count");
  return *count;
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
  // checkpoint_signature is the one list of trajectory-shaping knobs; it
  // leaves out the horizon, which a campaign's results do depend on.
  const std::vector<std::string> parts{
      "campaign-v5",
      "steps=" + std::to_string(base.steps),
      checkpoint_signature(base),
      "seeds=" + std::to_string(seeds),
      "data_seed=" + std::to_string(data_seed),
      "gars=" + strings::join(gars, "|"),
      "attacks=" + strings::join(attacks, "|"),
      "eps=" + strings::join(eps_s, "|"),
      "participation=" + strings::join(participation, "|"),
      "topologies=" + strings::join(topo_s, "|"),
      "channels=" + strings::join(channels, "|"),
      "churn=" + strings::join(churn, "|")};
  return sanitize_field(strings::join(parts, ";"));
}

std::vector<GridCell> expand_grid(const GridSpec& spec) {
  require(!spec.gars.empty() && !spec.attacks.empty() && !spec.dp_eps.empty() &&
              !spec.participation.empty() && !spec.topologies.empty() &&
              !spec.channels.empty() && !spec.churn.empty(),
          "campaign: every grid axis needs at least one value");
  require(spec.seeds >= 1, "campaign: seeds must be at least 1");
  for (double eps : spec.dp_eps)
    require(std::isfinite(eps) && eps >= 0,
            "campaign: dp_eps value '" + format_metric(eps) +
                "' is not a finite epsilon >= 0 (0 disables DP)");

  std::vector<GridCell> cells;
  size_t index = 0;
  for (const std::string& gar : spec.gars)
    for (const std::string& attack : spec.attacks)
      for (double eps : spec.dp_eps)
        for (const std::string& part : spec.participation)
          for (const std::string& topo_raw : spec.topologies)
            for (const std::string& channel : spec.channels)
              for (const std::string& churn : spec.churn) {
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

                ExperimentConfig cfg = spec.base;
                cfg.gar = gar;
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
                          "/" + part + "/" + topo + "/" + channel + "/" + churn;
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
                  // shards:S names the tree without wire edges to fault.
                  if (topo.starts_with("shards:"))
                    require(cfg.wire == "off",
                            "config: wire requires tree_levels >= 1");
                  (void)make_round_aggregator(cfg, cfg.num_workers);
                  if (cfg.attack_enabled)
                    (void)make_attack(cfg.attack, cfg.attack_nu,
                                      AdaptiveSpec{.gar = cfg.gar,
                                                   .probes = cfg.adapt_probes,
                                                   .budget = cfg.adapt_budget});
                  if (cfg.participation == "stragglers" &&
                      cfg.num_stragglers > 0) {
                    require(cfg.num_stragglers < cfg.num_workers,
                            "campaign: more stragglers than workers");
                    (void)make_round_aggregator(
                        cfg, cfg.num_workers - cfg.num_stragglers);
                  }
                } catch (const std::exception& e) {
                  cell.skip_reason = sanitize_field(e.what());
                }
                cells.push_back(std::move(cell));
              }
  return cells;
}

}  // namespace dpbyz::campaign
