// grid.hpp — declarative scenario grids for the campaign runner.
//
// A GridSpec names one axis value list per experimental dimension the
// paper's tables sweep (GAR x attack x DP-eps x participation x
// topology x channel x churn x prune); expand_grid takes their
// Cartesian product into a flat, stably-ordered cell list.  Each cell carries a
// fully materialized ExperimentConfig, and expansion *pre-screens
// admissibility*: a combination the library would reject at run time
// (Krum at n < 2f+3, a tree deeper than the row count, an unknown
// attack name, ...) becomes a cell with a non-empty skip_reason instead
// of a crash mid-campaign — the runner records it and moves on, so one
// bad axis value cannot take down a thousand-cell sweep.
//
// Axis value syntax (parsed by expand_grid; <S>, <k>, <L>, <B>, <E> and
// <period> are decimal counts, anything else is a malformed value):
//   attacks:        "none" | "<name>" | "<name>:<nu>"
//                   (make_attack names incl. the adaptive strategies)
//   dp_eps:         per-step epsilon; 0 disables DP for that cell
//   participation:  "full" | "iid" | "iid:<prob>" |
//                   "stragglers:<k>" | "stragglers:<k>x<period>"
//   topologies:     "flat" | "shards:<S>" | "tree:<L>x<B>"
//                   (shards:S runs as tree:1xS, or flat at S = 1, and
//                   has no wire, so lossy channels skip it)
//                   (also accepts "tree:<L>,<B>" on input; the canonical
//                   form — and the one artifacts carry — uses 'x', which
//                   keeps every field comma-free for the CSV schema)
//   channels:       "off" | "lossy:<drop>x<corrupt>x<reorder>"
//                   (per-frame fault probabilities on the tree's edges;
//                   a lossy cell whose base leaves wire == "off" gets
//                   wire = "raw64", the bit-identical framing — and the
//                   pre-screen skips lossy cells on non-tree topologies,
//                   where there is no wire to fault)
//   churn:          "off" | "epoch:<E>x<join>x<leave>"
//                   (membership epochs of E rounds with the given
//                   join/leave probabilities; churn_seed comes from
//                   base.churn_seed and is part of the signature)
//
// Expansion order is the nested loop gar -> attack -> eps ->
// participation -> topology -> channel -> churn -> prune (last axis
// fastest) and is part of the checkpoint contract: cell indices key the
// resumable manifest, so the order must be a pure function of the spec.
// GridSpec::signature() fingerprints the spec; the manifest stores it
// and a resume against a different spec is rejected loudly.
#pragma once

#include <string>
#include <vector>

#include "core/config.hpp"

namespace dpbyz::campaign {

/// One campaign = base config + axis value lists + seed plan.
struct GridSpec {
  /// Shared scalar knobs (n, f, steps, batch, lr, pipeline depth, ...).
  /// Axis-controlled fields of `base` (gar, attack*, dp_*, participation*,
  /// tree_*, channel*, churn except churn_seed, prune, seed) are
  /// overwritten per cell.
  ExperimentConfig base;

  std::vector<std::string> gars{"mda"};
  std::vector<std::string> attacks{"none"};
  std::vector<double> dp_eps{0.0};
  std::vector<std::string> participation{"full"};
  std::vector<std::string> topologies{"flat"};
  std::vector<std::string> channels{"off"};
  std::vector<std::string> churn{"off"};
  std::vector<std::string> prune{"off"};

  size_t seeds = 3;         ///< per-cell seeded repetitions (1..seeds)
  uint64_t data_seed = 42;  ///< PhishingExperiment dataset seed

  /// Deterministic fingerprint of the spec (axes, seed plan, and the
  /// base knobs that alter trajectories).  Stored in the checkpoint
  /// manifest; resuming under a different signature throws.
  std::string signature() const;
};

/// One expanded cell: stable index, comma-free human label, the axis
/// values it was built from (artifact coordinates), the materialized
/// config, and the admissibility pre-screen verdict.
struct GridCell {
  size_t index = 0;
  std::string id;
  std::string gar, attack, participation, topology, channel, churn, prune;
  double eps = 0.0;
  ExperimentConfig config;
  /// Empty = admissible; otherwise the reason the cell will be skipped.
  std::string skip_reason;

  bool admissible() const { return skip_reason.empty(); }
};

/// Cartesian expansion + admissibility pre-screening (never throws for a
/// bad axis *combination* — that becomes skip_reason — but does throw
/// std::invalid_argument for a malformed axis value string, which is a
/// spec-authoring error, or an empty axis).
std::vector<GridCell> expand_grid(const GridSpec& spec);

/// Canonicalize a topology axis value ("tree:2,4" -> "tree:2x4");
/// throws std::invalid_argument when the value is malformed.
std::string canonical_topology(const std::string& topo);

}  // namespace dpbyz::campaign
