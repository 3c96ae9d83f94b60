// runner.hpp — the resumable scenario-campaign executor.
//
// run_campaign takes a GridSpec, expands it (grid.hpp), replays already-
// completed cells from the checkpoint manifest (checkpoint.hpp), runs
// the remaining admissible cells in parallel on the process-wide
// ThreadPool, persists every completion to the manifest as it lands,
// and — once every admissible cell is accounted for — writes the final
// campaign.csv / campaign.json artifacts (artifact.hpp).
//
// Execution model:
//   - One PhishingExperiment (spec.data_seed) is shared by every cell;
//     each cell runs seeds 1..spec.seeds via run_seeds_parallel, which
//     degrades to serial inside a pool worker — so cell-level
//     parallelism and seed-level parallelism compose without
//     oversubscription (ThreadPool nesting policy).
//   - A cell that throws at run time (e.g. a participation schedule
//     that wanders below the GAR's admissible round size) is recorded
//     with skip_reason "error: ..." instead of aborting the campaign —
//     the failure is a deterministic property of the cell, so retrying
//     on resume would fail identically.
//
// Determinism/resume contract (pinned by tests/test_campaign.cpp): each
// cell's artifact is a pure function of (spec, cell index) — cells
// share no mutable state, every training run is a pure function of
// (config, seed, data_seed), and the measured privacy attacks are
// seeded — so a campaign killed at any point and resumed produces final
// artifacts byte-identical to an uninterrupted run.  `max_cells` exists
// to make that test (and the CI smoke leg) honest: it runs at most K
// pending cells and returns with complete == false, simulating the
// kill at a cell boundary.
#pragma once

#include <string>
#include <vector>

#include "campaign/artifact.hpp"
#include "campaign/grid.hpp"

namespace dpbyz::campaign {

struct CampaignOptions {
  /// Directory for manifest + final artifacts.
  std::string out_dir = "bench_out/campaign";
  /// Cell-level parallelism (participating threads; 0 = hardware).
  size_t threads = 0;
  /// Run at most this many pending cells this invocation (0 = all) —
  /// the resume test's kill point and the CI smoke leg's budget.
  size_t max_cells = 0;
  /// Samples per side for membership inference / inversion attempts.
  size_t privacy_samples = 400;
};

struct CampaignReport {
  size_t total_cells = 0;  ///< expanded grid size
  size_t admissible = 0;   ///< cells that pass the pre-screen
  size_t skipped = 0;      ///< pre-screened out (skip_reason from expansion)
  size_t resumed = 0;      ///< admissible cells replayed from the manifest
  size_t ran = 0;          ///< cells executed by this invocation
  /// True when every admissible cell is in the manifest — the final
  /// CSV/JSON artifacts exist (and were (re)written) iff this is set.
  bool complete = false;
  /// Full table in cell-index order: completed cells carry metrics,
  /// pre-screened cells their skip_reason, still-pending cells (only
  /// possible under max_cells) skip_reason "pending".
  std::vector<CellArtifact> cells;
  std::string manifest_path, csv_path, json_path;
};

/// Execute (or resume) the campaign.  Throws std::invalid_argument when
/// out_dir holds a manifest for a *different* grid signature.
CampaignReport run_campaign(const GridSpec& spec, const CampaignOptions& options);

}  // namespace dpbyz::campaign
