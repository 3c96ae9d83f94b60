#include "campaign/runner.hpp"

#include <cmath>
#include <mutex>
#include <stdexcept>

#include "campaign/checkpoint.hpp"
#include "core/experiment.hpp"
#include "core/trainer.hpp"
#include "privacy/gradient_inversion.hpp"
#include "privacy/membership_inference.hpp"
#include "utils/parallel.hpp"

namespace dpbyz::campaign {

namespace {

/// Artifact with the cell's coordinates and NaN metrics (the shape of a
/// skipped / failed / pending row; run_cell fills the metrics in).
CellArtifact base_artifact(const GridCell& cell, const GridSpec& spec) {
  CellArtifact a;
  a.cell = cell.index;
  a.id = cell.id;
  a.gar = cell.gar;
  a.attack = cell.attack;
  a.eps = cell.eps;
  a.participation = cell.participation;
  a.topology = cell.topology;
  a.channel = cell.channel;
  a.churn = cell.churn;
  a.seeds = spec.seeds;
  a.skip_reason = cell.skip_reason;
  const double nan = std::nan("");
  a.final_acc_mean = a.final_acc_std = nan;
  a.final_loss_mean = a.final_loss_std = nan;
  a.min_loss_mean = nan;
  a.mi_auc = a.inv_rel_error = a.inv_label_acc = nan;
  return a;
}

CellArtifact run_cell(const PhishingExperiment& exp, const GridSpec& spec,
                      const GridCell& cell, const CampaignOptions& options) {
  CellArtifact a = base_artifact(cell, spec);
  try {
    const std::vector<RunResult> runs =
        exp.run_seeds_parallel(cell.config, spec.seeds);
    const ScalarSummary acc = summarize_final_accuracy(runs);
    const ScalarSummary loss = summarize_final_loss(runs);
    a.final_acc_mean = acc.mean;
    a.final_acc_std = acc.stddev;
    a.final_loss_mean = loss.mean;
    a.final_loss_std = loss.stddev;
    double min_loss_sum = 0.0;
    for (const RunResult& r : runs) min_loss_sum += r.min_train_loss;
    a.min_loss_mean = min_loss_sum / static_cast<double>(runs.size());

    // Measured privacy leakage of the seed-1 model — the table the
    // paper derives by accounting, re-derived here by attacking: the
    // loss-threshold membership test and the exact linear-model
    // gradient inversion against the cell's own wire noise level.
    const Vector& w = runs.front().final_parameters;
    const privacy::MembershipReport mi = privacy::membership_inference(
        exp.model(), w, exp.train(), exp.test(), options.privacy_samples);
    a.mi_auc = mi.auc;
    const double stddev = make_mechanism(cell.config, exp.model().dim())->noise_stddev();
    const privacy::InversionReport inv = privacy::attack_linear_model(
        exp.train(), w, stddev, options.privacy_samples, /*seed=*/1);
    a.inv_rel_error = inv.mean_relative_error;
    a.inv_label_acc = inv.label_accuracy;
  } catch (const std::exception& e) {
    // Deterministic per (spec, cell): record, don't retry on resume.
    a.skip_reason = sanitize_field(std::string("error: ") + e.what());
  }
  return a;
}

}  // namespace

CampaignReport run_campaign(const GridSpec& spec, const CampaignOptions& options) {
  CampaignReport report;
  report.manifest_path = options.out_dir + "/manifest.bin";
  report.csv_path = options.out_dir + "/campaign.csv";
  report.json_path = options.out_dir + "/campaign.json";

  const std::vector<GridCell> cells = expand_grid(spec);
  report.total_cells = cells.size();
  const std::string signature = spec.signature();

  Manifest manifest = load_manifest(report.manifest_path);
  if (!manifest.signature.empty() && manifest.signature != signature)
    throw std::invalid_argument(
        "campaign: '" + report.manifest_path +
        "' belongs to a different grid — refusing to mix campaigns "
        "(delete the output directory or point --out elsewhere)");
  manifest.signature = signature;

  // Partition the work: pre-screened cells never run; admissible cells
  // already in the manifest are replayed; the rest are pending.
  std::vector<const GridCell*> pending;
  for (const GridCell& cell : cells) {
    if (!cell.admissible()) {
      ++report.skipped;
      continue;
    }
    ++report.admissible;
    if (manifest.completed.count(cell.index)) {
      ++report.resumed;
      continue;
    }
    pending.push_back(&cell);
  }
  // Budgeted invocation: keep the first K pending cells in index order,
  // matching what an unbudgeted run would have completed first had it
  // been killed at a cell boundary.
  if (options.max_cells > 0 && pending.size() > options.max_cells)
    pending.resize(options.max_cells);

  const PhishingExperiment exp(spec.data_seed);
  std::mutex manifest_mutex;
  parallel_map(
      pending.size(),
      [&](size_t i) {
        CellArtifact artifact = run_cell(exp, spec, *pending[i], options);
        // Persist each completion immediately: the manifest on disk is
        // always a valid checkpoint, whatever kills us next.
        std::lock_guard<std::mutex> lock(manifest_mutex);
        manifest.completed[artifact.cell] = std::move(artifact);
        save_manifest(report.manifest_path, manifest);
        return 0;
      },
      options.threads);
  report.ran = pending.size();

  // Assemble the full table; write the final artifacts only when every
  // admissible cell is present, so campaign.csv/.json are always the
  // complete, deterministic product (byte-identical however many
  // invocations it took to get here).
  size_t done = 0;
  for (const GridCell& cell : cells) {
    auto it = manifest.completed.find(cell.index);
    if (it != manifest.completed.end()) {
      report.cells.push_back(it->second);
      if (cell.admissible()) ++done;
    } else {
      CellArtifact a = base_artifact(cell, spec);
      if (cell.admissible()) a.skip_reason = "pending";
      report.cells.push_back(std::move(a));
    }
  }
  report.complete = done == report.admissible;
  if (report.complete) {
    write_csv(report.csv_path, report.cells);
    write_json(report.json_path, signature, report.cells);
  }
  return report;
}

}  // namespace dpbyz::campaign
