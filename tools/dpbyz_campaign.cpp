// dpbyz_campaign — declarative scenario-campaign CLI (ROADMAP item 4).
//
// Expands a GAR x attack x DP-eps x participation x topology x channel x
// churn grid, pre-screens admissibility, runs the admissible
// cells in parallel with per-cell checkpointing, and writes the campaign
// CSV/JSON artifacts.  A killed campaign resumes from its manifest and
// produces byte-identical artifacts (see src/campaign/runner.hpp).
//
// Examples:
//   dpbyz_campaign --gars=mda,krum --attacks=none,little,adaptive_alie
//       --eps=0,0.2 --steps=300 --seeds=3 --out=bench_out/campaign
//   dpbyz_campaign --gars=krum --attacks=little --eps=0 --dry-run
//   dpbyz_campaign ... --max-cells=2        # budgeted slice (CI resume leg)
//
// Validate artifacts with scripts/check_campaign_artifacts.py.

#include <cstdio>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "utils/flags.hpp"
#include "utils/strings.hpp"

namespace {

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  for (const std::string& part : dpbyz::strings::split(csv, ','))
    if (!dpbyz::strings::trim(part).empty())
      out.push_back(dpbyz::strings::trim(part));
  return out;
}

std::vector<double> split_doubles(const std::string& csv) {
  std::vector<double> out;
  for (const std::string& part : split_list(csv))
    out.push_back(dpbyz::campaign::parse_metric(part));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dpbyz;
  try {
    flags::Parser flags(
        argc, argv,
        {"gars", "attacks", "eps", "participation", "topologies", "channels",
         "churn", "churn-seed", "seeds", "data-seed",
         "steps", "batch", "workers", "byzantine", "depth", "observes",
         "adapt-probes", "adapt-budget", "out", "threads", "max-cells",
         "privacy-samples", "dry-run", "list-cells", "help"});
    if (flags.get_bool("help", false)) {
      std::printf(
          "usage: dpbyz_campaign [--gars=a,b] [--attacks=none,little:1.5,adaptive_alie]\n"
          "  [--eps=0,0.2] [--participation=full,iid:0.9,stragglers:2x3]\n"
          "  [--topologies=flat,shards:3,tree:2x3]   (shards:S runs as tree:1xS)\n"
          "  [--channels=off,lossy:0.05x0.01x0.1] [--churn=off,epoch:50x0.5x0.1]\n"
          "  [--churn-seed=S]\n"
          "  [--seeds=N] [--data-seed=S] [--steps=T] [--batch=b] [--workers=n]\n"
          "  [--byzantine=f] [--depth=k] [--observes=clean|wire]\n"
          "  [--adapt-probes=P] [--adapt-budget=B]\n"
          "  [--out=DIR] [--threads=W] [--max-cells=K] [--privacy-samples=M]\n"
          "  [--dry-run | --list-cells]\n");
      return 0;
    }

    campaign::GridSpec spec;
    spec.gars = split_list(flags.get_string("gars", "mda"));
    spec.attacks = split_list(flags.get_string("attacks", "none,little,adaptive_alie"));
    spec.dp_eps = split_doubles(flags.get_string("eps", "0,0.2"));
    spec.participation = split_list(flags.get_string("participation", "full"));
    spec.topologies = split_list(flags.get_string("topologies", "flat"));
    spec.channels = split_list(flags.get_string("channels", "off"));
    spec.churn = split_list(flags.get_string("churn", "off"));
    spec.base.churn_seed = flags.get_count("churn-seed", 1);
    spec.seeds = flags.get_count("seeds", 3);
    spec.data_seed = flags.get_count("data-seed", 42);
    spec.base.steps = flags.get_count("steps", 300);
    spec.base.batch_size = flags.get_count("batch", 50);
    spec.base.num_workers = flags.get_count("workers", 11);
    spec.base.num_byzantine = flags.get_count("byzantine", 5);
    spec.base.pipeline_depth = flags.get_count("depth", 0);
    // "clean" (the attack papers' observation model) or "wire" (Remark 1:
    // the adversary reads the cleartext submissions, so under DP the
    // adaptive strategies tune against the batch the server aggregates).
    spec.base.attack_observes = flags.get_string("observes", "clean");
    spec.base.adapt_probes = flags.get_count("adapt-probes", 8);
    spec.base.adapt_budget = flags.get_count("adapt-budget", 0);

    // --dry-run / --list-cells: print the expanded grid with per-cell
    // verdicts and exit without training anything.
    if (flags.get_bool("dry-run", false) || flags.get_bool("list-cells", false)) {
      const auto cells = campaign::expand_grid(spec);
      size_t admissible = 0;
      for (const auto& cell : cells) {
        if (cell.admissible()) {
          ++admissible;
          std::printf("%4zu  RUN   %s\n", cell.index, cell.id.c_str());
        } else {
          std::printf("%4zu  SKIP  %s  [%s]\n", cell.index, cell.id.c_str(),
                      cell.skip_reason.c_str());
        }
      }
      std::printf("# %zu cells: %zu admissible, %zu skipped (seeds=%zu)\n",
                  cells.size(), admissible, cells.size() - admissible, spec.seeds);
      std::printf("# signature: %s\n", spec.signature().c_str());
      return 0;
    }

    campaign::CampaignOptions options;
    options.out_dir = flags.get_string("out", "bench_out/campaign");
    options.threads = flags.get_count("threads", 0);
    options.max_cells = flags.get_count("max-cells", 0);
    options.privacy_samples = flags.get_count("privacy-samples", 400);

    const campaign::CampaignReport report = campaign::run_campaign(spec, options);
    std::printf("campaign: %zu cells (%zu admissible, %zu skipped)\n",
                report.total_cells, report.admissible, report.skipped);
    std::printf("campaign: resumed %zu from manifest, ran %zu this invocation\n",
                report.resumed, report.ran);
    std::printf("campaign: manifest at %s\n", report.manifest_path.c_str());
    if (report.complete) {
      std::printf("campaign: complete — artifacts at %s and %s\n",
                  report.csv_path.c_str(), report.json_path.c_str());
    } else {
      std::printf("campaign: incomplete (%zu cells still pending) — rerun the "
                  "same command to resume\n",
                  report.admissible - report.resumed - report.ran);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dpbyz_campaign: %s\n", e.what());
    return 1;
  }
}
