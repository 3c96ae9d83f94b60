// bench_paper — the paper's seeded sweeps, one campaign grid per spec.
//
// Every experiment here is a grid of (config x seeds) cells, so each is
// a named campaign::GridSpec run through campaign::run_campaign into
// bench_out/paper/<spec>/ (campaign.csv / campaign.json in the artifact
// schema; validate with scripts/check_campaign_artifacts.py).  The
// directory is removed first: a bench measures the build it came from,
// and a stale manifest would replay cells an older build computed.
//
// Defaults are the paper's §5.1 setup (n = 11, f = 5, MDA, eta = 2,
// server momentum 0.99, clip 1e-2, delta = 1e-6, phishing-like task,
// d = 69).  One line per cell: final accuracy mean +/- std over seeds,
// final training loss, and the mean over seeds of each run's minimum
// training loss.
//
// Flags: --steps N --seeds K (override every spec) --fast (each spec's
// smoke-run horizon and seed count).  Exits nonzero when a cell does
// not run, so the sweep doubles as a CI gate.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "utils/flags.hpp"
#include "utils/stopwatch.hpp"
#include "utils/strings.hpp"
#include "utils/table.hpp"

using namespace dpbyz;

namespace {

struct PaperSpec {
  std::string name;
  campaign::GridSpec grid;
  size_t fast_steps;
  size_t fast_seeds;
};

/// MDA at the paper's (n, f) = (11, 5) and batch b, under `attacks` x
/// `eps` (0 = DP off), for `steps` rounds over seeds 1..`seeds`.
campaign::GridSpec paper_grid(size_t batch, size_t steps, size_t seeds,
                              std::vector<std::string> attacks, std::vector<double> eps) {
  campaign::GridSpec grid;
  grid.base.batch_size = batch;
  grid.base.steps = steps;
  grid.seeds = seeds;
  grid.attacks = std::move(attacks);
  grid.dp_eps = std::move(eps);
  return grid;
}

std::vector<PaperSpec> paper_specs() {
  const std::vector<std::string> both{"none", "little", "empire"};
  std::vector<PaperSpec> specs;

  // Figure 2: b = 50, the "reasonable" batch size.  Expected shape
  // (paper): without DP the minimum loss is reached in < 100 steps
  // whether or not an attack runs (MDA absorbs both attacks); with DP
  // but no attack training is essentially unaffected; with DP *and* an
  // attack MDA's protection is noticeably lowered — the antagonism
  // between privacy noise and Byzantine resilience.  The no-DP little
  // cell does not reproduce the first claim (ROADMAP item 1).
  specs.push_back({"fig2_batch50", paper_grid(50, 1000, 5, both, {0, 0.2}), 300, 3});
  // Figure 3: b = 10, the small-batch extreme.  Decreasing b raises the
  // honest-gradient variance; the unattacked non-DP run still converges,
  // but DP noise "significantly hampers the training even without
  // attack", and DP + attack collapses.
  specs.push_back({"fig3_batch10", paper_grid(10, 1000, 5, both, {0, 0.2}), 300, 3});
  // Figure 4: b = 500, the large-batch extreme.  With the gradient
  // variance crushed, every configuration reaches the baseline's
  // accuracy: the incompatibility is an antagonism, not an
  // impossibility, resolvable by paying ~50x more samples per step.
  specs.push_back({"fig4_batch500", paper_grid(500, 1000, 5, both, {0, 0.2}), 300, 3});

  // §5.2's privacy-budget sweep at b = 50.  Expected shape: "slightly
  // larger privacy noises gracefully translate into slightly lower
  // performances ... not any abrupt decrease" — accuracy rises smoothly
  // with eps toward the no-DP cells; under attack the degradation is
  // steeper but still graded, because the task is convex.
  specs.push_back({"eps_sweep",
                   paper_grid(50, 1000, 5, both, {0, 0.1, 0.2, 0.35, 0.5, 0.75, 0.9}),
                   300, 3});

  // §2.2/§5.1's GAR choice: the paper fixes MDA for its VN-ratio bound.
  // Every rule at the largest f <= 5 it admits at n = 11.  Reading: the
  // Table-1 GARs hold up under attack without DP (the geometric median,
  // outside the paper's table, is the exception under empire), and every
  // rule degrades once DP noise meets an attack — the incompatibility is
  // a property of the family (§3), not an artifact of MDA.
  const std::vector<std::pair<size_t, std::vector<std::string>>> gars_by_f{
      {5, {"mda", "median", "meamed", "phocas", "trimmed-mean", "cge", "geometric-median"}},
      {4, {"krum", "multi-krum"}},
      {2, {"bulyan"}}};
  for (const auto& [f, gars] : gars_by_f) {
    PaperSpec spec{"gar_comparison_f" + std::to_string(f),
                   paper_grid(50, 600, 3, both, {0, 0.2}), 200, 2};
    spec.grid.gars = gars;
    spec.grid.base.num_byzantine = f;
    specs.push_back(std::move(spec));
  }

  // The adversary's observation point, which the paper leaves implicit.
  // "clean": it estimates g_t / sigma_t from its own honest-equivalent
  // computations (the attack papers' setup, the default).  "wire": it
  // reads the noisy submissions on the cleartext channel (Remark 1), so
  // its sigma estimate absorbs the DP noise and the forged offset grows
  // with it.  Without DP the two coincide.  Reading: eavesdropping helps
  // the adversary — DP noise hands it a larger evasion envelope, and the
  // batch that neutralizes it grows.
  for (size_t batch : {10, 50, 500})
    for (const char* observes : {"clean", "wire"}) {
      PaperSpec spec{"attack_observation_b" + std::to_string(batch) + "_" + observes,
                     paper_grid(batch, 800, 3, {"little", "empire"}, {0, 0.2}), 300, 2};
      spec.grid.base.attack_observes = observes;
      specs.push_back(std::move(spec));
    }

  // Heterogeneous workers (federated extension).  The paper assumes
  // every honest worker samples the same distribution (§2.1); sharding
  // the training set violates that.  Reading: iid shards match "shared";
  // label skew inflates the honest inter-worker variance, which robust
  // GARs partly misread as Byzantine — degradation before DP, and a
  // smaller noise budget once DP is added.
  for (const char* partition : {"shared", "iid", "contiguous", "label-skew"}) {
    PaperSpec spec{std::string("heterogeneity_") + partition,
                   paper_grid(50, 800, 3, {"none", "little"}, {0, 0.2}), 300, 2};
    spec.grid.base.data_partition = partition;
    specs.push_back(std::move(spec));
  }

  // Server momentum as variance reduction (§7's suggestion): an
  // exponential average of aggregates.  The learning rate is rescaled by
  // (1 - mu) to keep the steady-state step of the paper's (2, 0.99).
  // Reading: higher momentum averages the DP noise over ~1/(1 - mu)
  // steps and recovers part of the DP-only accuracy; under attack it
  // helps less, since the Byzantine bias is consistent across steps and
  // survives averaging.
  const double paper_effective_lr = 2.0 / (1.0 - 0.99);
  for (double mu : {0.0, 0.5, 0.9, 0.99, 0.995}) {
    PaperSpec spec{"server_momentum_" + campaign::format_metric(mu),
                   paper_grid(50, 800, 3, both, {0, 0.2}), 300, 2};
    spec.grid.base.momentum = mu;
    spec.grid.base.learning_rate = paper_effective_lr * (1.0 - mu);
    specs.push_back(std::move(spec));
  }

  // Worker momentum, §7's "exponential gradient averaging" (cf.
  // distributed momentum [16]): each worker sends m_t = mu_w m_{t-1} +
  // clip(g_t), whose noise is averaged over ~1/(1 - mu_w) steps while
  // the signal is amplified by that factor.  Server momentum stays 0.99;
  // the lr is rescaled by (1 - mu_w).  Reading: moderate averaging
  // recovers part of the DP-only gap and some of the DP + attack gap,
  // but cannot remove the d-dependence (the per-message noise is
  // unchanged) — a direction, as the paper frames it, not a solution.
  for (double mu_w : {0.0, 0.5, 0.9, 0.99}) {
    PaperSpec spec{"worker_momentum_" + campaign::format_metric(mu_w),
                   paper_grid(50, 800, 3, both, {0, 0.2}), 300, 2};
    spec.grid.base.worker_momentum = mu_w;
    spec.grid.base.learning_rate = 2.0 * (1.0 - mu_w);
    specs.push_back(std::move(spec));
  }
  return specs;
}

}  // namespace

int main(int argc, char** argv) {
  flags::Parser flags(argc, argv, {"steps", "seeds", "fast"});
  const bool fast = flags.get_bool("fast", false);
  Stopwatch watch;
  size_t not_run = 0;
  for (PaperSpec& spec : paper_specs()) {
    campaign::GridSpec& grid = spec.grid;
    if (fast) {
      grid.base.steps = spec.fast_steps;
      grid.seeds = spec.fast_seeds;
    }
    grid.base.steps = static_cast<size_t>(
        flags.get_int("steps", static_cast<int64_t>(grid.base.steps)));
    grid.seeds = static_cast<size_t>(flags.get_int("seeds", static_cast<int64_t>(grid.seeds)));

    campaign::CampaignOptions options;
    options.out_dir = "bench_out/paper/" + spec.name;
    std::filesystem::remove_all(options.out_dir);
    const campaign::CampaignReport report = campaign::run_campaign(grid, options);

    const ExperimentConfig& b = grid.base;
    table::banner(spec.name + ": b = " + std::to_string(b.batch_size) + ", T = " +
                  std::to_string(b.steps) + ", " + std::to_string(grid.seeds) + " seeds");
    table::Printer t({"cell", "final acc", "acc std", "final loss", "min loss"});
    for (const campaign::CellArtifact& cell : report.cells) {
      if (!cell.skip_reason.empty()) {
        ++not_run;
        t.row({cell.id, cell.skip_reason});
        continue;
      }
      t.row({cell.id, strings::format_double(cell.final_acc_mean, 4),
             strings::format_double(cell.final_acc_std, 3),
             strings::format_double(cell.final_loss_mean, 4),
             strings::format_double(cell.min_loss_mean, 4)});
    }
    t.print();
  }
  std::printf("\nbench_paper: done in %.1fs; artifacts under bench_out/paper/\n",
              watch.seconds());
  if (not_run > 0) {
    std::fprintf(stderr, "bench_paper: %zu cells did not run\n", not_run);
    return 1;
  }
  return 0;
}
