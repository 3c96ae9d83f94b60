// bench_dimension_sweep — §3's central claim measured in real training.
//
// Section 3 (general, non-convex case): at fixed batch size and privacy
// budget, the DP-noise term of the VN ratio grows like sqrt(d), so the
// larger the model, the less Byzantine resilience survives.  bench_paper's
// table1_prop1 and vn_ratio sections verify this analytically; here we
// verify it *empirically* by training one-hidden-layer MLPs of increasing
// width on the phishing-like task (d = 141 ... 8961) under the four
// standard configurations.
//
// Calibration: b = 200 and eps = 0.5 put the noise-to-signal crossover
// inside the sweep (at the paper's b = 50, eps = 0.2 the per-coordinate
// noise already equals the whole clipped gradient at d = 1).  Expected
// shape: the benign column stays flat in d (bigger models still learn
// the easy task); the DP-only column degrades slowly; the DP+attack
// column collapses as d grows — the antagonism is a function of d, as
// Propositions 1-3 predict.
//
// Flags: --steps N --seeds K --fast
#include <cstdio>
#include <vector>

#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "models/mlp_model.hpp"
#include "utils/csv.hpp"
#include "utils/flags.hpp"
#include "utils/strings.hpp"
#include "utils/table.hpp"

using namespace dpbyz;

int main(int argc, char** argv) {
  flags::Parser p(argc, argv, {"steps", "seeds", "fast"});
  size_t steps = p.get_count("steps", 600);
  size_t seeds = p.get_count("seeds", 3);
  if (p.get_bool("fast", false)) {
    steps = 200;
    seeds = 2;
  }

  // Shared data across all widths (same split as the main experiments).
  const Dataset full = make_phishing_like(PhishingLikeConfig{}, 42);
  Rng split_rng = Rng(42).derive("split");
  const auto [train, test] = full.split(8400, split_rng);

  std::printf("Dimension sweep with a non-convex model (1-hidden-layer MLP, tanh)\n");
  std::printf("b = 200, eps = 0.5, G_max = 0.1, T = %zu, %zu seeds; d = h*(68+2)+1.\n",
              steps, seeds);

  table::banner("Final accuracy vs model size d");
  table::Printer t({"hidden", "d", "benign", "little", "dp", "dp+little"});
  csv::Writer out("bench_out/dimension_sweep.csv",
                  {"hidden", "d", "benign", "little", "dp", "dp_little"});
  for (size_t hidden : {2u, 8u, 32u, 128u}) {
    const MlpModel model(train.dim(), hidden, /*init_seed=*/1);
    ExperimentConfig base;
    base.steps = steps;
    base.batch_size = 200;
    base.clip_norm = 0.1;     // MLP gradients are larger than the linear task's
    base.learning_rate = 1.0; // with the same server momentum 0.99
    auto acc = [&](const ExperimentConfig& cfg) {
      std::vector<RunResult> runs;
      for (uint64_t s = 1; s <= seeds; ++s)
        runs.push_back(Trainer(cfg.with_seed(s), model, train, test).run());
      return summarize_final_accuracy(runs).mean;
    };
    const double benign = acc(base);
    const double little = acc(base.with_attack("little"));
    const double dp = acc(base.with_dp(0.5));
    const double dp_little = acc(base.with_dp(0.5).with_attack("little"));
    t.row({std::to_string(hidden), std::to_string(model.dim()),
           strings::format_double(benign, 4), strings::format_double(little, 4),
           strings::format_double(dp, 4), strings::format_double(dp_little, 4)});
    out.row({static_cast<double>(hidden), static_cast<double>(model.dim()), benign,
             little, dp, dp_little});
  }
  t.print();
  std::printf(
      "\nReading: the benign column is flat in d while the DP columns sink as d\n"
      "grows — the empirical face of Propositions 1-3: at fixed (eps, b) the\n"
      "noise contributes sqrt(d)-worth of VN ratio, and the model pays for its\n"
      "own size.  (bench_paper's theory tables show the same crossover\n"
      "analytically.)\n");
  return 0;
}
