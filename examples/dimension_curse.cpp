// dimension_curse — Theorem 1, hands-on.
//
// Pick a model size d, a horizon T, a batch size b and a privacy budget;
// the example trains the strongly-convex Gaussian-mean task with and
// without DP noise, prints the measured excess loss next to the paper's
// Cramér–Rao lower bound and Eq. 12 upper bound, and reports how many
// extra steps (or batch) the DP run would need to match the noise-free
// error — the "price of privacy" in concrete units.
//
// Usage:
//   dimension_curse                     # defaults: d=32 T=400 b=10 eps=0.5
//   dimension_curse --d 128 --eps 0.2
#include <cmath>
#include <cstdio>

#include "core/experiment.hpp"
#include "theory/conditions.hpp"
#include "utils/flags.hpp"
#include "utils/strings.hpp"

int main(int argc, char** argv) {
  using namespace dpbyz;

  flags::Parser args(argc, argv, {"d", "steps", "batch", "eps", "seeds"});
  const size_t d = args.get_count("d", 32);
  const size_t steps = args.get_count("steps", 400);
  const size_t batch = args.get_count("batch", 10);
  const double eps = args.get_double("eps", 0.5);
  const size_t seeds = args.get_count("seeds", 5);

  ExperimentConfig c;
  c.num_workers = 4;
  c.num_byzantine = 0;
  c.gar = "average";
  c.batch_size = batch;
  c.steps = steps;
  c.momentum = 0.0;
  c.lr_schedule = "theorem1";
  c.learning_rate = 1.0;   // 1/(lambda (1 - sin alpha)), lambda = 1
  c.clip_norm = 3.0;       // the assumed G_max (Assumption 1)
  c.clip_enabled = false;  // Theorem 1 assumes the bound; see config.hpp
  c.eval_every = steps;

  std::printf("Theorem 1 demo: Q(w) = 1/2 E||w - x||^2, x ~ N(x_bar, sigma^2/d I_d)\n");
  std::printf("d = %zu, T = %zu, b = %zu, eps = %s, delta = 1e-6, %zu seeds\n\n", d,
              steps, batch, strings::format_double(eps).c_str(), seeds);

  QuadraticExperiment task(d, /*sigma=*/1.0, /*data_seed=*/42, 20000);
  const double clean = task.mean_excess_loss(c, seeds);
  const double noisy = task.mean_excess_loss(c.with_dp(eps), seeds);

  theory::Theorem1Params p;
  p.d = d;
  p.steps = steps;
  p.batch_size = batch;
  p.epsilon = eps;
  p.delta = c.delta;
  p.sigma = 1.0;
  p.g_max = c.clip_norm;
  p.c = 2.0;
  const double n = static_cast<double>(c.num_workers);
  std::printf("excess loss Q(w_{T+1}) - Q*:\n");
  std::printf("  without DP : %.3e\n", clean);
  std::printf("  with DP    : %.3e   (%.0fx worse)\n", noisy, noisy / clean);
  std::printf("  CR lower/n : %.3e   Eq.12 upper/n : %.3e\n",
              theory::theorem1_lower_bound(p) / n, theory::theorem1_upper_bound(p) / n);

  // Theta rate: error ~ d/(T b^2 eps^2).  To recover the clean error the
  // DP run must scale T by the measured ratio (or b by its square root).
  const double ratio = noisy / clean;
  std::printf(
      "\nPrice of privacy at this (d, b, eps): roughly %.0fx more steps, or a\n"
      "batch ~%.0fx larger, to match the noise-free error — and the ratio grows\n"
      "linearly in d (try --d %zu).\n",
      ratio, std::sqrt(ratio), d * 4);
  return 0;
}
