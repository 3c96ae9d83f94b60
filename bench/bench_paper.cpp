// bench_paper — the paper's claims: its seeded sweeps as campaign grids,
// then the theory tables.
//
// Every training experiment here is a grid of (config x seeds) cells, so
// each is a named campaign::GridSpec run through campaign::run_campaign
// into bench_out/paper/<spec>/ (campaign.csv / campaign.json in the
// artifact schema; validate with scripts/check_campaign_artifacts.py).
// The directory is removed first: a bench measures the build it came
// from, and a stale manifest would replay cells an older build computed.
//
// Defaults are the paper's §5.1 setup (n = 11, f = 5, MDA, eta = 2,
// server momentum 0.99, clip 1e-2, delta = 1e-6, phishing-like task,
// d = 69).  One line per cell: final accuracy mean +/- std over seeds,
// final training loss, and the mean over seeds of each run's minimum
// training loss.
//
// The claims that are not grids of training cells follow, one function
// each; every one prints its tables and writes one CSV *file*
// bench_out/paper/<section>.csv:
//   thm1_rates          Theorem 1's rate on its Gaussian-mean construction
//   table1_prop1        Table 1's conditions and Proposition 1's threshold
//   vn_ratio            Eq. 8's VN-ratio inflation, measured
//   privacy_accounting  §2.3's composition of the per-step budget
//   gradient_inversion  §1's threat: inversion and membership inference
//
// Flags: --steps N --seeds K (override every spec; --seeds also sets
// Theorem 1's seed count) --fast (each spec's smoke-run horizon and seed
// count, and 2 seeds for Theorem 1).  Exits nonzero when a cell does not
// run, so the sweep doubles as a CI gate.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "aggregation/aggregator.hpp"
#include "aggregation/kf_table.hpp"
#include "campaign/runner.hpp"
#include "core/experiment.hpp"
#include "dp/accountant.hpp"
#include "dp/gaussian_mechanism.hpp"
#include "dp/sensitivity.hpp"
#include "privacy/gradient_inversion.hpp"
#include "privacy/membership_inference.hpp"
#include "theory/conditions.hpp"
#include "theory/vn_ratio.hpp"
#include "utils/csv.hpp"
#include "utils/flags.hpp"
#include "utils/parallel.hpp"
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

/// Specs whose one cell is the same training configuration as a cell of
/// another spec (name, cell index): it is read from that run instead of
/// trained again.  No straggler and no drop is one configuration under
/// both straggler conventions below.
const std::map<std::string, std::pair<std::string, size_t>> kSameAs{
    {"straggler_zeroed_k0", {"straggler_excluded", 0}}};

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

  // Remark 3: the incompatibility is mechanism-agnostic.  The Figure-2
  // protocol with Laplace noise calibrated for pure eps-DP, scale
  // sqrt(d) * 2 G_max / (b eps): the L1 sensitivity carries an explicit
  // sqrt(d) factor, so eps sweeps upward.  Reading: the shape matches the
  // Gaussian runs — privacy noise alone is absorbed, noise + attack is
  // not — with the collapse at *larger* eps than Gaussian because the L1
  // calibration injects sqrt(d) more noise.
  PaperSpec laplace{"laplace_eps_sweep", paper_grid(50, 800, 3, both, {0.5, 1, 2, 4, 8}),
                    300, 2};
  laplace.grid.base.mechanism = "laplace";
  specs.push_back(std::move(laplace));

  // §2.1's synchrony convention: "the parameter server considers any
  // non-received gradient to be 0".  Each honest gradient is dropped
  // with probability p per round and zero-substituted.  Reading:
  // zero-substitution is mild for this task — zeros shrink the average
  // without rotating it, and a linear classifier's accuracy only depends
  // on direction — and MDA filters the zeros outright.  The tell is the
  // DP cells: they degrade steadily with p, because fewer delivered
  // honest gradients mean less averaging over the injected noise — the
  // same mechanism behind the paper's batch-size dependence.
  for (double p : {0.0, 0.1, 0.2, 0.3, 0.45}) {
    PaperSpec spec{"dropout_" + campaign::format_metric(p),
                   paper_grid(50, 600, 3, {"none", "little"}, {0, 0.2}), 250, 2};
    spec.grid.gars = {"average", "mda"};
    spec.grid.base.dropout_prob = p;
    specs.push_back(std::move(spec));
  }

  // The round engine's participation schedule against that convention,
  // at f = 2: k stragglers (k = 0..3) miss every other round.
  // "straggler_excluded" drops them from the round — rows compacted, the
  // GAR re-instantiated at the round's (n', f) budget, admissible since
  // n' = 11 - k >= 2f + 1 — and "straggler_zeroed_k<k>" zero-substitutes
  // at the matched loss rate k / (2n).  Reading: exclusion keeps the GAR
  // honest about its population — MDA filters its f budgeted outliers
  // out of the n' gradients that actually arrived, instead of also
  // having to treat silent workers' zeros as adversarial.
  const auto straggler_spec = [](std::string name) {
    PaperSpec spec{std::move(name), paper_grid(50, 600, 3, {"none"}, {0.2}), 250, 2};
    spec.grid.base.num_byzantine = 2;
    return spec;
  };
  PaperSpec excluded = straggler_spec("straggler_excluded");
  excluded.grid.participation.clear();
  for (size_t k = 0; k <= 3; ++k) {
    PaperSpec zeroed = straggler_spec("straggler_zeroed_k" + std::to_string(k));
    zeroed.grid.base.dropout_prob =
        static_cast<double>(k) / (2.0 * static_cast<double>(zeroed.grid.base.num_workers));
    specs.push_back(std::move(zeroed));
    excluded.grid.participation.push_back("stragglers:" + std::to_string(k) + "x2");
  }
  specs.push_back(std::move(excluded));
  return specs;
}

// ---- The claims that are not grids of training cells ----------------------

// The paper's per-step budget, clip bound and batch (§5.1), as in the
// grids above.
constexpr double kEps = 0.2;
constexpr double kDelta = 1e-6;
constexpr double kGmax = 1e-2;
constexpr size_t kBatch = 50;
constexpr size_t kWorkers = 11;
const std::string kOut = "bench_out/paper/";

/// One point of Theorem 1's rate.
struct RatePoint {
  size_t d = 32;
  size_t steps = 400;
  size_t batch = 10;
  double eps = 0.5;
  friend bool operator==(const RatePoint&, const RatePoint&) = default;
};

/// One table of Theorem 1's rate: `vary` sets the swept variable of the
/// default RatePoint to each of `values`.
struct RateSweep {
  std::string title;
  std::string varied;
  std::vector<double> values;
  void (*vary)(RatePoint&, double);

  RatePoint point(size_t i) const {
    RatePoint s;
    vary(s, values[i]);
    return s;
  }
};

/// Theorem 1 (strongly convex): with any (alpha, f)-Byzantine-resilient
/// GAR and DP noise, E[Q(w_{T+1})] - Q* is Theta(d log(1/delta) /
/// (T b^2 eps^2)); without DP the same algorithm achieves O(1/T),
/// independent of d.  Trains the paper's own lower-bound construction —
/// Q(w) = 1/2 E||w - x||^2, D = N(x_bar, sigma^2/d I) — with the
/// Theorem's schedule gamma_t = 1/(lambda t), and measures the exact
/// excess loss 1/2 ||w - x_bar||^2 while sweeping each variable of the
/// rate in turn, beside the Cramér–Rao lower bound and the Eq. 12 upper
/// bound (per-worker bounds scaled by 1/n for the honest averaging of n
/// iid submissions).  Reading: in every sweep the DP column tracks the
/// Theta rate (up to the bounded constants) while the no-DP column only
/// moves with T — the curse of dimensionality is introduced by the
/// privacy noise alone.
void thm1_rates(size_t seeds) {
  constexpr double sigma = 1.0, g_max = 3.0;
  constexpr size_t workers = 4;
  table::banner("thm1_rates: Theorem 1, error Theta(d log(1/delta) / (T b^2 eps^2)); "
                "Gaussian-mean quadratic, lambda = mu = 1, gamma_t = 1/t, n = 4 honest "
                "workers, " + std::to_string(seeds) + " seeds");
  const std::vector<RateSweep> sweeps{
      {"(1) dimension sweep — DP error grows ~ linearly in d; no-DP stays flat", "d",
       {8, 16, 32, 64, 128}, [](RatePoint& s, double v) { s.d = static_cast<size_t>(v); }},
      {"(2) horizon sweep — error ~ 1/T", "T", {100, 200, 400, 800, 1600},
       [](RatePoint& s, double v) { s.steps = static_cast<size_t>(v); }},
      {"(3) batch sweep — DP error ~ 1/b^2", "b", {5, 10, 20, 40, 80},
       [](RatePoint& s, double v) { s.batch = static_cast<size_t>(v); }},
      {"(4) epsilon sweep — DP error ~ 1/eps^2", "eps", {0.1, 0.2, 0.4, 0.8},
       [](RatePoint& s, double v) { s.eps = v; }},
  };

  // The sweeps cross at the default point, so each distinct point is
  // trained once; each (point, DP on / off) pair is one task.
  std::vector<RatePoint> points;
  for (const RateSweep& sweep : sweeps)
    for (size_t i = 0; i < sweep.values.size(); ++i)
      if (std::find(points.begin(), points.end(), sweep.point(i)) == points.end())
        points.push_back(sweep.point(i));
  const std::vector<double> measured = parallel_map(2 * points.size(), [&](size_t i) {
    const RatePoint& s = points[i / 2];
    ExperimentConfig c;
    c.num_workers = workers;
    c.num_byzantine = 0;
    c.gar = "average";
    c.batch_size = s.batch;
    c.steps = s.steps;
    c.momentum = 0.0;
    c.lr_schedule = "theorem1";
    c.learning_rate = 1.0;  // 1/(lambda (1 - sin alpha)), lambda = 1
    c.clip_norm = g_max;
    c.clip_enabled = false;  // Theorem 1 *assumes* the bound; see config.hpp
    c.eval_every = s.steps;
    c.delta = kDelta;
    const QuadraticExperiment task(s.d, sigma, 42, 20000);
    return task.mean_excess_loss(i % 2 == 0 ? c.with_dp(s.eps) : c, seeds);
  });

  csv::Writer out(kOut + "thm1_rates.csv", {"d", "T", "b", "eps", "measured_dp",
                                             "measured_nodp", "lower", "upper", "rate"});
  for (const RateSweep& sweep : sweeps) {
    table::banner(sweep.title);
    table::Printer t({sweep.varied, "measured (DP)", "measured (no DP)", "CR lower/n",
                      "Eq.12 upper/n", "Theta rate"});
    for (size_t i = 0; i < sweep.values.size(); ++i) {
      const RatePoint s = sweep.point(i);
      const size_t k = static_cast<size_t>(
          std::find(points.begin(), points.end(), s) - points.begin());
      const double with_dp = measured[2 * k], without = measured[2 * k + 1];
      theory::Theorem1Params p{s.d, s.steps, s.batch, s.eps, kDelta, sigma, g_max};
      p.c = 2.0;
      const double lower = theory::theorem1_lower_bound(p) / workers;
      const double upper = theory::theorem1_upper_bound(p) / workers;
      const double rate = theory::theorem1_rate(p);
      t.row({strings::format_double(sweep.values[i], 6), strings::format_double(with_dp, 4),
             strings::format_double(without, 4), strings::format_double(lower, 4),
             strings::format_double(upper, 4), strings::format_double(rate, 4)});
      out.row({static_cast<double>(s.d), static_cast<double>(s.steps),
               static_cast<double>(s.batch), s.eps, with_dp, without, lower, upper, rate});
    }
    t.print();
  }
}

/// Table 1: per GAR, the necessary condition for the VN-ratio condition
/// (Eq. 8) to hold under (eps, delta)-DP —
///   Krum/Median/Bulyan/Meamed :  b in Omega(sqrt(n d))
///   MDA                       :  f/n in O(b / (sqrt(d) + b))
///   Phocas/Trimmed Mean       :  f/n in O(b^2 / (d + b^2))
/// — and Proposition 1, MDA's exact form: f/n <= C b / (8 sqrt(d) + C b).
/// Made concrete from the paper's d = 69 to ResNet-50's d = 25.6e6 at
/// n = 11, f = 5 (the Krum family at f = 4: Krum needs 2f + 3 <= n).
/// The empirical check evaluates the noisy VN ratio (Eq. 8) in the
/// defender's best case — zero sampling variance, the gradient at the
/// clipping bound, so the DP term alone decides — against k_MDA(11, f).
/// Reading: the last two columns of the check agree row by row, the
/// Eq. 13 predicate and Proposition 1's threshold being the same
/// condition (Appendix A); and at ResNet-50 scale the batch MDA needs is
/// impractical while essentially no Byzantine worker can be tolerated at
/// b = 50 once DP noise is injected.
void table1_prop1() {
  const size_t f = 5, f_krum = 4;
  const std::vector<size_t> dims{69, 1000, 10000, 100000, 1000000, 25600000};
  const std::vector<size_t> batches{10, 50, 100, 500, 1000, 5000};

  table::Printer min_b({"d", "mda", "krum/bulyan", "median", "meamed", "vn@b possible (mda)"});
  table::Printer tm_ph({"d", "trimmed-mean", "phocas"});
  std::vector<std::string> tau_header{"d \\ b"};
  std::vector<std::string> csv_header{"d", "min_b_mda", "min_b_krum", "min_b_median",
                                      "min_b_meamed", "tau_trimmed_mean", "tau_phocas"};
  for (size_t b : batches) {
    tau_header.push_back(std::to_string(b));
    csv_header.push_back("tau_mda_b" + std::to_string(b));
  }
  table::Printer tau(tau_header);
  csv::Writer out(kOut + "table1_prop1.csv", csv_header);
  for (size_t d : dims) {
    const double mda = theory::mda_min_batch(kWorkers, f, d, kEps, kDelta);
    const double krum = theory::krum_min_batch(kWorkers, f_krum, d, kEps, kDelta);
    const double median = theory::median_min_batch(kWorkers, d, kEps, kDelta);
    const double meamed = theory::meamed_min_batch(kWorkers, d, kEps, kDelta);
    min_b.row({std::to_string(d), strings::format_double(mda, 4),
               strings::format_double(krum, 4), strings::format_double(median, 4),
               strings::format_double(meamed, 4),
               theory::vn_condition_possible("mda", kWorkers, f, d, kBatch, kEps, kDelta)
                   ? "yes"
                   : "no"});
    const double tm = theory::trimmed_mean_max_byzantine_fraction(d, kBatch, kEps, kDelta);
    const double ph = theory::phocas_max_byzantine_fraction(d, kBatch, kEps, kDelta);
    tm_ph.row({std::to_string(d), strings::format_double(tm, 4), strings::format_double(ph, 4)});
    std::vector<std::string> tau_row{std::to_string(d)};
    std::vector<double> csv_row{static_cast<double>(d), mda, krum, median, meamed, tm, ph};
    for (size_t b : batches) {
      const double t = theory::mda_max_byzantine_fraction(d, b, kEps, kDelta);
      tau_row.push_back(strings::format_double(t, 4));
      csv_row.push_back(t);
    }
    tau.row(std::move(tau_row));
    out.row(csv_row);
  }
  table::banner("table1_prop1: eps = 0.2, delta = 1e-06, n = 11, f = 5 (Krum family f = 4), "
                "b = 50; C = eps / sqrt(log(1.25/delta)) = " +
                strings::format_double(theory::dp_constant(kEps, kDelta), 4));
  table::banner("Minimum batch size for the VN condition to be satisfiable");
  min_b.print();
  table::banner("Maximum Byzantine fraction tau = f/n of MDA, C b / (8 sqrt(d) + C b)");
  tau.print();
  table::banner("Maximum Byzantine fraction tau = f/n at b = 50");
  tm_ph.print();

  table::banner("Empirical check: best-case noisy VN ratio vs k_MDA(11, f)");
  table::Printer check({"d", "b", "f", "tau", "VN(noise-only)", "k_MDA", "cond holds",
                        "prop1 allows"});
  for (size_t d : {69u, 10000u})
    for (size_t b : {50u, 1000u, 5000u})
      for (size_t f_check : {1u, 3u, 5u}) {
        const double vn = theory::noisy_vn_ratio(0.0, kGmax, d, kGmax, b, kEps, kDelta);
        const double k = kf::mda(kWorkers, f_check);
        const double tau_f = static_cast<double>(f_check) / static_cast<double>(kWorkers);
        const double tau_max = theory::mda_max_byzantine_fraction(d, b, kEps, kDelta);
        check.row({std::to_string(d), std::to_string(b), std::to_string(f_check),
                   strings::format_double(tau_f, 3), strings::format_double(vn, 3),
                   strings::format_double(k, 3), vn <= k ? "yes" : "no",
                   tau_f <= tau_max ? "yes" : "no"});
      }
  check.print();
  std::printf(
      "\nResNet-50 (d = 25.6e6): MDA needs b > %.0f with exact constants; the paper's\n"
      "\"b > 5000\" quotes the order-of-magnitude floor b ~ sqrt(d) = %.0f.  tau_max\n"
      "at b = %zu is %.2e.\n",
      theory::mda_min_batch(kWorkers, f, 25'600'000, kEps, kDelta), std::sqrt(25.6e6), kBatch,
      theory::mda_max_byzantine_fraction(25'600'000, kBatch, kEps, kDelta));
}

/// Eq. (8) adds the DP-noise variance 8 d G^2 log(1.25/delta) / (eps b)^2
/// to the VN-ratio numerator.  Measures the honest gradient distribution
/// of the phishing-like task by Monte-Carlo at the zero-initialized
/// model, where training starts, across batch sizes, beside each GAR's
/// k_F(n, f).  Reading: the measured noisy ratios match Eq. 8 within
/// Monte-Carlo error, and at b = 50 the noisy ratio towers over every
/// k_F — the VN sufficient condition cannot certify any GAR once the
/// paper's DP noise is injected.
void vn_ratio(const PhishingExperiment& exp) {
  constexpr size_t samples = 2000;
  const auto& model = exp.model();
  const Vector w0 = model.initial_parameters();
  table::banner("vn_ratio: Eq. 8 measured vs predicted at w = 0 (d = " +
                std::to_string(model.dim()) + ", eps = 0.2, delta = 1e-6, G_max = 1e-2, " +
                std::to_string(samples) + " Monte-Carlo samples per cell)");
  table::Printer t({"b", "clean ratio", "noisy ratio (measured)", "noisy ratio (Eq. 8)",
                    "rel err"});
  csv::Writer out(kOut + "vn_ratio.csv", {"b", "clean", "noisy_measured", "noisy_predicted"});
  const std::vector<size_t> batches{10, 50, 100, 500, 1000, 2000};
  // The clean and the noisy estimate of each batch size draw from their
  // own seeded streams: one task each.
  const std::vector<theory::VnEstimate> est = parallel_map(2 * batches.size(), [&](size_t i) {
    const size_t b = batches[i / 2];
    if (i % 2 == 0) {
      Rng rng(100 + b);
      return theory::estimate_vn_ratio(model, exp.train(), w0, b, kGmax, NoNoise(), samples,
                                       rng);
    }
    Rng rng(200 + b);
    const auto mech = GaussianMechanism::for_clipped_gradients(kEps, kDelta, kGmax, b);
    return theory::estimate_vn_ratio(model, exp.train(), w0, b, kGmax, mech, samples, rng);
  });
  for (size_t i = 0; i < batches.size(); ++i) {
    const size_t b = batches[i];
    const theory::VnEstimate& clean = est[2 * i];
    const theory::VnEstimate& noisy = est[2 * i + 1];
    const double predicted = theory::noisy_vn_ratio(clean.variance, clean.mean_norm,
                                                    model.dim(), kGmax, b, kEps, kDelta);
    t.row({std::to_string(b), strings::format_double(clean.ratio, 4),
           strings::format_double(noisy.ratio, 4), strings::format_double(predicted, 4),
           strings::format_double(std::abs(noisy.ratio - predicted) / predicted, 3)});
    out.row({static_cast<double>(b), clean.ratio, noisy.ratio, predicted});
  }
  t.print();

  table::banner("k_F(n, f) thresholds at the paper's topology");
  table::Printer kt({"GAR", "(n, f)", "k_F"});
  for (const auto& [name, f] : std::vector<std::pair<std::string, size_t>>{
           {"mda", 5}, {"median", 5}, {"meamed", 5}, {"trimmed-mean", 5}, {"phocas", 5},
           {"krum", 4}, {"bulyan", 2}}) {
    // Built up with += (a `const char* + std::string&&` chain trips a
    // gcc-12 -Wrestrict false positive under -O3).
    std::string topology = "(11, ";
    topology += std::to_string(f);
    topology += ")";
    kt.row({name, topology,
            strings::format_double(make_aggregator(name, kWorkers, f)->vn_threshold(), 4)});
  }
  kt.print();
}

/// §2.3: the paper fixes a *per-step* budget (eps, delta); the end-to-end
/// guarantee of its T = 1000-step runs follows by composition — basic,
/// advanced, or RDP (the moments-accountant analogue), totals at
/// delta' = 1e-5.  Reading: the experiments spend a large end-to-end
/// budget and the RDP accountant is several-fold tighter, matching
/// §2.3's framing: the paper studies the per-step budget's robustness
/// impact, not end-to-end privacy optimization.
void privacy_accounting() {
  constexpr size_t steps = 1000;
  constexpr double delta_total = 1e-5;  // target for the RDP conversion
  table::banner("privacy_accounting: total epsilon after T = 1000 steps (b = 50), delta' = 1e-5");
  table::Printer t({"per-step eps", "basic (T*eps)", "advanced comp.", "RDP/moments"});
  csv::Writer out(kOut + "privacy_accounting.csv", {"eps_step", "basic", "advanced", "rdp"});
  for (double eps : {0.1, 0.2, 0.35, 0.5, 0.75}) {
    const auto basic = dp::basic_composition(eps, kDelta, steps);
    const auto advanced = dp::advanced_composition(eps, kDelta, steps, delta_total);
    dp::RdpAccountant rdp(GaussianMechanism::noise_scale(eps, kDelta, kGmax, kBatch),
                          dp::l2_sensitivity(kGmax, kBatch));
    rdp.record_steps(steps);
    const double rdp_eps = rdp.epsilon_for_delta(delta_total);
    t.row({strings::format_double(eps, 3), strings::format_double(basic.epsilon, 4),
           strings::format_double(advanced.epsilon, 4), strings::format_double(rdp_eps, 4)});
    out.row({eps, basic.epsilon, advanced.epsilon, rdp_eps});
  }
  t.print();
}

/// §1's threat, which the paper's DP machinery defends against ([43]): a
/// curious server observing a clean single-sample gradient of the linear
/// model reconstructs the sample *exactly* (the gradient is dz * [x; 1]).
/// The reconstruction attack runs against gradients sanitized at b = 1
/// across the per-step eps grid, and the loss-threshold membership test
/// against models trained with and without DP.  Reading: in the clear the
/// server reconstructs samples exactly (error 0, labels 100%); at the
/// paper's eps = 0.2 the reconstruction is noise.  The membership AUC of
/// this convex task is near chance either way — the gradient channel,
/// not the final model, is the paper's threat surface.
void gradient_inversion(const PhishingExperiment& exp) {
  constexpr size_t count = 400;  // victim gradients per row
  const Vector w0(exp.model().dim(), 0.0);
  table::banner("gradient_inversion: reconstruction of " + std::to_string(count) +
                " single-sample gradients vs eps (Gaussian mechanism at b = 1, d = " +
                std::to_string(exp.model().dim()) + ", G_max = 1e-2, delta = 1e-6)");
  table::Printer t({"eps", "noise s", "mean rel. error", "label accuracy", "invertible"});
  csv::Writer out(kOut + "gradient_inversion.csv",
                  {"eps", "noise", "rel_error", "label_acc", "invertible_frac"});
  // eps = 0 stands for gradients in the clear.
  for (double eps : {0.0, 0.9, 0.5, 0.2, 0.1}) {
    const double s = eps > 0 ? GaussianMechanism::noise_scale(eps, kDelta, kGmax, 1) : 0.0;
    const auto r = privacy::attack_linear_model(exp.train(), w0, s, count, 1);
    const double invertible =
        static_cast<double>(r.invertible) / static_cast<double>(r.attempted);
    t.row({eps > 0 ? strings::format_double(eps, 3) : "inf (clear)",
           strings::format_double(s, 4), strings::format_double(r.mean_relative_error, 4),
           strings::format_double(r.label_accuracy, 4), strings::format_double(invertible, 3)});
    out.row({eps, s, r.mean_relative_error, r.label_accuracy, invertible});
  }
  t.print();

  table::banner("Membership inference against trained models (loss threshold, T = 500)");
  table::Printer mi({"training", "AUC", "best accuracy", "member loss", "non-member loss"});
  ExperimentConfig cfg;
  cfg.steps = 500;
  for (const bool dp : {false, true}) {
    const RunResult run = exp.run(dp ? cfg.with_dp(kEps) : cfg);
    const auto report = privacy::membership_inference(exp.model(), run.final_parameters,
                                                      exp.train(), exp.test(), 2000);
    mi.row({dp ? "with (0.2, 1e-6)-DP" : "no DP", strings::format_double(report.auc, 4),
            strings::format_double(report.best_accuracy, 4),
            strings::format_double(report.member_mean_loss, 5),
            strings::format_double(report.non_member_mean_loss, 5)});
  }
  mi.print();
}

/// The artifact of `spec`'s one cell, taken from `trained` — the cell
/// of another spec with the same training configuration — under
/// `spec`'s own coordinates, and written to `dir` as run_campaign would.
campaign::CellArtifact reuse_cell(const PaperSpec& spec, campaign::CellArtifact trained,
                                  const std::string& dir) {
  const campaign::GridCell own = campaign::expand_grid(spec.grid).at(0);
  trained.cell = own.index;
  trained.id = own.id;
  trained.participation = own.participation;
  std::filesystem::create_directories(dir);
  campaign::write_csv(dir + "/campaign.csv", {&trained, 1});
  campaign::write_json(dir + "/campaign.json", spec.grid.signature(), {&trained, 1});
  return trained;
}

}  // namespace

int main(int argc, char** argv) {
  flags::Parser flags(argc, argv, {"steps", "seeds", "fast"});
  const bool fast = flags.get_bool("fast", false);
  Stopwatch watch;
  std::vector<PaperSpec> specs = paper_specs();
  std::map<std::string, std::vector<campaign::CellArtifact>> cells_of;
  for (PaperSpec& spec : specs) {
    campaign::GridSpec& grid = spec.grid;
    if (fast) {
      grid.base.steps = spec.fast_steps;
      grid.seeds = spec.fast_seeds;
    }
    grid.base.steps = flags.get_count("steps", grid.base.steps);
    grid.seeds = flags.get_count("seeds", grid.seeds);
    std::filesystem::remove_all(kOut + spec.name);
    if (kSameAs.count(spec.name)) continue;
    campaign::CampaignOptions options;
    options.out_dir = kOut + spec.name;
    cells_of[spec.name] = campaign::run_campaign(grid, options).cells;
  }

  size_t not_run = 0;
  for (const PaperSpec& spec : specs) {
    if (const auto same = kSameAs.find(spec.name); same != kSameAs.end())
      cells_of[spec.name] = {reuse_cell(
          spec, cells_of.at(same->second.first).at(same->second.second), kOut + spec.name)};
    const campaign::GridSpec& grid = spec.grid;
    const ExperimentConfig& b = grid.base;
    table::banner(spec.name + ": b = " + std::to_string(b.batch_size) + ", T = " +
                  std::to_string(b.steps) + ", " + std::to_string(grid.seeds) + " seeds");
    table::Printer t({"cell", "final acc", "acc std", "final loss", "min loss"});
    for (const campaign::CellArtifact& cell : cells_of.at(spec.name)) {
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

  thm1_rates(flags.get_count("seeds", fast ? 2 : 5));
  table1_prop1();
  const PhishingExperiment exp(42);
  vn_ratio(exp);
  privacy_accounting();
  gradient_inversion(exp);

  std::printf("\nbench_paper: done in %.1fs; artifacts under bench_out/paper/\n",
              watch.seconds());
  if (not_run > 0) {
    std::fprintf(stderr, "bench_paper: %zu cells did not run\n", not_run);
    return 1;
  }
  return 0;
}
