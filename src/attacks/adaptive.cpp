#include "attacks/adaptive.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "aggregation/krum.hpp"
#include "aggregation/mda.hpp"
#include "attacks/little_is_enough.hpp"
#include "utils/codec.hpp"
#include "utils/errors.hpp"

namespace dpbyz {

namespace {

/// (sqrt(5) - 1) / 2 — the golden-section shrink ratio.
constexpr double kGolden = 0.6180339887498949;

/// Write mean + factor * dir into `out`.
void template_row(const Vector& mean, double factor, const Vector& dir,
                  std::span<double> out) {
  vec::copy(CView(mean), out);
  vec::axpy_inplace(out, factor, CView(dir));
}

}  // namespace

// ---------------------------------------------------------------------------
// ShadowProbe

ShadowProbe::ShadowProbe(AdaptiveSpec spec) : spec_(std::move(spec)) {
  require(spec_.probes >= 1, "AdaptiveSpec: probes must be at least 1");
}

const Aggregator* ShadowProbe::shadow_for(size_t n_round, size_t f) const {
  const auto key = std::make_pair(n_round, f);
  auto it = shadows_.find(key);
  if (it == shadows_.end()) {
    std::unique_ptr<Aggregator> built;
    try {
      built = make_aggregator(spec_.gar, n_round, f);
    } catch (const std::invalid_argument&) {
      // Inadmissible (n_round, f) for the shadow rule (e.g. krum at
      // n < 2f + 3): the adversary cannot simulate the defense and falls
      // back to its fixed strategy.  Cached so the probe is paid once.
    }
    it = shadows_.emplace(key, std::move(built)).first;
  }
  return it->second.get();
}

GradientBatch& ShadowProbe::stage_candidate(const AttackContext& ctx) const {
  const size_t rows = ctx.observed_rows;
  const size_t n_round = rows + ctx.num_byzantine;
  candidate_.reshape(n_round, ctx.observed.dim());
  for (size_t i = 0; i < rows; ++i) candidate_.set_row(i, ctx.observed.row(i));
  return candidate_;
}

// ---------------------------------------------------------------------------
// AdaptiveAttack

AdaptiveAttack::AdaptiveAttack(Mode mode, double fallback_nu, AdaptiveSpec spec)
    : ShadowProbe(std::move(spec)),
      mode_(mode),
      fallback_nu_(std::isnan(fallback_nu) ? (mode == Mode::kAlie ? 1.5 : 1.1)
                                           : fallback_nu),
      last_nu_(std::nan("")) {
  require(fallback_nu_ >= 0, "AdaptiveAttack: nu must be non-negative");
}

void AdaptiveAttack::forge_into(const AttackContext& ctx, Rng&,
                                std::span<double> out) const {
  require(ctx.observed_rows > 0, "AdaptiveAttack: no honest gradients to observe");
  const size_t rows = ctx.observed_rows;
  const size_t d = ctx.observed.dim();
  mean_.resize(d);
  dir_.resize(d);
  if (mode_ == Mode::kAlie) {
    column_moments_into(ctx.observed, rows, mean_, dir_, ctx.threads);
    vec::scale_inplace(dir_, -1.0);  // a_t = -sigma_t, the ALIE direction
  } else {
    column_moments_into(ctx.observed, rows, mean_, {}, ctx.threads);
    vec::copy(CView(mean_), View(dir_));
    vec::scale_inplace(dir_, -1.0);  // a_t = -g_t, the FoE direction
  }

  // One search = 2 bracket-seeding probes + `probes` shrink iterations +
  // the paper-default guard probe.
  const size_t search_cost = spec_.probes + 3;
  const Aggregator* shadow =
      ctx.num_byzantine > 0 ? shadow_for(rows + ctx.num_byzantine, ctx.num_byzantine)
                            : nullptr;
  if (shadow == nullptr || !budget_allows(search_cost)) {
    // No shadow (inadmissible rule) or budget spent: freeze the last
    // tuned factor, or the fixed fallback before any search ran.
    const double nu = std::isnan(last_nu_) ? fallback_nu_ : last_nu_;
    last_nu_ = nu;
    template_row(mean_, nu, dir_, out);
    return;
  }

  GradientBatch& cand = stage_candidate(ctx);
  const double mean_dot_dir = vec::dot(CView(mean_), CView(dir_));
  // Damage proxy: displacement of the shadow aggregate from the honest
  // mean, projected onto the attack direction — the component that
  // accumulates as systematic bias across rounds.  Maximized.
  auto damage = [&](double nu) {
    for (size_t r = rows; r < cand.rows(); ++r) template_row(mean_, nu, dir_, cand.row(r));
    const std::span<const double> agg = shadow->aggregate(cand, ws_);
    ++evals_;
    return vec::dot(agg, CView(dir_)) - mean_dot_dir;
  };

  double best_nu = fallback_nu_;
  double best_damage = -std::numeric_limits<double>::infinity();
  auto consider = [&](double nu, double dmg) {
    // Ties prefer the smaller factor (deterministic, least conspicuous).
    if (dmg > best_damage || (dmg == best_damage && nu < best_nu)) {
      best_damage = dmg;
      best_nu = nu;
    }
  };

  double a = 0.0, b = kNuMax;
  double x1 = b - (b - a) * kGolden, x2 = a + (b - a) * kGolden;
  double f1 = damage(x1), f2 = damage(x2);
  consider(x1, f1);
  consider(x2, f2);
  for (size_t i = 0; i < spec_.probes; ++i) {
    if (f1 >= f2) {  // keep the left bracket on ties: smaller nu wins
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - (b - a) * kGolden;
      f1 = damage(x1);
      consider(x1, f1);
    } else {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + (b - a) * kGolden;
      f2 = damage(x2);
      consider(x2, f2);
    }
  }
  // Guard probe: the fixed attack's own factor is always on the candidate
  // list, so the tuned choice weakly dominates it under the proxy.
  consider(fallback_nu_, damage(fallback_nu_));

  last_nu_ = best_nu;
  template_row(mean_, best_nu, dir_, out);
}

void AdaptiveAttack::save_state(std::ostream& os) const {
  codec::put_u64(os, evals_);
  codec::put_f64(os, last_nu_);
}

void AdaptiveAttack::load_state(std::istream& is) {
  codec::Reader in(is, "AdaptiveAttack: corrupt checkpoint state");
  evals_ = in.u64();
  last_nu_ = in.f64();
}

// ---------------------------------------------------------------------------
// MimicBoundary

MimicBoundary::MimicBoundary(AdaptiveSpec spec) : ShadowProbe(std::move(spec)) {}

void MimicBoundary::save_state(std::ostream& os) const {
  codec::put_u64(os, evals_);
  codec::put_f64(os, last_alpha_);
}

void MimicBoundary::load_state(std::istream& is) {
  codec::Reader in(is, "MimicBoundary: corrupt checkpoint state");
  evals_ = in.u64();
  last_alpha_ = in.f64();
}

bool MimicBoundary::can_probe(const std::string& gar) {
  return gar == "krum" || gar == "multi-krum" || gar == "bulyan" || gar == "mda" ||
         gar == "mda_greedy";
}

bool MimicBoundary::survives(const AttackContext& ctx, double alpha) const {
  const size_t rows = ctx.observed_rows;
  const size_t f = ctx.num_byzantine;
  GradientBatch& cand = stage_candidate(ctx);
  const size_t n = cand.rows();
  for (size_t r = rows; r < n; ++r) template_row(mean_, alpha, dir_, cand.row(r));
  ++evals_;

  if (spec_.gar == "mda" || spec_.gar == "mda_greedy") {
    // Diameter probe: is a forged row a member of the minimum-diameter
    // subset?  (The forged copies are interchangeable, so membership of
    // any one of them means the forged point made the cut.)
    const Aggregator* shadow = shadow_for(n, f);
    if (const auto* mda = dynamic_cast<const Mda*>(shadow)) {
      mda->select_subset_view(cand, ws_);
    } else if (const auto* greedy = dynamic_cast<const MdaGreedy*>(shadow)) {
      greedy->select_subset_view(cand, ws_);
    } else {
      return false;  // shadow inadmissible — caller already fell back
    }
    for (size_t idx : ws_.selected)
      if (idx >= rows) return true;
    return false;
  }

  // Krum-score probe: rank the forged rows' common score against the
  // honest rows'.  Colluding copies are mutual zero-distance neighbours,
  // which is exactly the weakness this attack exposes.
  dist_.resize(n * n);
  pairwise_dist_sq(cand, dist_, /*threads=*/1);
  active_.resize(n);
  for (size_t i = 0; i < n; ++i) active_[i] = i;
  scores_.resize(n);
  krum_scores_from_matrix(dist_, n, active_, f, scores_, scratch_);
  const double byz_score = scores_[rows];
  size_t honest_below = 0;  // honest rows scoring strictly better
  for (size_t i = 0; i < rows; ++i)
    if (scores_[i] < byz_score) ++honest_below;
  if (spec_.gar == "krum") return honest_below == 0;  // the forged row wins
  // multi-krum keeps the n - f best; bulyan's iterated selection keeps
  // n - 2f (approximated by the same one-shot ranking).
  const size_t kept = spec_.gar == "multi-krum" ? n - f : n - 2 * f;
  return honest_below + f <= kept;  // all forged copies fit the kept set
}

void MimicBoundary::forge_into(const AttackContext& ctx, Rng&,
                               std::span<double> out) const {
  require(ctx.observed_rows > 0, "MimicBoundary: no honest gradients to observe");
  const size_t rows = ctx.observed_rows;
  const size_t f = ctx.num_byzantine;
  const size_t d = ctx.observed.dim();
  mean_.resize(d);
  dir_.resize(d);
  column_moments_into(ctx.observed, rows, mean_, dir_, ctx.threads);
  vec::scale_inplace(dir_, -1.0);  // offset along -sigma keeps the disguise
  if (vec::norm_sq(CView(dir_)) == 0.0) {
    // Degenerate spread (identical honest rows): any offset is instantly
    // conspicuous; pure mimicry of the mean is the boundary.
    last_alpha_ = 0.0;
    vec::copy(CView(mean_), out);
    return;
  }

  const size_t n_round = rows + f;
  const bool mda_family = spec_.gar == "mda" || spec_.gar == "mda_greedy";
  const bool probeable = f > 0 && can_probe(spec_.gar) &&
                         (!mda_family || shadow_for(n_round, f) != nullptr) &&
                         n_round > 2 * f;  // krum-rank criterion needs n > 2f
  if (!probeable) {
    // No selection boundary to probe: degrade to the topology-calibrated
    // ALIE offset (Baruch et al.'s z^max), the strongest blind disguise.
    double nu;
    try {
      nu = ALittleIsEnough::optimal_nu(n_round, f);
    } catch (const std::invalid_argument&) {
      nu = 1.5;
    }
    last_alpha_ = nu;
    template_row(mean_, nu, dir_, out);
    return;
  }

  if (!budget_allows(spec_.probes + 1)) {
    template_row(mean_, last_alpha_, dir_, out);
    return;
  }

  double alpha;
  if (survives(ctx, kAlphaMax)) {
    alpha = kAlphaMax;  // no boundary within the bracket — take it all
  } else {
    // Bisect [survives, filtered]; alpha = 0 is the mean itself, which
    // blends by construction.  The result is the largest probed offset
    // still inside the selection.
    double lo = 0.0, hi = kAlphaMax;
    for (size_t i = 0; i + 1 < spec_.probes && budget_allows(1); ++i) {
      const double mid = 0.5 * (lo + hi);
      if (survives(ctx, mid))
        lo = mid;
      else
        hi = mid;
    }
    alpha = lo;
  }
  last_alpha_ = alpha;
  template_row(mean_, alpha, dir_, out);
}

// ---------------------------------------------------------------------------
// StaleBoost

StaleBoost::StaleBoost(double nu) : nu_(std::isnan(nu) ? 1.5 : nu) {
  require(nu_ >= 0, "StaleBoost: nu must be non-negative");
}

void StaleBoost::forge_into(const AttackContext& ctx, Rng&,
                            std::span<double> out) const {
  require(ctx.observed_rows > 0, "StaleBoost: no honest gradients to observe");
  // ALIE template with the offset amplified by the parameter-version lag:
  // under bounded staleness s the defense filters gradients computed s
  // versions ago, whose spread around the *current* honest mean is wider,
  // so a proportionally larger bias still blends.  s = 0 degenerates to
  // the fixed attack exactly.
  sigma_.resize(ctx.observed.dim());
  column_moments_into(ctx.observed, ctx.observed_rows, out, sigma_, ctx.threads);
  const double amplified = nu_ * (1.0 + static_cast<double>(ctx.staleness));
  vec::axpy_inplace(out, -amplified, CView(sigma_));
}

}  // namespace dpbyz
