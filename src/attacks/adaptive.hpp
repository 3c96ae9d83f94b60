// adaptive.hpp — GAR-aware adaptive adversaries (ROADMAP item 4).
//
// The fixed template attacks (little_is_enough.hpp, fall_of_empires.hpp)
// submit  g_t + nu * a_t  at a constant, blindly chosen nu.  The paper's
// robustness story is only as strong as the best adversary actually run
// against it, so this module upgrades the omniscient colluding adversary
// of attack.hpp to one that *observes the defense*: it knows which GAR
// the server runs (gradients travel in the clear per Remark 1, and the
// aggregation rule is public system configuration), rebuilds a shadow
// copy of that rule via make_aggregator, and probes its own forgeries
// against the shadow before submitting.
//
// Three strategies:
//
//   AdaptiveAttack ("adaptive_alie" / "adaptive_empire") — re-tunes the
//     attack factor every round by a deterministic golden-section line
//     search over nu in [0, kNuMax].  Each probe forges the Byzantine
//     rows at a candidate nu, aggregates the would-be round batch with
//     the shadow GAR, and scores the damage as the displacement of the
//     shadow aggregate from the honest mean *projected onto the attack
//     direction* — the component that accumulates as systematic bias.
//     The probed paper-default nu is always included, so under the proxy
//     the tuned factor weakly dominates the fixed attack by
//     construction.
//
//   MimicBoundary ("adaptive_mimic") — forges rows *just inside* the
//     selection boundary of the server's selection GAR.  It bisects the
//     offset alpha of  mean - alpha * sigma  between "still selected"
//     and "filtered", probing survival through the same workspace APIs
//     the server uses: krum-score ranking (krum / multi-krum / bulyan)
//     or MDA subset membership (mda / mda_greedy).  Non-selection GARs
//     have no boundary to probe; the attack degrades to the
//     topology-calibrated ALIE factor (see docs/AGGREGATORS.md for the
//     per-GAR support matrix).
//
//   StaleBoost ("stale_boost") — couples the ALIE template to the round
//     engine's bounded-staleness window: the forged offset is scaled by
//     (1 + AttackContext::staleness), exploiting that under
//     pipeline_depth = k the defense filters gradients that are up to k
//     parameter versions stale, so a proportionally larger bias still
//     blends into the (wider) honest spread.  At depth 0 it degenerates
//     to the fixed ALIE attack exactly.
//
// Determinism contract: every strategy is a pure function of
// (observed batch, AttackContext, AdaptiveSpec) — no RNG draws, fixed
// iteration counts, deterministic tie-breaks (ties prefer the smaller
// factor) — so runs remain bit-reproducible per (config, seed), which
// tests/test_adaptive_attacks.cpp pins.  The shadow-evaluation budget
// (AdaptiveSpec::budget, config knob `adapt_budget`) is part of that
// function: once the budget is spent the adversary freezes its last
// tuned factor, deterministically.
#pragma once

#include <map>
#include <memory>

#include "aggregation/aggregator.hpp"
#include "attacks/attack.hpp"

namespace dpbyz {

/// What the adaptive adversary knows about the defense, plus its compute
/// knobs (ExperimentConfig::{gar, adapt_probes, adapt_budget}).
struct AdaptiveSpec {
  std::string gar = "mda";    ///< server rule to shadow (make_aggregator name)
  std::string prune = "off";  ///< read by nothing (ExperimentConfig::prune)
  size_t probes = 8;          ///< line-search / bisection iterations per round
  size_t budget = 0;          ///< total shadow-GAR evaluations allowed (0 = unlimited)
};

/// Shared scaffolding: the shadow aggregator cache keyed by round size
/// (partial participation changes n' round to round), the candidate
/// batch the probes forge into, and the budget ledger.
class ShadowProbe {
 public:
  explicit ShadowProbe(AdaptiveSpec spec);

  const AdaptiveSpec& spec() const { return spec_; }
  /// Shadow-GAR evaluations performed so far (test observability).
  size_t evals() const { return evals_; }

 protected:
  /// The shadow rule for an (n_round, f) pair, nullptr when the rule is
  /// inadmissible there (the caller falls back to its fixed strategy).
  const Aggregator* shadow_for(size_t n_round, size_t f) const;

  /// True while the budget allows `cost` more evaluations.
  bool budget_allows(size_t cost) const {
    return spec_.budget == 0 || evals_ + cost <= spec_.budget;
  }

  /// Copy the observed honest prefix into the candidate batch and return
  /// it sized (rows + f) x dim; rows [rows, rows+f) are left for the
  /// caller's forged copies.
  GradientBatch& stage_candidate(const AttackContext& ctx) const;

  AdaptiveSpec spec_;
  /// One attack instance serves one (single-threaded) training run, like
  /// ALittleIsEnough::sigma_; all probe state is reused scratch.
  mutable std::map<std::pair<size_t, size_t>, std::unique_ptr<Aggregator>> shadows_;
  mutable GradientBatch candidate_;
  mutable AggregatorWorkspace ws_;
  mutable size_t evals_ = 0;
};

/// Golden-section-tuned template attack (modes: ALIE sigma direction,
/// Fall-of-Empires mean direction).
class AdaptiveAttack final : public Attack, public ShadowProbe {
 public:
  enum class Mode { kAlie, kEmpire };

  /// `fallback_nu` is submitted when the shadow GAR cannot be built or
  /// the budget is spent before the first search (NaN = paper default).
  AdaptiveAttack(Mode mode, double fallback_nu, AdaptiveSpec spec);

  void forge_into(const AttackContext& ctx, Rng& rng,
                  std::span<double> out) const override;
  std::string name() const override {
    return mode_ == Mode::kAlie ? "adaptive_alie" : "adaptive_empire";
  }

  /// The factor submitted by the most recent forge_into (diagnostics).
  double last_nu() const { return last_nu_; }

  /// Checkpoint round trip: the budget ledger (evals_) and the frozen
  /// factor — the two pieces of cross-round adversary state that shape
  /// future forgeries once the budget runs dry.
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

  /// Upper end of the searched nu bracket.
  static constexpr double kNuMax = 8.0;

 private:
  Mode mode_;
  double fallback_nu_;
  mutable double last_nu_;
  mutable Vector mean_, dir_, probe_row_;
};

/// Selection-boundary mimicry (see the header comment).
class MimicBoundary final : public Attack, public ShadowProbe {
 public:
  explicit MimicBoundary(AdaptiveSpec spec);

  void forge_into(const AttackContext& ctx, Rng& rng,
                  std::span<double> out) const override;
  std::string name() const override { return "adaptive_mimic"; }

  /// The boundary offset used by the most recent forge_into.
  double last_alpha() const { return last_alpha_; }

  /// Checkpoint round trip (budget ledger + frozen offset).
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

  /// True when `gar` has a selection boundary this attack can probe.
  static bool can_probe(const std::string& gar);

  /// Upper end of the bisected offset bracket (sigma units).
  static constexpr double kAlphaMax = 16.0;

 private:
  /// Do the f forged copies at offset `alpha` survive the shadow rule's
  /// selection?  Krum family: the forged rows' krum score ranks within
  /// the kept set.  MDA family: a forged row is a member of the
  /// minimum-diameter subset.
  bool survives(const AttackContext& ctx, double alpha) const;

  mutable double last_alpha_ = 0.0;
  mutable Vector mean_, dir_;
  mutable std::vector<double> dist_, scores_, scratch_;
  mutable std::vector<size_t> active_;
};

/// Spec-aware factory overload: like make_attack(name, nu), but adaptive
/// names ("adaptive_alie", "adaptive_empire", "adaptive_mimic",
/// "stale_boost") receive the defense description and compute knobs.
/// The trainer routes every configured attack through this with the
/// run's ExperimentConfig-derived spec; the two-argument overload uses
/// AdaptiveSpec's defaults.
std::unique_ptr<Attack> make_attack(const std::string& name, double nu,
                                    const AdaptiveSpec& spec);

/// Staleness-coupled ALIE (see the header comment).  No shadow GAR: the
/// amplification is a pure function of AttackContext::staleness.
class StaleBoost final : public Attack {
 public:
  /// `nu` is the base factor at staleness 0 (NaN = ALIE's 1.5).
  explicit StaleBoost(double nu);

  void forge_into(const AttackContext& ctx, Rng& rng,
                  std::span<double> out) const override;
  std::string name() const override { return "stale_boost"; }
  double nu() const { return nu_; }

 private:
  double nu_;
  mutable Vector sigma_;
};

}  // namespace dpbyz
