// attack.hpp — Byzantine attack interface.
//
// Threat model (paper §1, §5.1): up to f workers are Byzantine and *may
// collude*; at each step all Byzantine workers submit the *same* forged
// gradient, crafted from knowledge of the honest gradients ("omniscient"
// adversary — the strongest statistically-robust setting, and the one the
// paper's two state-of-the-art attacks [3, 38] assume).
//
// Both paper attacks follow the template  byz = g_t + nu * a_t  where g_t
// approximates the true gradient (we use the mean of the honest
// gradients) and a_t is an attack direction.
//
// Hot path: the adversary reads the honest rows of the step's
// GradientBatch arena and forges its common gradient *in place* into the
// Byzantine rows (forge_into) — no per-step allocation.  The Vector-
// returning forge() is the allocating convenience wrapper.
#pragma once

#include <iosfwd>
#include <memory>
#include <span>
#include <string>

#include "math/gradient_batch.hpp"
#include "math/rng.hpp"
#include "math/vector_ops.hpp"

namespace dpbyz {

/// What the (colluding, omniscient) adversary observes at one step.
struct AttackContext {
  /// The arena whose leading `observed_rows` rows are the honest
  /// gradients the adversary bases its forgery on.  Which gradients land
  /// there is the trainer's choice (ExperimentConfig::attack_observes):
  /// by default the *clean* clipped pre-noise gradients — the Byzantine
  /// workers are data-holding participants themselves and approximate
  /// g_t / sigma_t from their own unsanitized mini-batch computations, as
  /// in the original attack papers [3, 38] — or, optionally, the noisy
  /// submissions as sent on the (cleartext, Remark 1) wire, in which case
  /// `observed` is the submission arena itself and the forged rows are
  /// written right behind the observed prefix.
  const GradientBatch& observed;
  size_t observed_rows = 0;  ///< how many leading rows are observable
  size_t num_byzantine = 0;  ///< how many copies of the forged vector will be sent
  size_t step = 0;           ///< 1-based training step t
  /// Parameter-version staleness of the observed gradients: 0 under the
  /// synchronous loop; 1 under the double-buffered round engine, where
  /// the adversary forges against the fill of round t — gradients the
  /// honest workers computed at θ_{t-2} while the server was still
  /// aggregating round t-1 (see core/pipeline.hpp).  The paper's
  /// template attacks forge relative to the observed batch and so adapt
  /// automatically; attacks that model the server's current parameters
  /// explicitly can use this to account for the lag.
  size_t staleness = 0;
  /// Thread budget for the forge's column statistics
  /// (column_moments_into): the round engine passes its resolved fill
  /// width; every width gives the same bits.  1 = the calling thread.
  size_t threads = 1;
};

/// A colluding Byzantine strategy: one forged gradient per step.
class Attack {
 public:
  virtual ~Attack() = default;

  /// Forge the common Byzantine gradient for this step into `out`
  /// (length ctx.observed.dim(); typically a Byzantine row of the
  /// submission arena).  `out` must not alias an observed row; the
  /// template attacks' column statistics (column_moments_into) throw
  /// std::invalid_argument when it does.
  virtual void forge_into(const AttackContext& ctx, Rng& rng,
                          std::span<double> out) const = 0;

  /// Allocating convenience wrapper around forge_into.
  Vector forge(const AttackContext& ctx, Rng& rng) const;

  /// Short identifier ("little", "empire", ...).
  virtual std::string name() const = 0;

  /// Checkpoint hooks for strategies with cross-round state (the adaptive
  /// adversaries' shadow-evaluation ledger and frozen factors — see
  /// attacks/adaptive.hpp).  The template attacks are pure per-round
  /// functions of the observed batch and keep these no-op defaults.
  virtual void save_state(std::ostream&) const {}
  virtual void load_state(std::istream&) {}
};

/// Factory: name in {"little", "empire", "signflip", "random", "zero",
/// "mimic"} plus the adaptive strategies of attacks/adaptive.hpp
/// ("adaptive_alie", "adaptive_empire", "adaptive_mimic", "stale_boost",
/// constructed with default AdaptiveSpec knobs here — the trainer uses
/// the spec-aware overload declared there).  `nu` is the attack factor
/// (ignored by attacks without one; NaN selects each attack's paper
/// default).
std::unique_ptr<Attack> make_attack(const std::string& name, double nu);

/// Names accepted by make_attack.
std::vector<std::string> attack_names();

}  // namespace dpbyz
