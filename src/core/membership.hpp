// membership.hpp — first-class membership epochs (ROADMAP item 5).
//
// The paper states its guarantees for a fixed committee: n workers, f
// Byzantine, both construction-time constants wired through config →
// server → round engine → aggregator factory.  A production deployment
// has neither: workers join and leave mid-training.  This module makes
// membership a first-class, epoch-granular abstraction:
//
//   * MembershipView — the live roster (admitted honest workers +
//     quarantined auditionees, as pool ids) plus the epoch's negotiated
//     Byzantine budget f_e.  Everything downstream (ParticipationSchedule
//     draws, the round engine's fills, the per-(n', f) GAR cache, the
//     adaptive attacks' shadow rules) reads this view instead of a fixed
//     honest_count.
//
//   * MembershipManager — advances epochs at round boundaries
//     (t % churn_epoch_rounds == 0).  Each boundary consumes a
//     deterministic, seeded churn trace of join/leave events drawn from
//     `churn_seed` (one join draw per boundary; one leave draw and one
//     discarded draw per active worker, ascending pool id — the draw
//     count is fixed per roster so the stream replays exactly), runs the
//     reputation gate (core/reputation.hpp) for admissions/evictions,
//     and renegotiates the budget:
//
//         f_e = min(f0, floor(h_e * f0 / h0))
//
//     where h_e is the admitted-roster size and (h0, f0) the initial
//     pair — the configured Byzantine *ratio* is the invariant carried
//     across epochs, and the budget never exceeds the configured f.
//     Whether the renegotiated (n_e, f_e) is admissible for the
//     configured GAR is the ParameterServer's call to make
//     (ParameterServer::renegotiate throws the named error).
//
//   * Joiners are quarantined: they submit every round (shadow rows
//     behind the aggregated prefix — audited, never aggregated) and
//     become active only after >= kQuarantineEpochs epochs with a
//     reputation score >= ReputationBook::kAdmit.  Active workers below
//     ReputationBook::kEvict are evicted at the next boundary.  A pool
//     slot is used at most once (left/evicted workers never return).
//
// Determinism contract: the applied event trace (RunResult::churn_trace)
// and the whole trajectory are pure functions of (config, seed,
// churn_seed) — replaying the same triple reproduces both bit-for-bit,
// including across a checkpoint kill-and-restore (save/load round-trips
// the roster, the epoch, the churn RNG and the trace exactly).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "core/config.hpp"
#include "core/reputation.hpp"
#include "math/rng.hpp"

namespace dpbyz {

/// Lifecycle of one pool slot.  kUnborn slots are future joiners; the
/// terminal states (kLeft, kEvicted) are absorbing.  The values are
/// checkpoint words: 4 was the retired crashed state and stays unused.
enum class WorkerState : uint8_t {
  kUnborn = 0, kQuarantined = 1, kActive = 2, kLeft = 3, kEvicted = 5
};

/// One applied membership event, recorded in epoch order.
struct ChurnEvent {
  /// Checkpoint words: 2 was the retired crash event and stays unused.
  enum class Kind : uint8_t { kJoin = 0, kLeave = 1, kAdmit = 3, kEvict = 4 };
  uint32_t epoch = 0;  ///< 1-based epoch the event opened
  Kind kind = Kind::kJoin;
  uint32_t worker = 0;  ///< pool id
  friend bool operator==(const ChurnEvent&, const ChurnEvent&) = default;
};

/// Printable event kind ("join", "leave", ...).
const char* churn_kind_name(ChurnEvent::Kind kind);

/// The roster one epoch trains against.
struct MembershipView {
  size_t epoch = 0;                   ///< 0-based epoch index
  std::vector<uint32_t> active;       ///< admitted honest workers, ascending
  std::vector<uint32_t> quarantined;  ///< auditioned joiners, ascending
  size_t byzantine = 0;               ///< negotiated budget f_e

  /// The epoch's full-round size under the budget (rows + f_e).
  size_t n() const { return active.size() + byzantine; }
};

class MembershipManager {
 public:
  /// Minimum epochs a joiner is audited in quarantine before admission.
  static constexpr size_t kQuarantineEpochs = 1;

  /// `initial_honest` workers start active (pool ids [0, initial_honest));
  /// the remaining pool slots up to pool_size_for() are future joiners.
  /// `churn_rng` feeds the event draws (derive it from churn_seed).
  MembershipManager(const ExperimentConfig& config, size_t initial_honest,
                    Rng churn_rng);

  /// Worker slots a run of `config` can ever see: the initial roster
  /// plus one candidate joiner per epoch boundary.  The trainer sizes
  /// its worker vector — and every per-worker RNG stream — off this, so
  /// join events never construct state mid-run.
  static size_t pool_size_for(const ExperimentConfig& config, size_t initial_honest);

  size_t pool_size() const { return states_.size(); }
  size_t epoch_rounds() const { return epoch_rounds_; }
  /// True when round t is an epoch boundary (advance after aggregating it).
  bool is_boundary(size_t t) const { return t % epoch_rounds_ == 0; }

  const MembershipView& view() const { return view_; }
  WorkerState state(uint32_t worker) const { return states_[worker]; }

  /// Advance past boundary round t into the next epoch: draw and apply
  /// the churn events, admit/evict through `rep`, renegotiate f.  Throws
  /// std::runtime_error naming the epoch when churn leaves no active
  /// honest worker (training cannot continue without one).
  void advance(size_t t, ReputationBook& rep);

  /// Every applied event so far, in application order.
  const std::vector<ChurnEvent>& trace() const { return trace_; }

  /// Checkpoint round trip: roster states, epoch, churn RNG and trace.
  /// load() rejects by name a state or event kind outside its enum and
  /// an event worker id outside the pool (std::invalid_argument).
  void save(std::ostream& os) const;
  void load(std::istream& is);

 private:
  void rebuild_view();

  size_t epoch_rounds_ = 1;
  double join_prob_ = 0.0;
  double leave_prob_ = 0.0;
  size_t f0_ = 0;  ///< configured Byzantine budget (the cap)
  size_t h0_ = 1;  ///< initial admitted roster size (the ratio anchor)

  Rng rng_;
  std::vector<WorkerState> states_;
  std::vector<uint32_t> joined_epoch_;  ///< epoch each slot joined (0 = initial)
  size_t next_join_ = 0;                ///< lowest kUnborn pool slot
  size_t epoch_ = 0;
  MembershipView view_;
  std::vector<ChurnEvent> trace_;
};

}  // namespace dpbyz
