// pipeline.hpp — the k-slot asynchronous round engine.
//
// The paper's loop is round-synchronous: step t blocks on all n workers
// submitting before the GAR runs.  This subsystem is the layer between
// the trainer and the server that removes that barrier without giving up
// determinism:
//
//   * Ring buffering.  The engine owns a ring of pipeline_depth + 1
//     slots, each a {GradientBatch arena, θ-snapshot} pair; round t
//     lives in slot t mod (depth + 1).  While the server aggregates
//     round t out of its slot, a dedicated fill thread produces rounds
//     t+1 .. t+depth into the others — honest worker pipelines
//     (dispatched on ThreadPool::shared() when ExperimentConfig::threads
//     resolves above 1) plus the attack's forgery, each against the
//     stale snapshot its round was dispatched with.  That is bounded-staleness-k SGD:
//     round t's gradients are computed at θ_{max(0, t-1-k)}, so an
//     aggregation stall of up to k rounds never idles the fill agent.
//     Depth 1 degenerates to the classic double buffer.
//
//   * Determinism.  Rounds are filled strictly in order by a single fill
//     agent, every RNG stream (worker sampling/noise, attack, dropout,
//     participation) is consumed only by that agent, workers write
//     disjoint arena rows, and the loss reduction runs in worker-index
//     order — so the trajectory depends on (config, seed, depth) only,
//     never on timing or on `threads` (bit-equality across thread widths
//     is pinned per depth by tests/test_pipeline_ring.cpp under TSAN).
//
//   * Per-round participation.  A ParticipationSchedule decides which
//     honest workers deliver each round; live submissions are compacted
//     into the slot's leading rows (stable: worker-index order —
//     workers write their row directly at its compacted position, so the
//     compaction copies nothing), Byzantine forgeries follow, and the
//     round aggregates a GradientBatch::view of that live prefix.  The
//     (n', f) budget is revalidated against the GAR's own admissibility
//     by constructing the rule at (n', f) the first time each n' occurs
//     (cached; std::invalid_argument propagates for inadmissible rounds).
//
// Depth semantics (ExperimentConfig::pipeline_depth = k):
//   depth 0 — fill and aggregate run back to back on the caller's
//             thread, in exactly the order of the synchronous trainer
//             loop; with full participation the trajectory is
//             bit-identical to it (golden-tested).
//   depth k — up to k fills run ahead on the fill thread.  Rounds
//             1 .. k+1 fill at θ_0 (the prologue: nothing newer exists
//             when they are dispatched), round t > k+1 at θ_{t-1-k}.
//             k = 1 reproduces the PR-4 double buffer bit-for-bit.
//
// Steady-state allocation budget: zero.  The k+1 arenas, the snapshots,
// the clean-observation arena and the per-n' GAR cache all warm up once;
// the handshake is two counters under a mutex.
#pragma once

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "attacks/attack.hpp"
#include "core/config.hpp"
#include "core/membership.hpp"
#include "core/server.hpp"
#include "core/worker.hpp"
#include "math/gradient_batch.hpp"
#include "math/rng.hpp"
#include "net/channel.hpp"

namespace dpbyz {

/// Deterministic per-round live-set generator over the honest workers.
/// Byzantine workers always deliver (an adversary does not miss its
/// slot), so the schedule only ever excludes honest rows.  Guarantees at
/// least one live honest worker per round: a round whose draw would
/// leave nobody live forces the lowest-index worker back in (documented
/// floor — an SGD round with zero honest gradients has no trajectory
/// semantics worth defining).
class ParticipationSchedule {
 public:
  /// `honest_count` is the most honest workers any round's mask can
  /// cover (the worker-pool size under membership epochs); `rng` feeds
  /// the "iid" draws (unused by the other kinds).
  ParticipationSchedule(const ExperimentConfig& config, size_t honest_count, Rng rng);

  /// Fill `live[i] = 1` iff the i-th of this round's `count` honest
  /// roster members delivers in (1-based) round t, and return the live
  /// count.  `count` is the epoch's active roster size (constant ==
  /// honest_count() without membership epochs).  Rounds must be queried
  /// in order (t = 1, 2, ...): the iid kind consumes one Bernoulli draw
  /// per roster member per round, in roster order.
  size_t live_round(size_t t, size_t count, std::vector<uint8_t>& live);

  size_t honest_count() const { return honest_count_; }

  /// Checkpoint round trip of the draw stream (the iid kind's RNG; the
  /// other kinds are pure functions of t).
  void save(std::ostream& os) const { rng_.save(os); }
  void load(std::istream& is) { rng_.load(is); }

 private:
  enum class Kind { kFull, kIid, kStragglers };
  Kind kind_;
  size_t honest_count_;
  double prob_ = 1.0;
  size_t num_stragglers_ = 0;
  size_t period_ = 1;
  Rng rng_;
};

/// The round engine.  One instance drives one training run: the trainer
/// constructs it around its workers/attack/server and then consumes
/// rounds in order.  Not reusable across runs and not thread-safe from
/// the caller's side — exactly one thread may call acquire().
class RoundPipeline {
 public:
  /// One produced round, valid from acquire() until the next acquire().
  struct Round {
    /// Read-only view of the live prefix: rows [0, live_honest) are the
    /// compacted honest submissions, rows [live_honest, rows) the
    /// Byzantine forgeries.
    GradientBatch batch_view;
    size_t rows = 0;         ///< n' — rows to aggregate
    size_t live_honest = 0;  ///< honest rows delivered this round
    double loss_sum = 0.0;   ///< Σ live workers' batch losses (index order)
    /// The GAR tolerance this round aggregates under: the epoch's
    /// renegotiated f_e under membership epochs, config.num_byzantine
    /// otherwise.  Feed it to aggregator_for alongside `rows`.
    size_t f_budget = 0;
    /// Quarantined auditionees' rows, appended behind the aggregated
    /// prefix (rows [rows, rows + shadow_rows) of the slot arena) —
    /// audited by the ReputationBook, never aggregated.  Zero without
    /// membership epochs.
    size_t shadow_rows = 0;
    /// View of those shadow rows (empty-rowed when shadow_rows == 0).
    GradientBatch shadow_view;
    /// Pool ids behind the compacted rows: live_ids[k] submitted row k,
    /// shadow_ids[q] submitted shadow row q.  Empty without membership
    /// epochs (rows are worker indices there).
    std::span<const uint32_t> live_ids;
    std::span<const uint32_t> shadow_ids;
    /// Parameter-version staleness of this round's gradients:
    /// min(t - 1, pipeline_depth), capped further by any epoch/checkpoint
    /// barrier the dispatch could not cross.
    size_t staleness = 0;
    /// Seconds the caller was blocked waiting for this round's fill —
    /// the whole fill at depth 0, only the non-overlapped remainder of
    /// *this round's own* fill at depth >= 1 (every earlier round's fill
    /// finished before the previous acquire returned).  Feeds the
    /// Metrics "fill" phase; summing it with aggregate/apply stays <=
    /// the run's wall-clock at every depth.
    double fill_wait_seconds = 0.0;
    /// Seconds the fill agent actually spent producing this round
    /// (blocked or overlapped alike) — the Metrics "fill_busy" phase.
    /// fill_busy − fill is the overlap the ring bought this round.
    double fill_busy_seconds = 0.0;
  };

  /// Keeps references; caller owns lifetimes (workers/attack must
  /// outlive the pipeline).  `attack` may be null (no forgery rows).
  /// `byzantine_rows` is the f forged copies appended per round (0 when
  /// the attack is disabled).  `observe_clean` selects the adversary's
  /// observation point exactly as in the synchronous loop: true keeps a
  /// second arena of pre-noise gradients (the trainer asks for it only
  /// when the mechanism adds noise), false forges against the
  /// submission prefix.  The forge runs at the fill width
  /// (AttackContext::threads).  RNG streams
  /// move in: the engine is their sole consumer from here on.
  /// `full_rows_gar`, when non-null, seeds the per-(n', f) rule cache
  /// for full rounds (rows == honest + byzantine) so the caller's
  /// existing (n, f) instance — typically the server's — is reused
  /// instead of constructed a second time; it must outlive the pipeline.
  /// `membership`, when non-null, makes rounds draw their roster from
  /// the manager's current view: `honest` is then the whole worker pool
  /// (MembershipManager::pool_size slots), live draws cover the epoch's
  /// active roster, quarantined auditionees submit shadow rows, and
  /// epoch boundaries act as dispatch barriers (see acquire).  The
  /// caller advances the manager between acquires only at boundaries —
  /// the fill agent is provably idle there.
  RoundPipeline(const ExperimentConfig& config, std::vector<HonestWorker>& honest,
                const Attack* attack, size_t byzantine_rows, bool observe_clean,
                size_t dim, Rng attack_rng, Rng dropout_rng,
                ParticipationSchedule schedule,
                const Aggregator* full_rows_gar = nullptr,
                const MembershipManager* membership = nullptr);

  /// Joins the fill thread (any in-flight fill completes first).
  ~RoundPipeline();

  RoundPipeline(const RoundPipeline&) = delete;
  RoundPipeline& operator=(const RoundPipeline&) = delete;

  /// Produce round t (1-based; must be called with t = 1, 2, ... in
  /// order).  `w` is the server's current parameters θ_{t-1}.
  ///
  /// Depth 0: fills round t at `w` synchronously and returns it.
  /// Depth k: dispatches every not-yet-dispatched round up to
  /// min(t + k, barrier_cap(t)) against `w` (they all see θ_{t-1}; at
  /// t = 1 this is the prologue filling 1..k+1 at θ_0), blocks until the
  /// fill of round t completes, and returns it — the caller aggregates
  /// while the fill thread works ahead.  barrier_cap stops dispatch at
  /// the next epoch/checkpoint boundary: the fill agent is idle when the
  /// caller finishes aggregating a boundary round, so membership can
  /// advance and RNG streams can be checkpointed there, and the next
  /// acquire refills the ring prologue-style at the post-boundary state.
  /// The returned Round stays valid until the next acquire().
  const Round& acquire(size_t t, const Vector& w);

  /// The aggregation rule for a round of `rows` rows tolerating `f`:
  /// the first occurrence of each (n', f) constructs the configured GAR
  /// through make_round_aggregator (the hierarchical tree when
  /// config.tree_levels >= 1) at (n', f) —
  /// throwing std::invalid_argument when that round budget is
  /// inadmissible — and caches it.  With full participation every round
  /// reuses the single (n, f) instance.
  const Aggregator& aggregator_for(size_t rows, size_t f);

  /// Register an externally owned rule for (rows, f) — the server's
  /// renegotiated epoch instance — so full rounds of the new epoch reuse
  /// it.  No-op when the pair is already cached; `gar` must outlive the
  /// pipeline.
  void adopt_rule(size_t rows, size_t f, const Aggregator* gar);

  /// Checkpoint restore: resume the ring as if rounds 1..t had already
  /// been acquired (the next acquire must be t + 1).  Call before any
  /// acquire, after load_stream_state.
  void start_from(size_t t);

  /// Checkpoint round trip of the fill-side RNG streams (attack,
  /// dropout, participation).  Call only while the fill agent is idle —
  /// at a barrier, or before the first acquire.
  void save_stream_state(std::ostream& os) const;
  void load_stream_state(std::istream& is);

  /// Accumulates the channel counters of every tree rule this engine
  /// constructed (no-op otherwise).  Call only after the final acquire —
  /// the counters are written by the rounds that run the rules.
  void add_channel_stats(net::ChannelStats& out) const;

  /// Total rounds this run will consume (== config.steps); acquire(t)
  /// skips dispatching the successor fill when t + depth() exceeds it.
  size_t total_rounds() const { return config_.steps; }

  size_t depth() const { return config_.pipeline_depth; }

 private:
  /// One ring slot: an n×d arena plus the parameter snapshot its fill
  /// ran against and the fill's per-round results.
  struct Slot {
    GradientBatch batch;  ///< rows [0, rows) are the round
    Vector params;        ///< θ snapshot the fill ran against
    /// Which θ version `params` is (written at dispatch: the acquiring
    /// round minus one).  staleness = t - 1 - param_version.
    size_t param_version = 0;
    size_t rows = 0;
    size_t live_honest = 0;
    size_t f_budget = 0;
    size_t shadow_rows = 0;
    double loss_sum = 0.0;
    double fill_busy_seconds = 0.0;  ///< written by the fill agent
    /// Pool ids behind the compacted/shadow rows (membership runs only);
    /// per-slot so the fill agent can write round t+k's while the caller
    /// reads round t's.
    std::vector<uint32_t> live_ids;
    std::vector<uint32_t> shadow_ids;
  };

  /// Fill `slot` for round t at parameters `p`: draw the live set, run
  /// the live honest pipelines (serial, or on ThreadPool::shared() at the
  /// resolved config.threads width), forge the Byzantine rows against the
  /// stale observation, then apply §2.1 dropout zeroing.
  /// `p` is the slot's params snapshot on the depth-k fill thread; the
  /// synchronous depth-0 path passes the server's live vector directly
  /// (it is stable for the whole fill there, so no snapshot copy is
  /// paid).
  void fill_into(Slot& slot, size_t t, const Vector& p);

  void fill_thread_loop();

  Slot& slot_for(size_t t) { return slots_[t % slots_.size()]; }

  /// Highest round the ring may dispatch while the caller is at round t:
  /// the nearest epoch/checkpoint boundary >= t (fills must not cross it
  /// — the roster/streams may change there), or total_rounds() when no
  /// boundary period is active.
  size_t barrier_cap(size_t t) const;

  /// Publish rounds up to `t` as dispatched (their slots' params
  /// snapshots are already written) and wake the fill thread.
  void dispatch_through(size_t t);

  /// Block (spin, then condvar) until the fill of round t completes;
  /// rethrows any exception the fill raised.
  void wait_filled(size_t t);

  ExperimentConfig config_;
  std::vector<HonestWorker>& honest_;
  const Attack* attack_;  // null = no forgery
  size_t byzantine_rows_;
  bool observe_clean_;
  size_t dim_;
  size_t fill_threads_;  ///< resolved config.threads, forced serial when nested
  Rng attack_rng_;
  Rng dropout_rng_;
  ParticipationSchedule schedule_;
  const MembershipManager* membership_;  ///< null = fixed roster

  /// The ring: depth + 1 slots (one at depth 0), round t in slot
  /// t mod (depth + 1).  The slot round t+depth fills is the one round
  /// t−1 just vacated, so no arena is ever copied or swapped.
  std::vector<Slot> slots_;
  GradientBatch clean_;           ///< adversary's clean-observation arena
  std::vector<uint8_t> live_;     ///< schedule mask scratch
  std::vector<size_t> live_idx_;  ///< live worker indices, ascending
  Round round_;                   ///< what acquire() returns
  /// Per-(n', f) rule lookup; entries point either at caller-provided
  /// instances (the server's initial and renegotiated rules) or at rules
  /// this pipeline constructed (owned below).  Grows by at most one
  /// entry per distinct pair.
  std::map<std::pair<size_t, size_t>, const Aggregator*> gar_by_rows_;
  std::vector<std::unique_ptr<Aggregator>> owned_gars_;

  // Depth-k handshake.  Two monotone round counters replace the PR-4
  // single-fill flag: `dispatched_` is the highest round whose fill has
  // been requested (its slot's params snapshot already written),
  // `filled_` the highest round whose fill completed.  The fill thread
  // processes rounds (filled_, dispatched_] strictly in order; the
  // caller waits for filled_ >= t.  filled_ is atomic so the waiter can
  // spin on it before paying the condition-variable sleep
  // (parallel::spin_budget); both counters are published under mutex_.
  std::thread fill_thread_;
  std::mutex mutex_;
  std::condition_variable request_cv_;
  std::condition_variable done_cv_;
  bool stop_ = false;
  size_t dispatched_ = 0;
  std::atomic<size_t> filled_{0};
  std::exception_ptr fill_error_;
};

}  // namespace dpbyz
