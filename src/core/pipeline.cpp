#include "core/pipeline.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "aggregation/hierarchical.hpp"
#include "core/trainer.hpp"
#include "utils/errors.hpp"
#include "utils/parallel.hpp"
#include "utils/stopwatch.hpp"

namespace dpbyz {

// ---- ParticipationSchedule -------------------------------------------------

ParticipationSchedule::ParticipationSchedule(const ExperimentConfig& config,
                                             size_t honest_count, Rng rng)
    : kind_(Kind::kFull), honest_count_(honest_count), rng_(std::move(rng)) {
  require(honest_count >= 1, "ParticipationSchedule: need at least one honest worker");
  if (config.participation == "iid") {
    kind_ = Kind::kIid;
    prob_ = config.participation_prob;
  } else if (config.participation == "stragglers") {
    kind_ = Kind::kStragglers;
    num_stragglers_ = std::min(config.num_stragglers, honest_count);
    period_ = config.straggler_period;
  }
}

size_t ParticipationSchedule::live_round(size_t t, size_t roster,
                                         std::vector<uint8_t>& live) {
  require(roster >= 1 && roster <= honest_count_,
          "ParticipationSchedule: roster size out of [1, honest_count]");
  live.assign(roster, 1);
  size_t count = roster;
  switch (kind_) {
    case Kind::kFull:
      break;
    case Kind::kIid:
      // One draw per roster member per round, in roster order — the
      // stream is consumed identically at every depth/thread setting.
      for (size_t i = 0; i < roster; ++i)
        if (!rng_.bernoulli(prob_)) {
          live[i] = 0;
          --count;
        }
      break;
    case Kind::kStragglers: {
      // The last stragglers of the roster only beat the round timeout
      // every period_-th round.
      const size_t stragglers = std::min(num_stragglers_, roster);
      if (period_ > 1 && t % period_ != 0) {
        for (size_t i = roster - stragglers; i < roster; ++i) live[i] = 0;
        count -= stragglers;
      }
      break;
    }
  }
  if (count == 0) {  // documented floor: force one honest gradient
    live[0] = 1;
    count = 1;
  }
  return count;
}

// ---- RoundPipeline ---------------------------------------------------------

RoundPipeline::RoundPipeline(const ExperimentConfig& config,
                             std::vector<HonestWorker>& honest, const Attack* attack,
                             size_t byzantine_rows, bool observe_clean, size_t dim,
                             Rng attack_rng, Rng dropout_rng,
                             ParticipationSchedule schedule,
                             const Aggregator* full_rows_gar,
                             const MembershipManager* membership)
    : config_(config),
      honest_(honest),
      attack_(attack),
      byzantine_rows_(byzantine_rows),
      observe_clean_(observe_clean),
      dim_(dim),
      // A fill dispatched from inside a pool job (a seeded run inside
      // run_seeds_parallel) must not fork from its own fresh thread: the
      // pool's one-job-at-a-time submit lock is held until the *outer*
      // job drains, and the outer job is waiting on this run — a cycle.
      // The depth-0 path is safe as-is (ThreadPool::run detects the
      // serial context on the calling thread itself); only the depth-k
      // fill thread needs the width pinned here, where the nesting is
      // still visible.  The budget is resolved here, so threads = 0 on a
      // 1-CPU host runs the serial loop rather than a 2-wide pool job.
      fill_threads_(ThreadPool::in_serial_context() ? 1
                                                    : resolve_threads(config.threads)),
      attack_rng_(std::move(attack_rng)),
      dropout_rng_(std::move(dropout_rng)),
      schedule_(std::move(schedule)),
      membership_(membership) {
  require(schedule_.honest_count() == honest_.size(),
          "RoundPipeline: schedule sized for a different worker count");
  // Arena ceiling: with a fixed roster every row is live honest or
  // Byzantine; under membership epochs the honest vector is the whole
  // pool and a round can additionally carry every quarantined shadow row
  // — still bounded by pool + f since the rosters are disjoint.
  const size_t n = honest_.size() + byzantine_rows_;
  if (full_rows_gar != nullptr) {
    // Seed the cache with the caller's full-round rule at the *initial*
    // budget: the whole fixed roster, or epoch 0's (h_0 + delivered f_0).
    const size_t full_rows =
        membership_ == nullptr
            ? n
            : membership_->view().active.size() +
                  (byzantine_rows_ > 0 ? membership_->view().byzantine : 0);
    gar_by_rows_.emplace(std::make_pair(full_rows, config_.num_byzantine),
                         full_rows_gar);
  }
  slots_.resize(config_.pipeline_depth + 1);  // one slot at depth 0
  for (Slot& slot : slots_) {
    slot.batch.reshape(n, dim_);
    slot.params.reserve(dim_);
    if (membership_ != nullptr) {
      slot.live_ids.reserve(honest_.size());
      slot.shadow_ids.reserve(honest_.size());
    }
  }
  if (observe_clean_) clean_.reshape(honest_.size(), dim_);
  live_.reserve(honest_.size());
  live_idx_.reserve(honest_.size());
  if (config_.pipeline_depth > 0)
    fill_thread_ = std::thread([this] { fill_thread_loop(); });
}

RoundPipeline::~RoundPipeline() {
  if (fill_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    request_cv_.notify_one();
    fill_thread_.join();
  }
}

void RoundPipeline::fill_into(Slot& slot, size_t t, const Vector& p) {
  Stopwatch busy_watch;
  // Under membership epochs the roster is the epoch's active view (the
  // honest vector is the whole worker pool); the caller only advances the
  // manager at barrier rounds, where this fill agent is provably idle,
  // so the view is stable for the whole fill.
  const MembershipView* mv = membership_ != nullptr ? &membership_->view() : nullptr;
  const size_t roster = mv != nullptr ? mv->active.size() : honest_.size();
  const size_t live_count = schedule_.live_round(t, roster, live_);
  live_idx_.clear();
  for (size_t i = 0; i < roster; ++i)
    if (live_[i]) live_idx_.push_back(mv != nullptr ? mv->active[i] : i);

  // Live pipelines write straight into the compacted prefix: the k-th
  // live worker (ascending worker index) owns row k, so the "stable
  // compaction" is the placement itself — no row is moved afterwards.
  // Rows are disjoint and every worker owns private RNG streams and
  // buffers, so the threaded dispatch is bit-identical to the serial
  // loop (the loss reduction below runs in index order either way).
  auto submit = [&](size_t k) {
    HonestWorker& worker = honest_[live_idx_[k]];
    worker.submit_into(p, slot.batch.row(k));
    if (observe_clean_) clean_.set_row(k, worker.last_clean_gradient());
  };
  if (fill_threads_ != 1 && live_count > 1) {
    ThreadPool::shared().run(live_count, submit, fill_threads_);
  } else {
    for (size_t k = 0; k < live_count; ++k) submit(k);
  }
  double loss_sum = 0.0;
  for (size_t k = 0; k < live_count; ++k)
    loss_sum += honest_[live_idx_[k]].last_batch_loss();

  // The delivered Byzantine count: the epoch's renegotiated budget under
  // membership epochs, the configured f otherwise (0 when no attack —
  // the budget still shapes the GAR via slot.f_budget below).
  const size_t byz =
      mv != nullptr ? (byzantine_rows_ > 0 ? mv->byzantine : 0) : byzantine_rows_;

  // Quarantined auditionees submit against the same snapshot; their rows
  // sit behind the round's aggregated prefix (live + forged), audited by
  // the ReputationBook but never aggregated.  Not subject to dropout
  // zeroing: a dropped shadow row would only blur the audit.
  size_t shadow = 0;
  slot.live_ids.clear();
  slot.shadow_ids.clear();
  if (mv != nullptr) {
    slot.live_ids.assign(live_idx_.begin(), live_idx_.end());
    slot.shadow_ids.assign(mv->quarantined.begin(), mv->quarantined.end());
    shadow = slot.shadow_ids.size();
    const size_t base = live_count + byz;
    auto shadow_submit = [&](size_t q) {
      honest_[slot.shadow_ids[q]].submit_into(p, slot.batch.row(base + q));
    };
    if (fill_threads_ != 1 && shadow > 1) {
      ThreadPool::shared().run(shadow, shadow_submit, fill_threads_);
    } else {
      for (size_t q = 0; q < shadow; ++q) shadow_submit(q);
    }
  }

  // Byzantine forgery against this round's (stale, under depth k)
  // observation batch; the colluding copies sit right behind the live
  // honest prefix.  Round t's gradients were produced at the θ version
  // its dispatch snapshotted, so the lag the adversary observes is
  // t - 1 - param_version (min(t-1, k) absent barriers).
  if (attack_ != nullptr && byz > 0) {
    const size_t staleness = t - 1 - slot.param_version;
    const AttackContext ctx{observe_clean_ ? clean_ : slot.batch, live_count,
                            byz, t, staleness, fill_threads_};
    attack_->forge_into(ctx, attack_rng_, slot.batch.row(live_count));
    for (size_t r = live_count + 1; r < live_count + byz; ++r)
      vec::copy(slot.batch.row(live_count), slot.batch.row(r));
  }

  // §2.1 zero-substitution for delivered-but-lost gradients, one draw
  // per *live* honest worker in compacted order (non-participants never
  // reached the wire, so they draw nothing).
  if (config_.dropout_prob > 0.0) {
    for (size_t k = 0; k < live_count; ++k)
      if (dropout_rng_.bernoulli(config_.dropout_prob))
        vec::fill(slot.batch.row(k), 0.0);
  }

  slot.rows = live_count + byz;
  slot.live_honest = live_count;
  slot.f_budget = mv != nullptr ? mv->byzantine : config_.num_byzantine;
  slot.shadow_rows = shadow;
  slot.loss_sum = loss_sum;
  slot.fill_busy_seconds = busy_watch.seconds();
}

void RoundPipeline::dispatch_through(size_t t) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    dispatched_ = t;
  }
  request_cv_.notify_one();
}

void RoundPipeline::wait_filled(size_t t) {
  // Fill completion lands at step cadence; spin briefly before paying
  // the condvar sleep (zero budget on single-CPU hosts — see parallel).
  for (int s = 0;
       s < parallel::spin_budget() && filled_.load(std::memory_order_acquire) < t;
       ++s)
    parallel::cpu_relax();
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return filled_.load(std::memory_order_relaxed) >= t; });
  if (fill_error_) std::rethrow_exception(fill_error_);
}

void RoundPipeline::fill_thread_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    request_cv_.wait(lock, [&] {
      return stop_ || dispatched_ > filled_.load(std::memory_order_relaxed);
    });
    if (stop_) return;
    // Rounds are filled strictly in order: the next one is always
    // filled_ + 1, and its slot's params snapshot was written before the
    // dispatch that published it (mutex-ordered).
    const size_t t = filled_.load(std::memory_order_relaxed) + 1;
    lock.unlock();
    try {
      Slot& slot = slot_for(t);
      fill_into(slot, t, slot.params);
    } catch (...) {
      // Park the error, release every current and future waiter (their
      // rounds will never fill), and exit; wait_filled rethrows.
      lock.lock();
      fill_error_ = std::current_exception();
      filled_.store(dispatched_, std::memory_order_release);
      done_cv_.notify_all();
      return;
    }
    lock.lock();
    filled_.store(t, std::memory_order_release);
    done_cv_.notify_one();
  }
}

size_t RoundPipeline::barrier_cap(size_t t) const {
  size_t cap = total_rounds();
  auto clamp_to_period = [&](size_t period) {
    // Smallest multiple of `period` that is >= t.
    const size_t boundary = ((t + period - 1) / period) * period;
    cap = std::min(cap, boundary);
  };
  if (membership_ != nullptr) clamp_to_period(membership_->epoch_rounds());
  if (config_.checkpoint_every > 0) clamp_to_period(config_.checkpoint_every);
  return cap;
}

const RoundPipeline::Round& RoundPipeline::acquire(size_t t, const Vector& w) {
  Stopwatch wait_watch;
  Slot* slot;
  if (config_.pipeline_depth == 0) {
    // Synchronous: the server's vector is stable for the whole fill, so
    // it is read in place — no snapshot copy on the paper-default path.
    slot = &slots_[0];
    slot->param_version = t - 1;
    fill_into(*slot, t, w);
    round_.fill_wait_seconds = wait_watch.seconds();
  } else {
    // Dispatch every round the ring may run ahead to: up to depth k past
    // t, but never across the next epoch/checkpoint barrier.  Every
    // round dispatched here sees the caller's current θ_{t-1} — at t = 1
    // that is the prologue (rounds 1..1+k at θ_0); after a barrier B the
    // ring refills the same way at θ_B; in steady state exactly round
    // t+k is dispatched.  The newly dispatched slots are safe to write:
    // they belong to rounds the caller already consumed (t+k ≡ t-1 mod
    // k+1), and the fill agent only reads a slot after the dispatch that
    // publishes it (mutex-ordered).
    const size_t hi = std::min(t + config_.pipeline_depth, barrier_cap(t));
    if (dispatched_ < hi) {
      for (size_t r = dispatched_ + 1; r <= hi; ++r) {
        Slot& next = slot_for(r);
        next.params.assign(w.begin(), w.end());
        next.param_version = t - 1;
      }
      dispatch_through(hi);
    }
    wait_filled(t);
    round_.fill_wait_seconds = wait_watch.seconds();
    slot = &slot_for(t);
  }
  round_.batch_view = slot->batch.view(0, slot->rows);
  round_.rows = slot->rows;
  round_.live_honest = slot->live_honest;
  round_.f_budget = slot->f_budget;
  round_.shadow_rows = slot->shadow_rows;
  round_.shadow_view = slot->batch.view(slot->rows, slot->rows + slot->shadow_rows);
  round_.live_ids = slot->live_ids;
  round_.shadow_ids = slot->shadow_ids;
  round_.loss_sum = slot->loss_sum;
  round_.staleness = t - 1 - slot->param_version;
  round_.fill_busy_seconds = slot->fill_busy_seconds;
  return round_;
}

const Aggregator& RoundPipeline::aggregator_for(size_t rows, size_t f) {
  const auto key = std::make_pair(rows, f);
  auto it = gar_by_rows_.find(key);
  if (it == gar_by_rows_.end()) {
    std::unique_ptr<Aggregator> gar;
    try {
      gar = make_round_aggregator(config_, rows, f);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(
          "RoundPipeline: round budget (n' = " + std::to_string(rows) +
          ", f = " + std::to_string(f) +
          ") is inadmissible for gar '" + config_.gar + "': " + e.what());
    }
    it = gar_by_rows_.emplace(key, gar.get()).first;
    owned_gars_.push_back(std::move(gar));
  }
  return *it->second;
}

void RoundPipeline::adopt_rule(size_t rows, size_t f, const Aggregator* gar) {
  gar_by_rows_.emplace(std::make_pair(rows, f), gar);
}

void RoundPipeline::start_from(size_t t) {
  std::lock_guard<std::mutex> lock(mutex_);
  require(filled_.load(std::memory_order_relaxed) == 0 && dispatched_ == 0,
          "RoundPipeline::start_from: rounds already in flight");
  dispatched_ = t;
  filled_.store(t, std::memory_order_release);
}

void RoundPipeline::save_stream_state(std::ostream& os) const {
  attack_rng_.save(os);
  dropout_rng_.save(os);
  schedule_.save(os);
}

void RoundPipeline::load_stream_state(std::istream& is) {
  attack_rng_.load(is);
  dropout_rng_.load(is);
  schedule_.load(is);
}

void RoundPipeline::add_channel_stats(net::ChannelStats& out) const {
  for (const auto& gar : owned_gars_)
    if (const auto* tree = dynamic_cast<const HierarchicalAggregator*>(gar.get()))
      out.accumulate(tree->channel_stats());
}

}  // namespace dpbyz
