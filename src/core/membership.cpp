#include "core/membership.hpp"

#include <stdexcept>
#include <string>

#include "utils/codec.hpp"
#include "utils/errors.hpp"

namespace dpbyz {

const char* churn_kind_name(ChurnEvent::Kind kind) {
  switch (kind) {
    case ChurnEvent::Kind::kJoin: return "join";
    case ChurnEvent::Kind::kLeave: return "leave";
    case ChurnEvent::Kind::kAdmit: return "admit";
    case ChurnEvent::Kind::kEvict: return "evict";
  }
  return "?";
}

size_t MembershipManager::pool_size_for(const ExperimentConfig& config,
                                        size_t initial_honest) {
  if (config.churn == "off") return initial_honest;
  // One candidate joiner per boundary; boundaries strictly inside the
  // run are t = E, 2E, ... < steps.
  const size_t boundaries =
      config.steps >= 1 ? (config.steps - 1) / config.churn_epoch_rounds : 0;
  return initial_honest + boundaries;
}

MembershipManager::MembershipManager(const ExperimentConfig& config,
                                     size_t initial_honest, Rng churn_rng)
    : epoch_rounds_(config.churn_epoch_rounds),
      join_prob_(config.churn_join_prob),
      leave_prob_(config.churn_leave_prob),
      f0_(config.num_byzantine),
      h0_(initial_honest),
      rng_(std::move(churn_rng)),
      states_(pool_size_for(config, initial_honest), WorkerState::kUnborn),
      joined_epoch_(states_.size(), 0) {
  require(initial_honest >= 1, "MembershipManager: need at least one honest worker");
  for (size_t i = 0; i < initial_honest; ++i) states_[i] = WorkerState::kActive;
  next_join_ = initial_honest;
  view_.active.reserve(states_.size());
  view_.quarantined.reserve(states_.size());
  rebuild_view();
}

void MembershipManager::rebuild_view() {
  view_.epoch = epoch_;
  view_.active.clear();
  view_.quarantined.clear();
  for (uint32_t i = 0; i < states_.size(); ++i) {
    if (states_[i] == WorkerState::kActive) view_.active.push_back(i);
    else if (states_[i] == WorkerState::kQuarantined) view_.quarantined.push_back(i);
  }
  // f_e = min(f0, floor(h_e * f0 / h0)): the initial Byzantine ratio is
  // the carried invariant; the configured f is the hard cap.
  const size_t h = view_.active.size();
  view_.byzantine = std::min(f0_, h * f0_ / h0_);
}

void MembershipManager::advance(size_t t, ReputationBook& rep) {
  require(is_boundary(t), "MembershipManager: advance off an epoch boundary");
  const uint32_t e = static_cast<uint32_t>(++epoch_);

  // 1. Churn draws, in a fixed order so the stream is exact under replay:
  //    one join draw per boundary, then one leave draw per active worker
  //    in ascending pool id, each followed by one discarded draw (the
  //    retired crash event's; bernoulli(0) still consumes an engine word,
  //    and dropping it would change every churn trace).  The stream
  //    length depends only on the roster, not the outcomes.
  if (next_join_ < states_.size() && rng_.bernoulli(join_prob_)) {
    const uint32_t w = static_cast<uint32_t>(next_join_++);
    states_[w] = WorkerState::kQuarantined;
    joined_epoch_[w] = e;
    rep.on_join(w);
    trace_.push_back({e, ChurnEvent::Kind::kJoin, w});
  }
  for (uint32_t w = 0; w < states_.size(); ++w) {
    if (states_[w] != WorkerState::kActive) continue;
    const bool leaves = rng_.bernoulli(leave_prob_);
    rng_.bernoulli(0.0);
    if (leaves) {
      states_[w] = WorkerState::kLeft;
      trace_.push_back({e, ChurnEvent::Kind::kLeave, w});
    }
  }

  // 2. Reputation gate.  Evictions first (an epoch's signal should not
  //    admit through a bar it simultaneously lowers), with a floor: the
  //    last active worker is never evicted — a committee of zero honest
  //    workers has no training semantics.
  size_t active_count = 0;
  for (WorkerState s : states_)
    if (s == WorkerState::kActive) ++active_count;
  for (uint32_t w = 0; w < states_.size() && active_count > 1; ++w) {
    if (states_[w] != WorkerState::kActive || !rep.evicts(w)) continue;
    states_[w] = WorkerState::kEvicted;
    --active_count;
    trace_.push_back({e, ChurnEvent::Kind::kEvict, w});
  }
  for (uint32_t w = 0; w < states_.size(); ++w) {
    if (states_[w] != WorkerState::kQuarantined) continue;
    if (e - joined_epoch_[w] < kQuarantineEpochs || !rep.admits(w)) continue;
    states_[w] = WorkerState::kActive;
    ++active_count;
    trace_.push_back({e, ChurnEvent::Kind::kAdmit, w});
  }

  if (active_count == 0)
    throw std::runtime_error(
        "MembershipManager: epoch " + std::to_string(e) + " (after round " +
        std::to_string(t) + ") has no active honest workers left");
  rebuild_view();
}

void MembershipManager::save(std::ostream& os) const {
  codec::put_u64(os, epoch_);
  codec::put_u64(os, next_join_);
  codec::put_u64(os, states_.size());
  for (size_t i = 0; i < states_.size(); ++i) {
    codec::put_u64(os, static_cast<uint64_t>(states_[i]));
    codec::put_u64(os, joined_epoch_[i]);
  }
  rng_.save(os);
  codec::put_u64(os, trace_.size());
  for (const ChurnEvent& ev : trace_) {
    codec::put_u64(os, ev.epoch);
    codec::put_u64(os, static_cast<uint64_t>(ev.kind));
    codec::put_u64(os, ev.worker);
  }
}

void MembershipManager::load(std::istream& is) {
  // The checkpoint words of the retired crash event: rejected like any
  // other word outside the enums.
  constexpr uint64_t kRetiredCrashed = 4, kRetiredCrash = 2;
  codec::Reader in(is, "MembershipManager: truncated checkpoint state");
  epoch_ = in.u64();
  next_join_ = in.u64();
  const uint64_t n = in.u64();
  // A checkpoint written under a shorter horizon carries a smaller pool
  // (pool_size_for depends on steps); its missing tail slots were
  // necessarily unborn then, so their constructed state is the restored
  // state.  A larger pool means steps shrank below the checkpointed
  // horizon — reject it.
  require(n <= states_.size() && next_join_ <= n,
          "MembershipManager: checkpoint state does not match this configuration");
  for (size_t i = 0; i < states_.size(); ++i) {
    const uint64_t state = i < n ? in.u64() : 0;  // 0 is kUnborn
    require_intact(
        state <= static_cast<uint64_t>(WorkerState::kEvicted) && state != kRetiredCrashed,
        "MembershipManager: corrupt worker state in checkpoint");
    states_[i] = static_cast<WorkerState>(state);
    joined_epoch_[i] = i < n ? static_cast<uint32_t>(in.u64()) : 0;
  }
  rng_.load(is);
  trace_.clear();
  // An inflated count is a short read.
  for (uint64_t k = in.u64(); k > 0; --k) {
    const uint64_t epoch = in.u64(), kind = in.u64(), worker = in.u64();
    require_intact(kind <= static_cast<uint64_t>(ChurnEvent::Kind::kEvict) &&
                       kind != kRetiredCrash,
                   "MembershipManager: corrupt churn event kind in checkpoint");
    require_intact(worker < states_.size(),
                   "MembershipManager: churn event worker id outside the pool in checkpoint");
    trace_.push_back({static_cast<uint32_t>(epoch), static_cast<ChurnEvent::Kind>(kind),
                      static_cast<uint32_t>(worker)});
  }
  rebuild_view();
}

}  // namespace dpbyz
