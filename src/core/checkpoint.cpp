#include "core/checkpoint.hpp"

#include <bit>
#include <sstream>
#include <stdexcept>

#include "utils/codec.hpp"

namespace dpbyz {

namespace {

constexpr std::string_view kMagic = "DPBYZCK2";

/// Exact text rendering of a double (its 8-byte pattern as decimal).
std::string bits_of(double x) {
  return std::to_string(std::bit_cast<uint64_t>(x));
}

}  // namespace

std::string checkpoint_signature(const ExperimentConfig& c) {
  std::ostringstream sig;
  sig << "ckpt-v1"
      << ";n=" << c.num_workers << ";f=" << c.num_byzantine << ";b=" << c.batch_size
      << ";lr=" << bits_of(c.learning_rate) << ";sched=" << c.lr_schedule
      << ";mom=" << bits_of(c.momentum) << ";clip=" << bits_of(c.clip_norm)
      << ";clip_on=" << c.clip_enabled << ";eval=" << c.eval_every
      << ";drop=" << bits_of(c.dropout_prob) << ";wmom=" << bits_of(c.worker_momentum)
      << ";part=" << c.data_partition << ";skew=" << bits_of(c.label_skew_fraction)
      << ";depth=" << c.pipeline_depth
      << ";live=" << c.participation << ";lp=" << bits_of(c.participation_prob)
      << ";ns=" << c.num_stragglers << ";sp=" << c.straggler_period
      << ";dp=" << c.dp_enabled << ";mech=" << c.mechanism
      << ";eps=" << bits_of(c.epsilon) << ";delta=" << bits_of(c.delta)
      << ";gar=" << c.gar << ";prune=" << c.prune
      << ";merge=" << c.shard_merge_gar << ";tl=" << c.tree_levels
      << ";tb=" << c.tree_branch << ";wire=" << c.wire << ";topk=" << c.wire_topk
      << ";chunk=" << c.wire_chunk << ";chan=" << c.channel
      << ";cdrop=" << bits_of(c.channel_drop) << ";cdup=" << bits_of(c.channel_duplicate)
      << ";ccor=" << bits_of(c.channel_corrupt) << ";creo=" << bits_of(c.channel_reorder)
      << ";cseed=" << c.channel_seed << ";cretx=" << c.channel_retransmit
      << ";atk=" << c.attack_enabled << ";atkname=" << c.attack
      << ";nu=" << bits_of(c.attack_nu) << ";probes=" << c.adapt_probes
      << ";budget=" << c.adapt_budget << ";obs=" << c.attack_observes
      << ";churn=" << c.churn << ";ce=" << c.churn_epoch_rounds
      << ";cs=" << c.churn_seed << ";cj=" << bits_of(c.churn_join_prob)
      << ";cl=" << bits_of(c.churn_leave_prob) << ";cc=" << bits_of(c.churn_crash_prob)
      << ";cm=" << c.churn_max_joins
      << ";rep=" << c.reputation << ";rb=" << bits_of(c.reputation_beta)
      << ";ro=" << bits_of(c.reputation_outlier)
      << ";ra=" << bits_of(c.reputation_admit)
      << ";re=" << bits_of(c.reputation_evict) << ";qe=" << c.quarantine_epochs
      << ";ck=" << c.checkpoint_every << ";seed=" << c.seed;
  return sig.str();
}

void save_checkpoint(const std::string& path, const TrainerCheckpoint& ckpt) {
  std::ostringstream os;
  codec::put_bytes(os, ckpt.signature);
  codec::put_u64(os, ckpt.round);
  codec::put_f64s(os, ckpt.params);
  codec::put_f64s(os, ckpt.velocity);
  codec::put_u64(os, ckpt.worker_blobs.size());
  for (const std::string& blob : ckpt.worker_blobs) codec::put_bytes(os, blob);
  codec::put_bytes(os, ckpt.attack_blob);
  codec::put_bytes(os, ckpt.stream_blob);
  codec::put_bytes(os, ckpt.membership_blob);
  codec::put_bytes(os, ckpt.reputation_blob);
  codec::put_f64s(os, ckpt.train_loss);
  codec::put_u64s(os, ckpt.round_rows);
  codec::put_u64s(os, ckpt.round_f);
  codec::put_u64(os, ckpt.eval.size());
  for (const EvalRecord& e : ckpt.eval) {
    codec::put_u64(os, e.step);
    codec::put_f64(os, e.accuracy);
  }
  const std::string payload = std::move(os).str();
  codec::write_framed(path, kMagic, {&payload, 1});
}

std::optional<TrainerCheckpoint> load_checkpoint(const std::string& path) {
  const std::string name = "checkpoint '" + path + "'";
  const std::optional<codec::Framed> file = codec::read_framed(path, kMagic, name);
  if (!file) return std::nullopt;
  if (file->records.size() != 1 || file->torn)
    throw std::runtime_error(name + (file->records.empty() ? " is truncated"
                                                            : " has trailing bytes"));

  std::istringstream is(file->records[0]);
  codec::Reader in(is, name + ": a field overruns its record");
  TrainerCheckpoint ckpt;
  ckpt.signature = in.bytes();
  ckpt.round = in.u64();
  ckpt.params = in.f64s();
  ckpt.velocity = in.f64s();
  for (uint64_t k = in.u64(); k > 0; --k) ckpt.worker_blobs.push_back(in.bytes());
  ckpt.attack_blob = in.bytes();
  ckpt.stream_blob = in.bytes();
  ckpt.membership_blob = in.bytes();
  ckpt.reputation_blob = in.bytes();
  ckpt.train_loss = in.f64s();
  ckpt.round_rows = in.u64s();
  ckpt.round_f = in.u64s();
  // Braced initializers evaluate in order: the step, then the accuracy.
  for (uint64_t k = in.u64(); k > 0; --k)
    ckpt.eval.push_back({static_cast<size_t>(in.u64()), in.f64()});
  return ckpt;
}

}  // namespace dpbyz
