#include "core/checkpoint.hpp"

#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace dpbyz {

namespace {

constexpr const char* kMagic = "DPBYZCKP1";

/// Exact text rendering of a double (its 8-byte pattern as decimal).
std::string bits_of(double x) {
  return std::to_string(std::bit_cast<uint64_t>(x));
}

std::string pack_doubles(const std::vector<double>& v) {
  std::string out(v.size() * sizeof(double), '\0');
  if (!v.empty()) std::memcpy(out.data(), v.data(), out.size());
  return out;
}

std::vector<double> unpack_doubles(const std::string& bytes) {
  if (bytes.size() % sizeof(double) != 0)
    throw std::runtime_error("checkpoint: misaligned double payload");
  std::vector<double> v(bytes.size() / sizeof(double));
  if (!v.empty()) std::memcpy(v.data(), bytes.data(), bytes.size());
  return v;
}

std::string pack_u64s(const std::vector<uint64_t>& v) {
  std::string out(v.size() * sizeof(uint64_t), '\0');
  if (!v.empty()) std::memcpy(out.data(), v.data(), out.size());
  return out;
}

std::vector<uint64_t> unpack_u64s(const std::string& bytes) {
  if (bytes.size() % sizeof(uint64_t) != 0)
    throw std::runtime_error("checkpoint: misaligned u64 payload");
  std::vector<uint64_t> v(bytes.size() / sizeof(uint64_t));
  if (!v.empty()) std::memcpy(v.data(), bytes.data(), bytes.size());
  return v;
}

void write_blob(std::ostream& os, const char* name, const std::string& bytes) {
  os << name << ' ' << bytes.size() << '\n';
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  os << '\n';
}

/// Bytes between the read position and the end of the (seekable) file
/// stream: the ceiling for any length or count field read from it, so a
/// corrupted field is rejected before it sizes an allocation.
size_t bytes_left(std::istream& is) {
  const std::streampos here = is.tellg();
  is.seekg(0, std::ios::end);
  const std::streampos end = is.tellg();
  is.seekg(here);
  return static_cast<size_t>(end - here);
}

std::string read_blob(std::istream& is, const char* name) {
  std::string tag;
  size_t len = 0;
  is >> tag >> len;
  if (is.fail() || tag != name)
    throw std::runtime_error("checkpoint: expected blob '" + std::string(name) +
                             "', found '" + tag + "'");
  is.get();  // the '\n' after the length
  if (len > bytes_left(is))
    throw std::runtime_error("checkpoint: truncated blob '" + std::string(name) + "'");
  std::string bytes(len, '\0');
  is.read(bytes.data(), static_cast<std::streamsize>(len));
  if (is.gcount() != static_cast<std::streamsize>(len) || is.get() != '\n')
    throw std::runtime_error("checkpoint: truncated blob '" + std::string(name) + "'");
  return bytes;
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
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) throw std::runtime_error("checkpoint: cannot open '" + tmp + "' for write");
    os << kMagic << '\n';
    write_blob(os, "sig", ckpt.signature);
    os << "round " << ckpt.round << '\n';
    write_blob(os, "params", pack_doubles(ckpt.params));
    write_blob(os, "velocity", pack_doubles(ckpt.velocity));
    os << "workers " << ckpt.worker_blobs.size() << '\n';
    for (const std::string& blob : ckpt.worker_blobs) write_blob(os, "worker", blob);
    write_blob(os, "attack", ckpt.attack_blob);
    write_blob(os, "streams", ckpt.stream_blob);
    write_blob(os, "membership", ckpt.membership_blob);
    write_blob(os, "reputation", ckpt.reputation_blob);
    write_blob(os, "train_loss", pack_doubles(ckpt.train_loss));
    write_blob(os, "round_rows", pack_u64s(ckpt.round_rows));
    write_blob(os, "round_f", pack_u64s(ckpt.round_f));
    std::vector<uint64_t> eval_steps;
    std::vector<double> eval_accs;
    eval_steps.reserve(ckpt.eval.size());
    eval_accs.reserve(ckpt.eval.size());
    for (const EvalRecord& e : ckpt.eval) {
      eval_steps.push_back(e.step);
      eval_accs.push_back(e.accuracy);
    }
    write_blob(os, "eval_steps", pack_u64s(eval_steps));
    write_blob(os, "eval_accs", pack_doubles(eval_accs));
    os << "end\n";
    os.flush();
    if (!os) throw std::runtime_error("checkpoint: write to '" + tmp + "' failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw std::runtime_error("checkpoint: rename '" + tmp + "' -> '" + path + "' failed");
}

std::optional<TrainerCheckpoint> load_checkpoint(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return std::nullopt;
  std::string magic;
  std::getline(is, magic);
  if (magic != kMagic)
    throw std::runtime_error("checkpoint: '" + path + "' is not a checkpoint file");
  TrainerCheckpoint ckpt;
  ckpt.signature = read_blob(is, "sig");
  std::string tag;
  is >> tag >> ckpt.round;
  if (is.fail() || tag != "round")
    throw std::runtime_error("checkpoint: missing round marker");
  is.get();  // '\n'
  {
    const std::vector<double> p = unpack_doubles(read_blob(is, "params"));
    ckpt.params.assign(p.begin(), p.end());
    const std::vector<double> v = unpack_doubles(read_blob(is, "velocity"));
    ckpt.velocity.assign(v.begin(), v.end());
  }
  size_t workers = 0;
  is >> tag >> workers;
  if (is.fail() || tag != "workers")
    throw std::runtime_error("checkpoint: missing worker count");
  is.get();  // '\n'
  if (workers > bytes_left(is))  // every worker blob takes at least a byte
    throw std::runtime_error("checkpoint: worker count " + std::to_string(workers) +
                             " exceeds the file size");
  ckpt.worker_blobs.reserve(workers);
  for (size_t i = 0; i < workers; ++i)
    ckpt.worker_blobs.push_back(read_blob(is, "worker"));
  ckpt.attack_blob = read_blob(is, "attack");
  ckpt.stream_blob = read_blob(is, "streams");
  ckpt.membership_blob = read_blob(is, "membership");
  ckpt.reputation_blob = read_blob(is, "reputation");
  ckpt.train_loss = unpack_doubles(read_blob(is, "train_loss"));
  ckpt.round_rows = unpack_u64s(read_blob(is, "round_rows"));
  ckpt.round_f = unpack_u64s(read_blob(is, "round_f"));
  const std::vector<uint64_t> eval_steps = unpack_u64s(read_blob(is, "eval_steps"));
  const std::vector<double> eval_accs = unpack_doubles(read_blob(is, "eval_accs"));
  if (eval_steps.size() != eval_accs.size())
    throw std::runtime_error("checkpoint: eval step/accuracy length mismatch");
  ckpt.eval.reserve(eval_steps.size());
  for (size_t i = 0; i < eval_steps.size(); ++i)
    ckpt.eval.push_back({static_cast<size_t>(eval_steps[i]), eval_accs[i]});
  is >> tag;
  if (tag != "end") throw std::runtime_error("checkpoint: missing end marker");
  return ckpt;
}

}  // namespace dpbyz
