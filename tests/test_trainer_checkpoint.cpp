// Tests for trainer checkpoint/restore (core/checkpoint.hpp): signature
// semantics, file-format round trips and corruption handling, and the
// headline contract — a run killed at a checkpoint and restored produces
// a trajectory bit-identical to the uninterrupted run, at every pipeline
// depth, with and without churn, under an adaptive adversary.
//
// TrainerCheckpoint* runs under the TSAN CI job: the depth-k restore
// paths re-prime the ring's fill thread mid-stream.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/checkpoint.hpp"
#include "core/experiment.hpp"
#include "core/trainer.hpp"
#include "scratch_dir.hpp"
#include "utils/codec.hpp"

namespace dpbyz {
namespace {

struct SmallTask {
  Dataset train;
  Dataset test;
  LinearModel model;
  SmallTask() : model(6, LinearLoss::kMseOnSigmoid) {
    BlobsConfig c;
    c.num_samples = 400;
    c.num_features = 6;
    c.separation = 4.0;
    const Dataset full = make_blobs(c, 8);
    Rng split_rng(123);
    auto [tr, te] = full.split(300, split_rng);
    train = std::move(tr);
    test = std::move(te);
  }
};

ExperimentConfig ckpt_config(const std::string& path) {
  ExperimentConfig c;
  c.steps = 40;
  c.eval_every = 10;
  c.batch_size = 10;
  c.checkpoint_path = path;
  c.checkpoint_every = 10;
  return c;
}

std::string temp_ckpt(const std::string& name) {
  const std::string path = testing_support::scratch_dir() + name + ".ckpt";
  std::remove(path.c_str());
  return path;
}

/// The kill-and-restore harness: run `c` uninterrupted; then run the
/// first `c.steps / 2` rounds into a fresh checkpoint file, "kill" the
/// process (drop the Trainer), restore from the file and finish.  The
/// resumed RunResult must equal the uninterrupted one bit for bit.
void expect_restore_bit_equal(const SmallTask& task, ExperimentConfig c,
                              const std::string& name) {
  c.checkpoint_path = temp_ckpt(name + "_full");
  const RunResult full = Trainer(c, task.model, task.train, task.test).run();

  // The "kill": steps is outside the signature, so a shrunken horizon
  // ends the process at the last checkpoint without changing the prefix.
  ExperimentConfig half = c;
  half.checkpoint_path = temp_ckpt(name + "_killed");
  half.steps = c.steps / 2;
  const RunResult first = Trainer(half, task.model, task.train, task.test).run();
  ASSERT_EQ(first.train_loss.size(), half.steps);

  ExperimentConfig resumed = half;
  resumed.steps = c.steps;
  const RunResult rest = Trainer(resumed, task.model, task.train, task.test).run();

  EXPECT_EQ(rest.train_loss, full.train_loss);
  EXPECT_EQ(rest.final_parameters, full.final_parameters);
  EXPECT_EQ(rest.round_rows, full.round_rows);
  EXPECT_EQ(rest.round_f, full.round_f);
  EXPECT_EQ(rest.churn_trace, full.churn_trace);
  EXPECT_EQ(rest.reputation_scores, full.reputation_scores);
  ASSERT_EQ(rest.eval.size(), full.eval.size());
  for (size_t i = 0; i < full.eval.size(); ++i) {
    EXPECT_EQ(rest.eval[i].step, full.eval[i].step);
    EXPECT_EQ(rest.eval[i].accuracy, full.eval[i].accuracy);
  }
  std::remove(c.checkpoint_path.c_str());
  std::remove(half.checkpoint_path.c_str());
}

// ---- signature ------------------------------------------------------------

TEST(TrainerCheckpoint, SignatureIgnoresHorizonAndPlumbingKnobs) {
  ExperimentConfig a = ckpt_config("/tmp/a.ckpt");
  a.threads = 1;
  ExperimentConfig b = a;
  b.steps = 4000;
  b.checkpoint_path = "/elsewhere/b.ckpt";
  b.checkpoint_resume = false;
  b.threads = 8;
  EXPECT_EQ(checkpoint_signature(a), checkpoint_signature(b));
}

TEST(TrainerCheckpoint, SignatureCoversTrajectoryShapingKnobs) {
  const ExperimentConfig a = ckpt_config("/tmp/a.ckpt");
  auto differs = [&](auto mutate) {
    ExperimentConfig m = a;
    mutate(m);
    return checkpoint_signature(m) != checkpoint_signature(a);
  };
  EXPECT_TRUE(differs([](ExperimentConfig& m) { m.seed = 2; }));
  EXPECT_TRUE(differs([](ExperimentConfig& m) { m.gar = "krum"; }));
  EXPECT_TRUE(differs([](ExperimentConfig& m) { m.learning_rate *= 1.0 + 1e-15; }));
  EXPECT_TRUE(differs([](ExperimentConfig& m) { m.pipeline_depth = 3; }));
  EXPECT_TRUE(differs([](ExperimentConfig& m) { m.churn_seed = 7; }));
  // checkpoint_every shapes depth >= 1 trajectories (dispatch barriers).
  EXPECT_TRUE(differs([](ExperimentConfig& m) { m.checkpoint_every = 7; }));
}

// ---- file format ----------------------------------------------------------

TEST(TrainerCheckpoint, FileRoundTripsAllFields) {
  TrainerCheckpoint a;
  a.signature = "sig";
  a.round = 17;
  a.params = {1.5, -2.25, 1e-300};
  a.velocity = {0.0, -0.0, 3.0};
  a.worker_blobs = {"w0 state\n", std::string("bin\0blob", 8)};
  a.attack_blob = "adaptive 4 123\n";
  a.stream_blob = "rng 1 2\n";
  a.membership_blob = "";
  a.reputation_blob = "rep 1 2 0 0\n";
  a.train_loss = {0.5, 0.25};
  a.round_rows = {11, 10};
  a.round_f = {5, 4};
  a.eval = {{10, 0.875}};

  const std::string path = temp_ckpt("roundtrip");
  save_checkpoint(path, a);
  const auto b = load_checkpoint(path);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->signature, a.signature);
  EXPECT_EQ(b->round, a.round);
  EXPECT_EQ(b->params, a.params);
  EXPECT_EQ(b->velocity, a.velocity);
  EXPECT_EQ(b->worker_blobs, a.worker_blobs);
  EXPECT_EQ(b->attack_blob, a.attack_blob);
  EXPECT_EQ(b->stream_blob, a.stream_blob);
  EXPECT_EQ(b->membership_blob, a.membership_blob);
  EXPECT_EQ(b->reputation_blob, a.reputation_blob);
  EXPECT_EQ(b->train_loss, a.train_loss);
  EXPECT_EQ(b->round_rows, a.round_rows);
  EXPECT_EQ(b->round_f, a.round_f);
  ASSERT_EQ(b->eval.size(), 1u);
  EXPECT_EQ(b->eval[0].step, 10u);
  EXPECT_EQ(b->eval[0].accuracy, 0.875);
  std::remove(path.c_str());
}

TEST(TrainerCheckpoint, MissingFileIsNulloptCorruptFileThrows) {
  EXPECT_FALSE(load_checkpoint(temp_ckpt("absent")).has_value());
  const std::string path = temp_ckpt("corrupt");
  const auto write = [&](const std::string& bytes) {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << bytes;
  };
  const auto expect_named_error = [&](const std::string& needle) {
    try {
      load_checkpoint(path);
      ADD_FAILURE() << "expected std::runtime_error naming " << needle;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("checkpoint '" + path + "'"), std::string::npos) << what;
      EXPECT_NE(what.find(needle), std::string::npos) << what;
    }
  };
  write("not a checkpoint\n");
  expect_named_error("wrong magic");

  // Inflated length and count fields are rejected by name before they
  // size an allocation (not std::bad_alloc, not a multi-GB buffer first):
  // the record length against the bytes left in the file, the counts
  // inside a CRC-valid record as a short read.
  std::string inflated_record = "DPBYZCK2";
  const uint64_t huge = uint64_t{1} << 60;
  inflated_record.append(reinterpret_cast<const char*>(&huge), sizeof huge);
  inflated_record += "abcdefgh";
  write(inflated_record);
  expect_named_error("is truncated");

  const auto write_record = [&](const auto& fill) {
    codec::write_framed(path, "DPBYZCK2", std::vector<std::string>{codec::encode(fill)});
  };
  write_record([](std::ostream& os) { codec::put_u64(os, uint64_t{1} << 60); });
  expect_named_error("a field overruns its record");
  write_record([](std::ostream& os) {
    codec::put_bytes(os, "sig");
    codec::put_u64(os, 1);
    codec::put_u64(os, 4000000000);  // params count
  });
  expect_named_error("a field overruns its record");
  write_record([](std::ostream& os) {
    codec::put_bytes(os, "sig");
    codec::put_u64(os, 1);
    codec::put_f64s(os, std::vector<double>{});
    codec::put_f64s(os, std::vector<double>{});
    codec::put_u64(os, ~uint64_t{0});  // worker count
  });
  expect_named_error("a field overruns its record");

  // A whole checkpoint followed by stray bytes is not a checkpoint.
  TrainerCheckpoint ckpt;
  ckpt.signature = "s";
  save_checkpoint(path, ckpt);
  {
    std::ofstream os(path, std::ios::binary | std::ios::app);
    os << 'x';
  }
  expect_named_error("trailing bytes");
  std::remove(path.c_str());
}

TEST(TrainerCheckpoint, WriteIsAtomicNoTmpLeftBehind) {
  const std::string path = temp_ckpt("atomic");
  TrainerCheckpoint ckpt;
  ckpt.signature = "s";
  ckpt.round = 1;
  ckpt.train_loss = {1.0};
  ckpt.round_rows = {1};
  ckpt.round_f = {0};
  save_checkpoint(path, ckpt);
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  EXPECT_TRUE(std::ifstream(path).good());
  std::remove(path.c_str());
}

// ---- kill-and-restore bit-equality ---------------------------------------

TEST(TrainerCheckpoint, RestoreBitEqualAtDepthZero) {
  SmallTask task;
  expect_restore_bit_equal(task, ckpt_config(""), "d0");
}

TEST(TrainerCheckpoint, RestoreBitEqualAtDepthTwoWithAdaptiveAttack) {
  SmallTask task;
  ExperimentConfig c = ckpt_config("");
  c.pipeline_depth = 2;
  c.attack_enabled = true;
  c.attack = "adaptive_alie";
  c.num_workers = 11;
  c.num_byzantine = 3;
  expect_restore_bit_equal(task, c, "d2_adaptive");
}

TEST(TrainerCheckpoint, RestoreBitEqualWithChurnAndParticipation) {
  SmallTask task;
  ExperimentConfig c = ckpt_config("");
  c.churn = "epoch";
  c.churn_epoch_rounds = 5;
  c.churn_join_prob = 0.6;
  c.churn_leave_prob = 0.1;
  c.gar = "average";  // iid draws over a shrunken roster may dip below a
                      // selection rule's (n', f) floor; admissibility has
                      // its own tests — this one targets restore equality
  c.participation = "iid";
  c.participation_prob = 0.8;
  c.attack_enabled = true;
  c.attack = "little";
  c.num_workers = 11;
  c.num_byzantine = 3;
  expect_restore_bit_equal(task, c, "churn");
}

TEST(TrainerCheckpoint, RestoreBitEqualWithChurnAtDepthTwo) {
  SmallTask task;
  ExperimentConfig c = ckpt_config("");
  c.pipeline_depth = 2;
  c.churn = "epoch";
  c.churn_epoch_rounds = 10;
  c.churn_join_prob = 0.7;
  c.churn_leave_prob = 0.1;
  expect_restore_bit_equal(task, c, "churn_d2");
}

TEST(TrainerCheckpoint, ResumeRejectsIncompatibleConfig) {
  SmallTask task;
  ExperimentConfig c = ckpt_config(temp_ckpt("reject"));
  c.steps = 20;
  Trainer(c, task.model, task.train, task.test).run();
  ExperimentConfig other = c;
  other.learning_rate *= 2.0;
  EXPECT_THROW(Trainer(other, task.model, task.train, task.test).run(),
               std::invalid_argument);
  std::remove(c.checkpoint_path.c_str());
}

TEST(TrainerCheckpoint, CheckpointingOffLeavesTrajectoryUntouched) {
  // Depth-k dispatch barriers exist only when checkpoint_every > 0; with
  // checkpointing off the refactored engine must reproduce the plain
  // depth-2 trajectory (also golden-pinned; this is the direct A/B).
  SmallTask task;
  ExperimentConfig c;
  c.steps = 30;
  c.eval_every = 10;
  c.batch_size = 10;
  c.pipeline_depth = 2;
  const RunResult a = Trainer(c, task.model, task.train, task.test).run();
  const RunResult b = Trainer(c, task.model, task.train, task.test).run();
  EXPECT_EQ(a.train_loss, b.train_loss);
  EXPECT_EQ(a.final_parameters, b.final_parameters);
}

}  // namespace
}  // namespace dpbyz
