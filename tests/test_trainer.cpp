// Unit tests for the Trainer, ExperimentConfig and metrics plumbing.
#include <gtest/gtest.h>

#include <cmath>

#include "core/experiment.hpp"
#include "core/trainer.hpp"
#include "math/gradient_batch.hpp"

namespace dpbyz {
namespace {

/// Small/fast config for unit-level runs.
ExperimentConfig fast_config() {
  ExperimentConfig c;
  c.steps = 40;
  c.eval_every = 10;
  c.batch_size = 10;
  return c;
}

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

TEST(Config, DefaultsMatchPaperSetup) {
  const ExperimentConfig c;
  EXPECT_EQ(c.num_workers, 11u);
  EXPECT_EQ(c.num_byzantine, 5u);
  EXPECT_EQ(c.batch_size, 50u);
  EXPECT_EQ(c.steps, 1000u);
  EXPECT_DOUBLE_EQ(c.learning_rate, 2.0);
  EXPECT_DOUBLE_EQ(c.momentum, 0.99);
  EXPECT_DOUBLE_EQ(c.clip_norm, 1e-2);
  EXPECT_DOUBLE_EQ(c.delta, 1e-6);
  EXPECT_DOUBLE_EQ(c.epsilon, 0.2);
  EXPECT_EQ(c.gar, "mda");
  EXPECT_EQ(c.eval_every, 50u);
  EXPECT_NO_THROW(c.validate());
}

TEST(Config, BuilderHelpersComposeIndependently) {
  const auto base = ExperimentConfig::paper_baseline();
  const auto dp = base.with_dp(0.3);
  EXPECT_TRUE(dp.dp_enabled);
  EXPECT_FALSE(base.dp_enabled);
  EXPECT_DOUBLE_EQ(dp.epsilon, 0.3);
  const auto attacked = base.with_attack("empire");
  EXPECT_TRUE(attacked.attack_enabled);
  EXPECT_EQ(attacked.attack, "empire");
  EXPECT_EQ(base.with_seed(3).seed, 3u);
  EXPECT_EQ(base.with_batch(500).batch_size, 500u);
}

TEST(Config, ValidationCatchesBadFields) {
  ExperimentConfig c;
  c.num_byzantine = 11;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = ExperimentConfig{};
  c.momentum = 1.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = ExperimentConfig{};
  c.dp_enabled = true;
  c.epsilon = 1.5;  // Gaussian mechanism needs eps < 1
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = ExperimentConfig{};
  c.attack_enabled = true;
  c.num_byzantine = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = ExperimentConfig{};
  c.lr_schedule = "bogus";
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(Config, LabelMentionsComponents) {
  auto c = ExperimentConfig{}.with_dp(0.2).with_attack("little");
  const std::string label = c.label();
  EXPECT_NE(label.find("mda"), std::string::npos);
  EXPECT_NE(label.find("dp"), std::string::npos);
  EXPECT_NE(label.find("little"), std::string::npos);
}

TEST(Trainer, RecordsAllMetricSeries) {
  SmallTask task;
  auto c = fast_config();
  Trainer t(c, task.model, task.train, task.test);
  const RunResult r = t.run();
  EXPECT_EQ(r.train_loss.size(), 40u);
  ASSERT_EQ(r.eval.size(), 4u);  // steps 10, 20, 30, 40
  EXPECT_EQ(r.eval.front().step, 10u);
  EXPECT_EQ(r.eval.back().step, 40u);
  EXPECT_EQ(r.final_accuracy, r.eval.back().accuracy);
  EXPECT_EQ(r.final_parameters.size(), task.model.dim());
  EXPECT_GT(r.steps_to_min_loss, 0u);
}

TEST(Trainer, FinalEvalAlwaysPresentEvenOffGrid) {
  SmallTask task;
  auto c = fast_config();
  c.steps = 25;  // not a multiple of eval_every = 10
  Trainer t(c, task.model, task.train, task.test);
  const RunResult r = t.run();
  ASSERT_EQ(r.eval.size(), 3u);  // 10, 20, 25
  EXPECT_EQ(r.eval.back().step, 25u);
}

TEST(Trainer, DeterministicGivenSeed) {
  SmallTask task;
  const auto c = fast_config();
  const RunResult a = Trainer(c, task.model, task.train, task.test).run();
  const RunResult b = Trainer(c, task.model, task.train, task.test).run();
  EXPECT_EQ(a.final_parameters, b.final_parameters);
  EXPECT_EQ(a.train_loss, b.train_loss);
}

TEST(Trainer, DifferentSeedsDiffer) {
  SmallTask task;
  const auto c = fast_config();
  const RunResult a = Trainer(c, task.model, task.train, task.test).run();
  const RunResult b =
      Trainer(c.with_seed(2), task.model, task.train, task.test).run();
  EXPECT_NE(a.final_parameters, b.final_parameters);
}

TEST(Trainer, DpNoiseDoesNotPerturbBatchSampling) {
  // The per-step honest batch losses at step 1 (before any update) must
  // coincide between DP and non-DP runs with the same seed: the sampling
  // stream is derived independently of the noise stream.
  SmallTask task;
  const auto base = fast_config();
  const RunResult clean = Trainer(base, task.model, task.train, task.test).run();
  const RunResult noisy =
      Trainer(base.with_dp(0.5), task.model, task.train, task.test).run();
  EXPECT_DOUBLE_EQ(clean.train_loss[0], noisy.train_loss[0]);
}

TEST(Trainer, AttackDisabledUsesAllWorkersHonestly) {
  // With attack disabled, all n workers behave honestly (paper §5.1);
  // the run must not throw and must converge like a benign run.
  SmallTask task;
  auto c = fast_config();
  c.gar = "average";
  c.steps = 150;  // clip 1e-2 throttles early progress; give it room
  const RunResult r = Trainer(c, task.model, task.train, task.test).run();
  EXPECT_GT(r.final_accuracy, 0.8);
}

TEST(Trainer, AttackObservationPointCoincidesWithoutDp) {
  // "clean" and "wire" adversaries see the same vectors when no noise is
  // injected; the runs must be bit-identical.
  SmallTask task;
  auto c = fast_config().with_attack("little");
  c.attack_observes = "clean";
  const RunResult clean = Trainer(c, task.model, task.train, task.test).run();
  c.attack_observes = "wire";
  const RunResult wire = Trainer(c, task.model, task.train, task.test).run();
  EXPECT_EQ(clean.final_parameters, wire.final_parameters);
}

TEST(Trainer, AttackObservationPointMattersUnderDp) {
  SmallTask task;
  auto c = fast_config().with_dp(0.5).with_attack("little");
  c.attack_observes = "clean";
  const RunResult clean = Trainer(c, task.model, task.train, task.test).run();
  c.attack_observes = "wire";
  const RunResult wire = Trainer(c, task.model, task.train, task.test).run();
  EXPECT_NE(clean.final_parameters, wire.final_parameters);
}

TEST(Trainer, AttackObservationValidated) {
  ExperimentConfig c;
  c.attack_enabled = true;
  c.attack_observes = "telepathy";
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(Trainer, MechanismReflectsConfig) {
  SmallTask task;
  auto c = fast_config();
  Trainer plain(c, task.model, task.train, task.test);
  EXPECT_EQ(plain.mechanism().describe(), "none");
  Trainer gauss(c.with_dp(0.5), task.model, task.train, task.test);
  EXPECT_NE(gauss.mechanism().describe().find("gaussian"), std::string::npos);
  c.dp_enabled = true;
  c.mechanism = "laplace";
  Trainer lap(c, task.model, task.train, task.test);
  EXPECT_NE(lap.mechanism().describe().find("laplace"), std::string::npos);
}

TEST(Trainer, ThreadedSubmissionBitIdenticalToSerial) {
  // config.threads only changes which thread runs each worker pipeline;
  // workers own disjoint arena rows and private RNG streams, and the
  // loss reduction runs in index order after the join, so the threaded
  // run must be bit-identical to the serial one — including under DP
  // noise, worker momentum, and an attack observing the wire.
  SmallTask task;
  auto c = fast_config().with_dp(0.5).with_attack("little");
  c.num_workers = 12;
  c.num_byzantine = 2;
  c.gar = "median";
  c.worker_momentum = 0.5;
  c.threads = 1;
  const RunResult serial = Trainer(c, task.model, task.train, task.test).run();
  c.threads = 4;
  const RunResult threaded = Trainer(c, task.model, task.train, task.test).run();
  EXPECT_EQ(threaded.final_parameters, serial.final_parameters);
  EXPECT_EQ(threaded.train_loss, serial.train_loss);
  c.threads = 0;  // hardware concurrency — still bit-identical
  const RunResult hw = Trainer(c, task.model, task.train, task.test).run();
  EXPECT_EQ(hw.final_parameters, serial.final_parameters);
}

TEST(Trainer, ThreadedShardedTrainerBitIdenticalToSerial) {
  // threads drives both honest submission and the one-level tree's
  // child dispatch (the sharded topology).
  SmallTask task;
  auto c = fast_config();
  c.num_workers = 12;
  c.num_byzantine = 2;
  c.gar = "median";
  c.tree_levels = 1;
  c.tree_branch = 3;
  c.threads = 1;
  const RunResult serial = Trainer(c, task.model, task.train, task.test).run();
  c.threads = 3;
  const RunResult threaded = Trainer(c, task.model, task.train, task.test).run();
  EXPECT_EQ(threaded.final_parameters, serial.final_parameters);
  EXPECT_EQ(threaded.train_loss, serial.train_loss);
}

TEST(Trainer, ThreadedForgeAboveTheFloorBitIdenticalAcrossWidthsAndObservationPoints) {
  // krum + ALIE with DP off at d = 10001: the 29 observed honest rows
  // put the forge above column_moments_into's dispatch floor, so
  // threads = 4 splits it into column tiles.  Without noise the trainer
  // keeps no clean arena and the "clean" adversary reads the submission
  // prefix, so all four runs must agree bit for bit.
  const size_t d = 10000;
  BlobsConfig bc;
  bc.num_samples = 64;
  bc.num_features = d;
  bc.separation = 4.0;
  const Dataset data = make_blobs(bc, 8);
  const LinearModel model(d, LinearLoss::kMseOnSigmoid);
  auto c = fast_config().with_attack("little");
  c.num_workers = 32;
  c.num_byzantine = 3;
  c.gar = "krum";
  c.steps = 3;
  c.eval_every = 3;
  ASSERT_GE((c.num_workers - c.num_byzantine) * model.dim(), kMomentsParallelMinWork);

  std::vector<Vector> params;
  for (const char* observes : {"clean", "wire"}) {
    for (const size_t threads : {1, 4}) {
      c.attack_observes = observes;
      c.threads = threads;
      params.push_back(Trainer(c, model, data, data).run().final_parameters);
    }
  }
  for (size_t i = 1; i < params.size(); ++i) EXPECT_EQ(params[i], params[0]) << i;
}

TEST(Config, LabelShowsThreadsKnob) {
  // The default (0, hardware concurrency) prints nothing; any pinned
  // width, the serial 1 included, is spelled out.
  ExperimentConfig c;
  EXPECT_EQ(c.label().find("+T"), std::string::npos);
  c.threads = 1;
  EXPECT_NE(c.label().find("+T1"), std::string::npos);
  c.threads = 4;
  EXPECT_NE(c.label().find("+T4"), std::string::npos);
}

/// The message validate() throws for `prune`, or "" when it accepts it.
std::string prune_rejection(const std::string& prune) {
  ExperimentConfig c;
  c.prune = prune;
  try {
    c.validate();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Config, PruneAcceptsOffAndExactAndRejectsTheRestByName) {
  // "exact" is a spelling of "off" that label() still records as typed.
  ExperimentConfig c;
  c.prune = "exact";
  c.validate();
  EXPECT_NE(c.label().find("+prune(exact)"), std::string::npos);
  c.prune = "off";
  c.validate();
  EXPECT_EQ(c.label().find("+prune"), std::string::npos);

  const std::string approx = prune_rejection("approx");
  EXPECT_EQ(approx.rfind("config: prune", 0), 0u) << approx;
  EXPECT_NE(approx.find("'approx' was retired"), std::string::npos) << approx;
  const std::string banana = prune_rejection("banana");
  EXPECT_EQ(banana.rfind("config: prune", 0), 0u) << banana;
  EXPECT_NE(banana.find("'banana'"), std::string::npos) << banana;
}

TEST(Trainer, PruneExactMatchesOffAndApproxIsRejected) {
  SmallTask task;
  ExperimentConfig c;
  c.num_workers = 11;
  c.num_byzantine = 2;
  c.gar = "krum";
  c.steps = 6;
  c.eval_every = 6;
  c.batch_size = 5;
  const RunResult off = Trainer(c, task.model, task.train, task.test).run();
  ExperimentConfig ce = c;
  ce.prune = "exact";
  const RunResult exact = Trainer(ce, task.model, task.train, task.test).run();
  EXPECT_EQ(exact.final_parameters, off.final_parameters);
  EXPECT_EQ(exact.train_loss, off.train_loss);

  ExperimentConfig ca = c;
  ca.prune = "approx";
  try {
    Trainer(ca, task.model, task.train, task.test);
    ADD_FAILURE() << "Trainer accepted prune = approx";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'approx' was retired"), std::string::npos)
        << e.what();
  }
}

TEST(Metrics, SummariesAggregateAcrossRuns) {
  RunResult a, b;
  a.train_loss = {1.0, 2.0};
  b.train_loss = {3.0, 4.0};
  a.eval = {{10, 0.5}};
  b.eval = {{10, 0.7}};
  a.final_accuracy = 0.5;
  b.final_accuracy = 0.7;
  a.final_train_loss = 2.0;
  b.final_train_loss = 4.0;
  const std::vector<RunResult> runs{a, b};
  const auto loss = summarize_train_loss(runs);
  EXPECT_EQ(loss.steps, (std::vector<size_t>{1, 2}));
  EXPECT_EQ(loss.mean, (std::vector<double>{2.0, 3.0}));
  const auto acc = summarize_accuracy(runs);
  EXPECT_EQ(acc.steps, (std::vector<size_t>{10}));
  EXPECT_DOUBLE_EQ(acc.mean[0], 0.6);
  EXPECT_NEAR(summarize_final_accuracy(runs).mean, 0.6, 1e-12);
  EXPECT_NEAR(summarize_final_loss(runs).mean, 3.0, 1e-12);
}

TEST(Metrics, RaggedSeriesThrow) {
  RunResult a, b;
  a.train_loss = {1.0};
  b.train_loss = {1.0, 2.0};
  const std::vector<RunResult> runs{a, b};
  EXPECT_THROW(summarize_train_loss(runs), std::invalid_argument);
}

}  // namespace
}  // namespace dpbyz
