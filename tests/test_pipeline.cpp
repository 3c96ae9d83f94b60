// Tests for the double-buffered round engine (core/pipeline.hpp):
// depth-0 bit-identity to the PR-3 synchronous trainer (golden
// trajectories captured from that build), depth-1 determinism and
// thread-width bit-equality, participation schedules + compaction, and
// the per-round (n', f) admissibility revalidation.
//
// Every RoundPipeline* test runs under the TSAN CI job (see
// .github/workflows/ci.yml): the depth-1 tests exercise the fill-thread
// handshake and the fill-on-ThreadPool dispatch concurrently with the
// aggregating main thread.
#include <gtest/gtest.h>

#include <cmath>

#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "core/trainer.hpp"
#include "utils/parallel.hpp"

namespace dpbyz {
namespace {

/// Same task as test_trainer's SmallTask; the golden values below were
/// captured from the PR-3 trainer on exactly this dataset/model.
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

ExperimentConfig fast_config() {
  ExperimentConfig c;
  c.steps = 40;
  c.eval_every = 10;
  c.batch_size = 10;
  return c;
}

// ---- depth-0 golden: the synchronous path is frozen -----------------------

// Captured from the PR-3 build (hexfloat: exact doubles).  Any change to
// the depth-0 trajectory — however small — is a regression against the
// seed semantics, not a tolerance question.
TEST(RoundPipelineGolden, Depth0DpAttackTrajectoryBitEqualToPr3) {
  SmallTask task;
  ExperimentConfig c;  // paper-default mda n=11 f=5 + DP + attack
  c.steps = 30;
  c.eval_every = 10;
  c.batch_size = 10;
  c.dp_enabled = true;
  c.epsilon = 0.5;
  c.attack_enabled = true;
  c.attack = "little";
  ASSERT_EQ(c.pipeline_depth, 0u);
  const RunResult r = Trainer(c, task.model, task.train, task.test).run();
  const Vector want{-0x1.928e66fa08f44p+0, 0x1.3e1b37687aafep+0,
                    0x1.e17c03cb6b146p-1,  -0x1.00e309994f3p+0,
                    -0x1.dea056d5be499p-1, 0x1.fac2c0828ccaep+0,
                    0x1.9dfd725272385p+0};
  EXPECT_EQ(r.final_parameters, want);
  EXPECT_EQ(r.train_loss.front(), 0x1p-2);
  EXPECT_EQ(r.train_loss.back(), 0x1.3a52502d265cfp-4);
  EXPECT_EQ(r.final_accuracy, 0x1.a8f5c28f5c28fp-1);
}

TEST(RoundPipelineGolden, Depth0BenignTrajectoryBitEqualToPr3) {
  SmallTask task;
  ExperimentConfig c;
  c.steps = 30;
  c.eval_every = 10;
  c.batch_size = 10;
  c.gar = "average";
  c.num_byzantine = 0;
  const RunResult r = Trainer(c, task.model, task.train, task.test).run();
  const Vector want{-0x1.b43366de147d3p+1, -0x1.8252f06397124p-2,
                    -0x1.1329a0d14395cp-2, -0x1.310670849ecdp+1,
                    -0x1.39ad1ca2df077p+1, 0x1.4d8e8430976d6p+0,
                    -0x1.23ffa9dcb43bdp-4};
  EXPECT_EQ(r.final_parameters, want);
  EXPECT_EQ(r.train_loss.back(), 0x1.ed0e5ca0d8854p-6);
  EXPECT_EQ(r.final_accuracy, 0x1.f0a3d70a3d70ap-1);
}

// ---- depth-1: bounded-staleness semantics ---------------------------------

TEST(RoundPipeline, Depth1DeterministicGivenSeed) {
  SmallTask task;
  auto c = fast_config().with_dp(0.5).with_attack("little");
  c.pipeline_depth = 1;
  const RunResult a = Trainer(c, task.model, task.train, task.test).run();
  const RunResult b = Trainer(c, task.model, task.train, task.test).run();
  EXPECT_EQ(a.final_parameters, b.final_parameters);
  EXPECT_EQ(a.train_loss, b.train_loss);
}

TEST(RoundPipeline, Depth1ThreadWidthsBitEqual) {
  // The fill of round t+1 runs on the fill thread — serially or
  // dispatched across the shared pool — while the main thread
  // aggregates round t; none of that may change a single bit.
  SmallTask task;
  auto c = fast_config().with_dp(0.5).with_attack("little");
  c.num_workers = 12;
  c.num_byzantine = 2;
  c.gar = "median";
  c.worker_momentum = 0.5;
  c.pipeline_depth = 1;
  c.threads = 1;
  const RunResult serial = Trainer(c, task.model, task.train, task.test).run();
  c.threads = 4;
  const RunResult threaded = Trainer(c, task.model, task.train, task.test).run();
  EXPECT_EQ(threaded.final_parameters, serial.final_parameters);
  EXPECT_EQ(threaded.train_loss, serial.train_loss);
  c.threads = 0;  // hardware concurrency
  const RunResult hw = Trainer(c, task.model, task.train, task.test).run();
  EXPECT_EQ(hw.final_parameters, serial.final_parameters);
}

TEST(RoundPipeline, Depth1DiffersFromDepth0AndStillConverges) {
  // Staleness-1 gradients change the trajectory (from round 2 on), but
  // on a benign task the run must still reach a benign accuracy.
  SmallTask task;
  auto c = fast_config();
  c.gar = "average";
  c.num_byzantine = 0;
  c.steps = 150;
  const RunResult sync = Trainer(c, task.model, task.train, task.test).run();
  c.pipeline_depth = 1;
  const RunResult async = Trainer(c, task.model, task.train, task.test).run();
  EXPECT_NE(sync.final_parameters, async.final_parameters);
  EXPECT_GT(async.final_accuracy, 0.8);
}

TEST(RoundPipeline, Depth1FirstRoundMatchesSyncExactly) {
  // Round 1 is necessarily staleness-0: its gradients are computed at
  // θ_0 in both modes, so the first recorded loss must coincide.
  SmallTask task;
  auto c = fast_config().with_dp(0.5);
  const RunResult sync = Trainer(c, task.model, task.train, task.test).run();
  c.pipeline_depth = 1;
  const RunResult async = Trainer(c, task.model, task.train, task.test).run();
  EXPECT_EQ(sync.train_loss[0], async.train_loss[0]);
  EXPECT_NE(sync.train_loss.back(), async.train_loss.back());
}

TEST(RoundPipeline, Depth1ComposesWithRunSeedsParallel) {
  // A depth-1 run nested inside the pool (one seed per pool worker) must
  // neither deadlock nor diverge from the serial-seeds result.
  SmallTask task;
  auto c = fast_config().with_attack("little");
  c.num_byzantine = 2;
  c.num_workers = 11;
  c.pipeline_depth = 1;
  c.threads = 2;  // would fork from the fill thread if not pinned serial
  c.steps = 15;
  c.eval_every = 15;
  std::vector<RunResult> serial;
  for (uint64_t s = 1; s <= 2; ++s)
    serial.push_back(Trainer(c.with_seed(s), task.model, task.train, task.test).run());
  const auto parallel = parallel_map(size_t{2}, [&](size_t i) {
    return Trainer(c.with_seed(i + 1), task.model, task.train, task.test).run();
  });
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(parallel[i].final_parameters, serial[i].final_parameters);
    EXPECT_EQ(parallel[i].train_loss, serial[i].train_loss);
  }
}

// ---- participation --------------------------------------------------------

TEST(RoundPipelineParticipation, ScheduleIsDeterministicAndFloored) {
  ExperimentConfig c;
  c.participation = "iid";
  c.participation_prob = 0.5;
  std::vector<uint8_t> live_a, live_b;
  ParticipationSchedule a(c, 8, Rng(42));
  ParticipationSchedule b(c, 8, Rng(42));
  for (size_t t = 1; t <= 20; ++t) {
    const size_t ca = a.live_round(t, 8, live_a);
    const size_t cb = b.live_round(t, 8, live_b);
    EXPECT_EQ(live_a, live_b);
    EXPECT_EQ(ca, cb);
    EXPECT_GE(ca, 1u);  // the floor: never an empty honest round
  }

  // Extreme dropout: every round must still keep one worker live.
  c.participation_prob = 1e-9;
  ParticipationSchedule extreme(c, 8, Rng(7));
  std::vector<uint8_t> live;
  for (size_t t = 1; t <= 5; ++t) {
    EXPECT_EQ(extreme.live_round(t, 8, live), 1u);
    EXPECT_EQ(live[0], 1);  // lowest index forced back in
  }
}

TEST(RoundPipelineParticipation, StragglerScheduleIsPeriodic) {
  ExperimentConfig c;
  c.participation = "stragglers";
  c.num_stragglers = 3;
  c.straggler_period = 2;
  ParticipationSchedule sched(c, 8, Rng(1));
  std::vector<uint8_t> live;
  EXPECT_EQ(sched.live_round(1, 8, live), 5u);  // odd round: stragglers out
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(live[i], 1);
  for (size_t i = 5; i < 8; ++i) EXPECT_EQ(live[i], 0);
  EXPECT_EQ(sched.live_round(2, 8, live), 8u);  // even round: all deliver
}

TEST(RoundPipelineParticipation, FullyParticipatingSchedulesMatchFullBitwise) {
  // iid at p = 1 and stragglers at period 1 route through the engine but
  // never drop a worker — the trajectory must equal the synchronous
  // full-participation run bit for bit.  This is also the engine-vs-
  // legacy fill-order equivalence proof at depth 0.
  SmallTask task;
  auto c = fast_config().with_dp(0.5).with_attack("little");
  c.num_workers = 11;
  c.num_byzantine = 2;
  c.dropout_prob = 0.1;  // §2.1 zeroing must consume the same stream
  const RunResult full = Trainer(c, task.model, task.train, task.test).run();

  auto iid = c;
  iid.participation = "iid";
  iid.participation_prob = 1.0;
  const RunResult r_iid = Trainer(iid, task.model, task.train, task.test).run();
  EXPECT_EQ(r_iid.final_parameters, full.final_parameters);
  EXPECT_EQ(r_iid.train_loss, full.train_loss);
  EXPECT_EQ(r_iid.round_rows, full.round_rows);

  auto strag = c;
  strag.participation = "stragglers";
  strag.num_stragglers = 4;
  strag.straggler_period = 1;
  const RunResult r_strag = Trainer(strag, task.model, task.train, task.test).run();
  EXPECT_EQ(r_strag.final_parameters, full.final_parameters);
  EXPECT_EQ(r_strag.train_loss, full.train_loss);
}

TEST(RoundPipelineParticipation, CompactionPreservesRowContents) {
  // Benign average over a straggler round: the aggregate must equal the
  // mean of exactly the live workers' submissions, each bit-identical to
  // what the same worker computes in a full-participation run — i.e. the
  // compacted prefix holds the live rows, unchanged, in worker order.
  SmallTask task;
  auto c = fast_config();
  c.gar = "average";
  c.num_workers = 6;
  c.num_byzantine = 0;
  c.steps = 1;
  c.eval_every = 1;
  c.participation = "stragglers";
  c.num_stragglers = 2;  // workers 4, 5 miss round 1
  c.straggler_period = 2;

  const RunResult engine = Trainer(c, task.model, task.train, task.test).run();
  ASSERT_EQ(engine.round_rows, (std::vector<size_t>{4}));

  // Recompute the four live workers' submissions exactly as the trainer
  // seeds them (root seed -> "worker-i" streams), then aggregate by hand.
  Rng root(c.seed);
  auto mechanism = make_mechanism(c, task.model.dim());
  Vector expected(task.model.dim(), 0.0);
  for (size_t i = 0; i < 4; ++i) {
    HonestWorker w(task.model, task.train, c.batch_size, c.clip_norm, *mechanism,
                   root.derive("worker-" + std::to_string(i)), c.clip_enabled,
                   c.worker_momentum);
    vec::add_inplace(expected, w.submit(task.model.initial_parameters()));
  }
  vec::scale_inplace(expected, 1.0 / 4.0);

  // One SGD step from w0 with the hand-built aggregate.
  SgdOptimizer opt(task.model.dim(), constant_lr(c.learning_rate), c.momentum);
  Vector w = task.model.initial_parameters();
  opt.step(w, expected, 1);
  EXPECT_EQ(engine.final_parameters, w);
}

TEST(RoundPipelineParticipation, InadmissibleRoundBudgetThrows) {
  // krum at n = 11, f = 2 needs n' >= 2f + 3 = 7; a straggler round with
  // 6 stragglers leaves n' = 3 + 2 = 5 and must throw — deterministically,
  // on round 1 — with the round budget in the message.
  SmallTask task;
  auto c = fast_config().with_attack("little");
  c.num_workers = 11;
  c.num_byzantine = 2;
  c.gar = "krum";
  c.participation = "stragglers";
  c.num_stragglers = 6;
  c.straggler_period = 2;
  try {
    Trainer(c, task.model, task.train, task.test).run();
    FAIL() << "inadmissible round budget did not throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("n' = 5"), std::string::npos) << e.what();
  }
}

TEST(RoundPipelineParticipation, IidDropoutShrinksRoundsDeterministically) {
  // A real partial-participation run: robust GAR, varying n', depth 1 —
  // deterministic across repeats and across thread widths.
  SmallTask task;
  auto c = fast_config();
  c.num_workers = 12;
  c.num_byzantine = 1;
  c.gar = "median";
  c.participation = "iid";
  c.participation_prob = 0.75;
  c.pipeline_depth = 1;
  const RunResult a = Trainer(c, task.model, task.train, task.test).run();
  const RunResult b = Trainer(c, task.model, task.train, task.test).run();
  EXPECT_EQ(a.final_parameters, b.final_parameters);
  EXPECT_EQ(a.round_rows, b.round_rows);
  c.threads = 3;
  const RunResult threaded = Trainer(c, task.model, task.train, task.test).run();
  EXPECT_EQ(threaded.final_parameters, a.final_parameters);
  EXPECT_EQ(threaded.round_rows, a.round_rows);

  // The schedule actually bites: some round must have lost a worker.
  bool any_short = false;
  for (size_t rows : a.round_rows) {
    EXPECT_LE(rows, 12u);
    if (rows < 12u) any_short = true;
  }
  EXPECT_TRUE(any_short);
}

// ---- phase metrics --------------------------------------------------------

TEST(RoundPipelineMetrics, PhaseTimesAndRoundRowsAreRecorded) {
  SmallTask task;
  auto c = fast_config();
  const RunResult sync = Trainer(c, task.model, task.train, task.test).run();
  EXPECT_GT(sync.phase.fill, 0.0);
  EXPECT_GT(sync.phase.aggregate, 0.0);
  EXPECT_GE(sync.phase.apply, 0.0);
  EXPECT_EQ(sync.round_rows.size(), c.steps);
  for (size_t rows : sync.round_rows) EXPECT_EQ(rows, c.num_workers);

  c.pipeline_depth = 1;
  const RunResult async = Trainer(c, task.model, task.train, task.test).run();
  EXPECT_GE(async.phase.fill, 0.0);  // overlapped: may be near zero
  EXPECT_GT(async.phase.aggregate, 0.0);
  EXPECT_EQ(async.round_rows.size(), c.steps);
}

// ---- config plumbing ------------------------------------------------------

TEST(RoundPipelineConfig, ValidationAndLabel) {
  ExperimentConfig c;
  c.pipeline_depth = kMaxPipelineDepth + 1;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = ExperimentConfig{};
  c.pipeline_depth = kMaxPipelineDepth;
  EXPECT_NO_THROW(c.validate());
  c = ExperimentConfig{};
  c.straggler_policy = "sometimes";
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = ExperimentConfig{};
  c.straggler_policy = "adaptive";
  c.straggler_ema_alpha = 0.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = ExperimentConfig{};
  c.straggler_replay = {{1, 0}};  // replay requires the adaptive policy
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.straggler_policy = "adaptive";
  EXPECT_NO_THROW(c.validate());
  EXPECT_NE(c.label().find("+strag(replay)"), std::string::npos);
  c.straggler_replay = {{0, 0}};  // round out of [1, steps]
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = ExperimentConfig{};
  c.participation = "sometimes";
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = ExperimentConfig{};
  c.participation = "iid";
  c.participation_prob = 0.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = ExperimentConfig{};
  c.participation = "stragglers";
  c.straggler_period = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = ExperimentConfig{};
  c.participation = "stragglers";
  c.num_stragglers = 12;  // > honest count
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = ExperimentConfig{};
  c.pipeline_depth = 1;
  c.participation = "iid";
  EXPECT_NO_THROW(c.validate());
  const std::string label = c.label();
  EXPECT_NE(label.find("+p1"), std::string::npos);
  EXPECT_NE(label.find("+iid"), std::string::npos);
}

}  // namespace
}  // namespace dpbyz
