// Tests for the k-slot ring of the round engine (core/pipeline.hpp):
// depth-k golden trajectories (captured from this build and frozen),
// per-seed determinism and thread-width bit-equality at every depth,
// ring-slot rotation preserving compacted row contents, the staleness
// schedule (rounds 1..k+1 fill at θ_0), short-run edges, pool
// composition, and the phase-accounting invariant
// fill + aggregate + apply <= wall-clock.
//
// Every RoundPipelineRing* test runs under the TSAN CI job (the
// RoundPipeline* filter covers them): depth >= 1 exercises the
// dispatched_/filled_ counter handshake and the fill-on-ThreadPool
// dispatch concurrently with the aggregating main thread.
#include <gtest/gtest.h>

#include <cmath>

#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "core/trainer.hpp"
#include "utils/parallel.hpp"
#include "utils/stopwatch.hpp"

namespace dpbyz {
namespace {

/// Same task as test_pipeline's SmallTask — the goldens below belong to
/// exactly this dataset/model.
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

/// The PR-3 golden config: paper-default mda n=11 f=5, DP eps=0.5, the
/// "little" attack — the exact setting the depth-0 goldens pin.
ExperimentConfig golden_config() {
  ExperimentConfig c;
  c.steps = 30;
  c.eval_every = 10;
  c.batch_size = 10;
  c.dp_enabled = true;
  c.epsilon = 0.5;
  c.attack_enabled = true;
  c.attack = "little";
  return c;
}

ExperimentConfig fast_config() {
  ExperimentConfig c;
  c.steps = 40;
  c.eval_every = 10;
  c.batch_size = 10;
  return c;
}

// ---- depth-k goldens: each staleness level is frozen ----------------------

// Captured from this build (hexfloat: exact doubles) and frozen: any
// change to a depth-k trajectory is a staleness-semantics regression,
// not a tolerance question.  Depth 1 doubles as the ring-vs-PR-4
// double-buffer equivalence pin: these values were produced by the ring
// generalization and match the two-slot engine's schedule (fill(t) at
// θ_{t-2}) by construction.
TEST(RoundPipelineRingGolden, Depth1DpAttackTrajectoryPinned) {
  SmallTask task;
  auto c = golden_config();
  c.pipeline_depth = 1;
  const RunResult r = Trainer(c, task.model, task.train, task.test).run();
  const Vector want{-0x1.b5368ecfc5261p+0, 0x1.4668fa9364b56p+0,
                    0x1.e7e103299ee23p-1,  -0x1.0d7b793bd3049p+0,
                    -0x1.fd6316541ebfp-1,  0x1.05e1d3fd3e49ap+1,
                    0x1.a8c11e6cf6a0dp+0};
  EXPECT_EQ(r.final_parameters, want);
  EXPECT_EQ(r.train_loss.front(), 0x1p-2);
  EXPECT_EQ(r.train_loss.back(), 0x1.267d823eb6f75p-4);
  EXPECT_EQ(r.final_accuracy, 0x1.ae147ae147ae1p-1);
}

TEST(RoundPipelineRingGolden, Depth2DpAttackTrajectoryPinned) {
  SmallTask task;
  auto c = golden_config();
  c.pipeline_depth = 2;
  const RunResult r = Trainer(c, task.model, task.train, task.test).run();
  const Vector want{-0x1.db7f5ab2b9b94p+0, 0x1.36e4cc41b8079p+0,
                    0x1.f6fab3a80dc98p-1,  -0x1.29cf942056812p+0,
                    -0x1.f8d334396c779p-1, 0x1.0cbc30401eb6ep+1,
                    0x1.b157882f07bddp+0};
  EXPECT_EQ(r.final_parameters, want);
  EXPECT_EQ(r.train_loss.back(), 0x1.132ba0b6f35a9p-4);
  EXPECT_EQ(r.final_accuracy, 0x1.b851eb851eb85p-1);
}

TEST(RoundPipelineRingGolden, Depth4DpAttackTrajectoryPinned) {
  SmallTask task;
  auto c = golden_config();
  c.pipeline_depth = 4;
  const RunResult r = Trainer(c, task.model, task.train, task.test).run();
  const Vector want{-0x1.170bd0c6e83aep+1, 0x1.3b046ba72f7bcp+0,
                    0x1.f6845b54bf7acp-1,  -0x1.4cd4fde0b0082p+0,
                    -0x1.30112459d5415p+0, 0x1.177736e0eacbfp+1,
                    0x1.c1dfebad49258p+0};
  EXPECT_EQ(r.final_parameters, want);
  EXPECT_EQ(r.train_loss.back(), 0x1.f1089a4e796bfp-5);
  EXPECT_EQ(r.final_accuracy, 0x1.c28f5c28f5c29p-1);
}

TEST(RoundPipelineRingGolden, Depth0StillBitEqualToPr3Seed) {
  // The ring at depth 0 degenerates to one slot filled synchronously —
  // the PR-3 seed trajectory must survive the generalization untouched
  // (same golden as test_pipeline.cpp, re-pinned here so this file
  // fails standalone if the ring ever perturbs the depth-0 path).
  SmallTask task;
  auto c = golden_config();
  ASSERT_EQ(c.pipeline_depth, 0u);
  const RunResult r = Trainer(c, task.model, task.train, task.test).run();
  const Vector want{-0x1.928e66fa08f44p+0, 0x1.3e1b37687aafep+0,
                    0x1.e17c03cb6b146p-1,  -0x1.00e309994f3p+0,
                    -0x1.dea056d5be499p-1, 0x1.fac2c0828ccaep+0,
                    0x1.9dfd725272385p+0};
  EXPECT_EQ(r.final_parameters, want);
}

// ---- determinism across repeats and thread widths -------------------------

TEST(RoundPipelineRing, DeterministicGivenSeedAtEveryDepth) {
  SmallTask task;
  for (size_t depth : {2u, 4u, 8u}) {
    auto c = fast_config().with_dp(0.5).with_attack("little");
    c.pipeline_depth = depth;
    const RunResult a = Trainer(c, task.model, task.train, task.test).run();
    const RunResult b = Trainer(c, task.model, task.train, task.test).run();
    EXPECT_EQ(a.final_parameters, b.final_parameters) << "depth " << depth;
    EXPECT_EQ(a.train_loss, b.train_loss) << "depth " << depth;
  }
}

TEST(RoundPipelineRing, ThreadWidthsBitEqualAtEveryDepth) {
  // Up to k fills run ahead on the fill thread — serially or dispatched
  // across the shared pool — while the main thread aggregates; none of
  // that may change a single bit, at any depth.
  SmallTask task;
  for (size_t depth : {0u, 1u, 2u, 4u}) {
    auto c = fast_config().with_dp(0.5).with_attack("little");
    c.num_workers = 12;
    c.num_byzantine = 2;
    c.gar = "median";
    c.worker_momentum = 0.5;
    c.pipeline_depth = depth;
    c.threads = 1;
    const RunResult serial = Trainer(c, task.model, task.train, task.test).run();
    c.threads = 4;
    const RunResult threaded = Trainer(c, task.model, task.train, task.test).run();
    EXPECT_EQ(threaded.final_parameters, serial.final_parameters) << "depth " << depth;
    EXPECT_EQ(threaded.train_loss, serial.train_loss) << "depth " << depth;
    c.threads = 0;  // hardware concurrency
    const RunResult hw = Trainer(c, task.model, task.train, task.test).run();
    EXPECT_EQ(hw.final_parameters, serial.final_parameters) << "depth " << depth;
  }
}

// ---- staleness schedule ---------------------------------------------------

TEST(RoundPipelineRing, FirstKPlusOneRoundsFillAtTheta0) {
  // fill(t) runs at θ_{max(0, t-1-k)}: rounds 1..k+1 all fill at θ_0,
  // so two runs differing only in depth must agree on the first
  // min(k,k')+1 recorded losses and diverge right after (worker RNG
  // streams advance once per round either way).
  SmallTask task;
  auto c = fast_config().with_dp(0.5);
  c.pipeline_depth = 2;
  const RunResult d2 = Trainer(c, task.model, task.train, task.test).run();
  c.pipeline_depth = 4;
  const RunResult d4 = Trainer(c, task.model, task.train, task.test).run();
  for (size_t t = 0; t < 3; ++t)  // rounds 1..3: θ_0 under both depths
    EXPECT_EQ(d2.train_loss[t], d4.train_loss[t]) << "round " << t + 1;
  EXPECT_NE(d2.train_loss[3], d4.train_loss[3]);  // round 4: θ_1 vs θ_0
  c.pipeline_depth = 0;
  const RunResult sync = Trainer(c, task.model, task.train, task.test).run();
  EXPECT_EQ(sync.train_loss[0], d2.train_loss[0]);  // round 1 is always θ_0
  EXPECT_NE(sync.train_loss[1], d2.train_loss[1]);
}

TEST(RoundPipelineRing, DeeperStalenessStillConvergesBenign) {
  // Staleness-4 gradients change the trajectory but must not break a
  // benign task (the convergence-vs-staleness sweep in
  // bench_gar_scaling quantifies the robust-GAR cases).
  SmallTask task;
  auto c = fast_config();
  c.gar = "average";
  c.num_byzantine = 0;
  c.steps = 150;
  c.pipeline_depth = 4;
  const RunResult r = Trainer(c, task.model, task.train, task.test).run();
  EXPECT_GT(r.final_accuracy, 0.8);
}

TEST(RoundPipelineRing, RunsShorterThanDepthStillComplete) {
  // steps < k: the prologue dispatches only min(k, steps) rounds and no
  // successor fill is ever dispatched — the run must terminate, produce
  // every round, and stay deterministic.
  SmallTask task;
  auto c = fast_config().with_dp(0.5).with_attack("little");
  c.steps = 2;
  c.eval_every = 2;
  c.pipeline_depth = 4;
  const RunResult a = Trainer(c, task.model, task.train, task.test).run();
  const RunResult b = Trainer(c, task.model, task.train, task.test).run();
  EXPECT_EQ(a.round_rows.size(), 2u);
  EXPECT_EQ(a.final_parameters, b.final_parameters);
}

// ---- ring rotation & compaction -------------------------------------------

TEST(RoundPipelineRing, SlotRotationPreservesCompactedRows) {
  // Depth-2 ring, 4 rounds, straggler schedule (workers 4, 5 miss odd
  // rounds), benign average: replay the engine's exact fill order by
  // hand — rounds filled strictly in order, live workers in index order
  // within a round, fill(t) at θ_{max(0, t-3)} — and demand the engine's
  // trajectory bit for bit.  Any slot-reuse bug (stale rows surviving a
  // rotation, compaction displacing a row, a snapshot overwritten while
  // in use) breaks the equality.
  SmallTask task;
  auto c = fast_config();
  c.gar = "average";
  c.num_workers = 6;
  c.num_byzantine = 0;
  c.steps = 4;
  c.eval_every = 4;
  c.participation = "stragglers";
  c.num_stragglers = 2;
  c.straggler_period = 2;
  c.pipeline_depth = 2;

  const RunResult engine = Trainer(c, task.model, task.train, task.test).run();
  ASSERT_EQ(engine.round_rows, (std::vector<size_t>{4, 6, 4, 6}));

  // Hand simulation with the trainer's exact worker streams.
  Rng root(c.seed);
  auto mechanism = make_mechanism(c, task.model.dim());
  std::vector<HonestWorker> workers;
  for (size_t i = 0; i < 6; ++i)
    workers.emplace_back(task.model, task.train, c.batch_size, c.clip_norm,
                         *mechanism, root.derive("worker-" + std::to_string(i)),
                         c.clip_enabled, c.worker_momentum);
  SgdOptimizer opt(task.model.dim(), constant_lr(c.learning_rate), c.momentum);
  const Vector theta0 = task.model.initial_parameters();

  auto fill = [&](size_t live, const Vector& p, double& loss_sum) {
    Vector g(task.model.dim(), 0.0);
    loss_sum = 0.0;
    for (size_t i = 0; i < live; ++i) {
      vec::add_inplace(g, workers[i].submit(p));
      loss_sum += workers[i].last_batch_loss();
    }
    vec::scale_inplace(g, 1.0 / static_cast<double>(live));
    return g;
  };

  // Fills 1..3 all run at θ_0 (t - 1 - k <= 0); fill 4 is dispatched at
  // acquire(2) with θ_1.
  double l1, l2, l3, l4;
  const Vector g1 = fill(4, theta0, l1);
  const Vector g2 = fill(6, theta0, l2);
  const Vector g3 = fill(4, theta0, l3);
  Vector w = theta0;
  opt.step(w, g1, 1);
  const Vector theta1 = w;
  const Vector g4 = fill(6, theta1, l4);
  opt.step(w, g2, 2);
  opt.step(w, g3, 3);
  opt.step(w, g4, 4);

  EXPECT_EQ(engine.final_parameters, w);
  EXPECT_EQ(engine.train_loss,
            (std::vector<double>{l1 / 4, l2 / 6, l3 / 4, l4 / 6}));
}

// ---- pool composition -----------------------------------------------------

TEST(RoundPipelineRing, Depth2ComposesWithRunSeedsParallel) {
  // A depth-2 run nested inside the pool (one seed per pool worker) must
  // neither deadlock nor diverge from the serial-seeds result.
  SmallTask task;
  auto c = fast_config().with_attack("little");
  c.num_byzantine = 2;
  c.num_workers = 11;
  c.pipeline_depth = 2;
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

// ---- phase accounting -----------------------------------------------------

TEST(RoundPipelineRingMetrics, PhaseSumStaysWithinWallClock) {
  // The accounting regression the ring fix targets: `fill` must count
  // only blocked time for the acquired round, never the k fills running
  // behind earlier rounds — otherwise the phase sum overshoots the wall
  // clock as depth grows.  All three phases are disjoint intervals on
  // the caller thread, so their sum is bounded by the run's wall time
  // (small slack for timer granularity).
  SmallTask task;
  for (size_t depth : {0u, 2u, 4u}) {
    auto c = fast_config().with_dp(0.5).with_attack("little");
    c.pipeline_depth = depth;
    Stopwatch wall;
    const RunResult r = Trainer(c, task.model, task.train, task.test).run();
    const double elapsed = wall.seconds();
    const double phase_sum = r.phase.fill + r.phase.aggregate + r.phase.apply;
    EXPECT_LE(phase_sum, elapsed * 1.05 + 1e-3) << "depth " << depth;
    EXPECT_GT(r.phase.fill_busy, 0.0) << "depth " << depth;
  }

  // Depth 0 nests the busy window strictly inside the wait window.
  auto c = fast_config();
  const RunResult sync = Trainer(c, task.model, task.train, task.test).run();
  EXPECT_GE(sync.phase.fill, sync.phase.fill_busy);
}

}  // namespace
}  // namespace dpbyz
