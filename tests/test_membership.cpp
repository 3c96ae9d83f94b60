// Tests for membership epochs (core/membership.hpp), the reputation gate
// (core/reputation.hpp) and their integration through the Trainer:
// churn-trace determinism and replay bit-identity, quarantine
// state-machine properties, budget renegotiation, the named
// inadmissibility error, and checkpoint round-trips of the manager.
//
// Membership* / MembershipTraining* run under the TSAN CI job: the
// depth-k churn runs drive the fill thread across epoch barriers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "core/experiment.hpp"
#include "core/membership.hpp"
#include "core/pipeline.hpp"
#include "core/reputation.hpp"
#include "core/server.hpp"
#include "core/trainer.hpp"

namespace dpbyz {
namespace {

ExperimentConfig churn_config() {
  ExperimentConfig c;
  c.steps = 40;
  c.eval_every = 10;
  c.batch_size = 10;
  c.churn = "epoch";
  c.churn_epoch_rounds = 5;
  c.churn_join_prob = 0.6;
  c.churn_leave_prob = 0.05;
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

/// Advance `m` across every boundary of `c`'s horizon with an inert
/// (time-gated) reputation book.
void drive(MembershipManager& m, const ExperimentConfig& c) {
  ExperimentConfig off = c;
  off.reputation = "off";
  ReputationBook rep(off, m.pool_size());
  for (size_t t = c.churn_epoch_rounds; t < c.steps; t += c.churn_epoch_rounds)
    m.advance(t, rep);
}

// ---- manager unit properties ---------------------------------------------

TEST(Membership, PoolSizeCoversOneJoinerPerBoundary) {
  ExperimentConfig c = churn_config();  // 40 steps, E = 5: boundaries 5..35
  EXPECT_EQ(MembershipManager::pool_size_for(c, 6), 6u + 7u);
  c.churn = "off";
  EXPECT_EQ(MembershipManager::pool_size_for(c, 6), 6u);
}

TEST(Membership, ChurnTraceIsDeterministicPerSeed) {
  const ExperimentConfig c = churn_config();
  MembershipManager a(c, 6, Rng(c.churn_seed).derive("churn"));
  MembershipManager b(c, 6, Rng(c.churn_seed).derive("churn"));
  drive(a, c);
  drive(b, c);
  EXPECT_EQ(a.trace(), b.trace());
  EXPECT_FALSE(a.trace().empty());  // the probabilities must actually bite

  // A different churn seed must (with these probabilities over 7
  // boundaries) produce a different event stream.
  MembershipManager other(c, 6, Rng(999).derive("churn"));
  drive(other, c);
  EXPECT_NE(a.trace(), other.trace());
}

TEST(Membership, QuarantineIsTimeGatedAndTerminalStatesAbsorb) {
  ExperimentConfig c = churn_config();
  c.steps = 1000;
  c.churn_epoch_rounds = 10;
  c.churn_join_prob = 1.0;  // a joiner every boundary until the pool runs out
  c.churn_leave_prob = 0.3;
  ExperimentConfig off = c;
  off.reputation = "off";

  MembershipManager m(c, 5, Rng(7));
  ReputationBook rep(off, m.pool_size());
  std::vector<uint32_t> quarantined_since(m.pool_size(), 0);
  for (size_t t = 10; t < c.steps; t += 10) {
    m.advance(t, rep);
    const size_t epoch = m.view().epoch;
    for (const ChurnEvent& ev : m.trace()) {
      if (ev.epoch != epoch) continue;
      if (ev.kind == ChurnEvent::Kind::kJoin) quarantined_since[ev.worker] = ev.epoch;
      // With reputation off, admission is purely time-based: never
      // before kQuarantineEpochs full epochs of auditing.
      if (ev.kind == ChurnEvent::Kind::kAdmit) {
        EXPECT_GE(ev.epoch - quarantined_since[ev.worker],
                  MembershipManager::kQuarantineEpochs);
      }
    }
  }
  // Terminal states absorb: no event may name a worker that already
  // left or was evicted, and pool slots are never reused.
  std::vector<bool> dead(m.pool_size(), false);
  std::vector<size_t> joins(m.pool_size(), 0);
  for (const ChurnEvent& ev : m.trace()) {
    EXPECT_FALSE(dead[ev.worker])
        << churn_kind_name(ev.kind) << " after terminal state, worker " << ev.worker;
    if (ev.kind == ChurnEvent::Kind::kJoin) joins[ev.worker]++;
    if (ev.kind == ChurnEvent::Kind::kLeave || ev.kind == ChurnEvent::Kind::kEvict)
      dead[ev.worker] = true;
  }
  for (size_t w = 0; w < m.pool_size(); ++w) EXPECT_LE(joins[w], 1u);
}

TEST(Membership, BudgetKeepsInitialRatioAndConfiguredCap) {
  ExperimentConfig c = churn_config();
  c.num_workers = 13;
  c.num_byzantine = 5;
  c.churn_leave_prob = 0.4;
  c.churn_join_prob = 0.0;
  MembershipManager m(c, 8, Rng(3));
  EXPECT_EQ(m.view().byzantine, 5u);  // epoch 0: the configured budget
  ExperimentConfig off = c;
  off.reputation = "off";
  ReputationBook rep(off, m.pool_size());
  for (size_t t = 5; t < c.steps; t += 5) {
    m.advance(t, rep);
    const size_t h = m.view().active.size();
    EXPECT_EQ(m.view().byzantine, std::min<size_t>(5, h * 5 / 8));
  }
}

TEST(Membership, AllWorkersGoneThrowsNamedError) {
  ExperimentConfig c = churn_config();
  c.churn_join_prob = 0.0;
  c.churn_leave_prob = 1.0;  // everyone leaves at the first boundary
  MembershipManager m(c, 3, Rng(1));
  ExperimentConfig off = c;
  off.reputation = "off";
  ReputationBook rep(off, m.pool_size());
  try {
    m.advance(5, rep);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("epoch 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("no active honest workers"), std::string::npos) << msg;
  }
}

TEST(Membership, SaveLoadRoundTripsRosterRngAndTrace) {
  const ExperimentConfig c = churn_config();
  MembershipManager a(c, 6, Rng(c.churn_seed).derive("churn"));
  ExperimentConfig off = c;
  off.reputation = "off";
  ReputationBook rep(off, a.pool_size());
  a.advance(5, rep);
  a.advance(10, rep);

  std::stringstream ss;
  a.save(ss);
  MembershipManager b(c, 6, Rng(0));  // deliberately wrong RNG seed
  b.load(ss);
  EXPECT_EQ(b.trace(), a.trace());
  EXPECT_EQ(b.view().epoch, a.view().epoch);
  EXPECT_EQ(b.view().active, a.view().active);
  EXPECT_EQ(b.view().quarantined, a.view().quarantined);
  EXPECT_EQ(b.view().byzantine, a.view().byzantine);

  // The restored churn RNG must continue the original stream exactly.
  for (size_t t = 15; t < c.steps; t += 5) {
    a.advance(t, rep);
    b.advance(t, rep);
  }
  EXPECT_EQ(b.trace(), a.trace());

  // Hostile words in an intact record are rejected by name.  The blob
  // opens with epoch, next_join, the pool size and slot 0's state, and
  // ends with the last event's (epoch, kind, worker).
  std::ostringstream os;
  a.save(os);
  const std::string blob = os.str();
  ASSERT_FALSE(a.trace().empty());
  const size_t state0 = 3 * 8, kind = blob.size() - 16, worker = blob.size() - 8;
  const auto load_with = [&](size_t offset, uint64_t word) -> std::string {
    std::string bytes = blob;
    std::memcpy(bytes.data() + offset, &word, sizeof word);  // codec words are LE
    std::istringstream is(bytes);
    MembershipManager m(c, 6, Rng(0));
    try {
      m.load(is);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "loaded";
  };
  for (const uint64_t state : {4u, 6u, 1u << 8})  // 4 was the retired crashed state
    EXPECT_NE(load_with(state0, state).find("worker state"), std::string::npos) << state;
  for (const uint64_t k : {2u, 5u, 1u << 8})  // 2 was the retired crash event
    EXPECT_NE(load_with(kind, k).find("event kind"), std::string::npos) << k;
  EXPECT_NE(load_with(worker, a.pool_size()).find("outside the pool"), std::string::npos);
  EXPECT_EQ(load_with(worker, a.pool_size() - 1), "loaded");
}

// ---- reputation gate ------------------------------------------------------

TEST(Membership, ReputationScoresInliersUpAndOutliersDown) {
  // Live d^2 = 0.5 for every row; the shadow row's d^2 = 4900.5 is far
  // past the inlier bar kOutlier^2 x 0.5 = 8.
  const ExperimentConfig c = churn_config();
  ReputationBook rep(c, 4);
  ASSERT_TRUE(rep.enabled());

  // 3 live rows near the aggregate, one shadow row far away.
  GradientBatch live(3, 2), shadow(1, 2);
  live.set_row(0, Vector{1.0, 0.0});
  live.set_row(1, Vector{0.0, 1.0});
  live.set_row(2, Vector{1.0, 1.0});
  shadow.set_row(0, Vector{50.0, 50.0});
  const Vector agg{0.5, 0.5};
  const std::vector<uint32_t> live_ids{0, 1, 2}, shadow_ids{3};
  for (int r = 0; r < 30; ++r)
    rep.observe_round(live, 3, live_ids, shadow, shadow_ids, agg);
  EXPECT_GT(rep.score(0), 0.95);
  EXPECT_GT(rep.score(2), 0.95);
  EXPECT_LT(rep.score(3), 0.05);
  EXPECT_TRUE(rep.admits(0));
  EXPECT_FALSE(rep.admits(3));
  EXPECT_TRUE(rep.evicts(3));
}

TEST(Membership, ReputationOffIsPermissiveAndInert) {
  ExperimentConfig c = churn_config();
  c.reputation = "off";
  ReputationBook rep(c, 2);
  EXPECT_FALSE(rep.enabled());
  EXPECT_TRUE(rep.admits(0));
  EXPECT_FALSE(rep.evicts(0));
  GradientBatch live(1, 2), shadow(0, 2);
  live.set_row(0, Vector{100.0, 100.0});
  rep.observe_round(live, 1, std::vector<uint32_t>{0}, shadow, {}, Vector{0.0, 0.0});
  EXPECT_DOUBLE_EQ(rep.score(0), 0.5);  // untouched
}

TEST(Membership, ReputationSaveLoadRoundTripsBitExactly) {
  ExperimentConfig c = churn_config();
  ReputationBook a(c, 3);
  GradientBatch live(2, 1), shadow(1, 1);
  live.set_row(0, Vector{0.25});
  live.set_row(1, Vector{0.5});
  shadow.set_row(0, Vector{7.0});
  a.observe_round(live, 2, std::vector<uint32_t>{0, 1}, shadow,
                  std::vector<uint32_t>{2}, Vector{0.3});
  std::stringstream ss;
  a.save(ss);
  ReputationBook b(c, 3);
  b.load(ss);
  EXPECT_EQ(b.scores(), a.scores());
}

TEST(Membership, ReputationLoadRejectsScoresOutsideTheUnitInterval) {
  // CRC-valid blobs whose words decode to scores no update can produce:
  // a NaN score would never be admitted nor evicted.
  const ExperimentConfig c = churn_config();
  ReputationBook a(c, 3);
  std::ostringstream os;
  a.save(os);
  const std::string blob = os.str();  // enabled, count, then the 3 scores
  for (const double forged : {std::nan(""), -5.0, 1e300}) {
    std::string bytes = blob;
    std::memcpy(bytes.data() + 3 * 8, &forged, sizeof forged);  // worker 1
    std::istringstream is(bytes);
    ReputationBook b(c, 3);
    try {
      b.load(is);
      ADD_FAILURE() << "loaded score " << forged;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("score of worker 1"), std::string::npos)
          << e.what();
    }
  }
}

// ---- renegotiation --------------------------------------------------------

TEST(Membership, RenegotiationInadmissibilityNamesEpochAndBudget) {
  ExperimentConfig c;
  c.gar = "krum";
  c.num_workers = 11;
  c.num_byzantine = 4;  // krum needs n >= 2f + 3: 11 >= 11 at (11, 4)
  ParameterServer server(make_round_aggregator(c, 11),
                         SgdOptimizer(3, constant_lr(0.1), 0.0), Vector{0, 0, 0});
  try {
    server.renegotiate(c, 3, 4, 2);  // krum at (4, 2) needs n >= 7
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("epoch 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("n = 4"), std::string::npos) << msg;
    EXPECT_NE(msg.find("f = 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("inadmissible"), std::string::npos) << msg;
    EXPECT_NE(msg.find("krum"), std::string::npos) << msg;
  }
}

// ---- trainer integration --------------------------------------------------

TEST(MembershipTraining, ChurnRunsReplayBitIdentically) {
  SmallTask task;
  ExperimentConfig c = churn_config();
  const RunResult a = Trainer(c, task.model, task.train, task.test).run();
  const RunResult b = Trainer(c, task.model, task.train, task.test).run();
  EXPECT_EQ(a.churn_trace, b.churn_trace);
  EXPECT_FALSE(a.churn_trace.empty());
  EXPECT_EQ(a.train_loss, b.train_loss);
  EXPECT_EQ(a.final_parameters, b.final_parameters);
  EXPECT_EQ(a.round_rows, b.round_rows);
  EXPECT_EQ(a.round_f, b.round_f);
  EXPECT_EQ(a.reputation_scores, b.reputation_scores);

  // The churn seed is its own axis: same seed, different churn stream.
  ExperimentConfig other = c;
  other.churn_seed = 99;
  const RunResult o = Trainer(other, task.model, task.train, task.test).run();
  EXPECT_NE(o.churn_trace, a.churn_trace);
}

TEST(MembershipTraining, ChurnOffMatchesFixedRosterBitwise) {
  // The elasticity layer must be inert when disabled: a churn-off run
  // through the refactored trainer equals the fixed-roster trajectory
  // (also pinned by the golden suites; this is the direct A/B).
  SmallTask task;
  ExperimentConfig c = churn_config();
  c.churn = "off";
  const RunResult a = Trainer(c, task.model, task.train, task.test).run();
  EXPECT_TRUE(a.churn_trace.empty());
  EXPECT_TRUE(a.reputation_scores.empty());
  ASSERT_EQ(a.round_f.size(), c.steps);
  for (size_t fe : a.round_f) EXPECT_EQ(fe, c.num_byzantine);
}

TEST(MembershipTraining, RoundRowsTrackTheRosterAcrossEpochs) {
  SmallTask task;
  ExperimentConfig c = churn_config();
  c.churn_leave_prob = 0.1;
  c.attack_enabled = true;
  c.attack = "little";
  c.num_workers = 11;
  c.num_byzantine = 3;
  const RunResult r = Trainer(c, task.model, task.train, task.test).run();
  ASSERT_EQ(r.round_rows.size(), c.steps);
  ASSERT_EQ(r.round_f.size(), c.steps);
  // Reconstruct each round's expected (n', f') from the churn trace: the
  // roster is constant within an epoch and f' = min(f0, h * f0 / h0).
  const size_t h0 = c.num_workers - c.num_byzantine;
  size_t h = h0;
  std::vector<size_t> h_of_epoch{h};
  for (const ChurnEvent& ev : r.churn_trace) {
    while (h_of_epoch.size() <= ev.epoch) h_of_epoch.push_back(h);
    if (ev.kind == ChurnEvent::Kind::kAdmit) ++h;
    if (ev.kind == ChurnEvent::Kind::kLeave || ev.kind == ChurnEvent::Kind::kEvict)
      --h;
    h_of_epoch.back() = h;
  }
  for (size_t t = 1; t <= c.steps; ++t) {
    const size_t epoch = std::min((t - 1) / c.churn_epoch_rounds, h_of_epoch.size() - 1);
    const size_t he = h_of_epoch[epoch];
    const size_t fe = std::min(c.num_byzantine, he * c.num_byzantine / h0);
    EXPECT_EQ(r.round_f[t - 1], fe) << "round " << t;
    EXPECT_EQ(r.round_rows[t - 1], he + fe) << "round " << t;
  }
}

TEST(MembershipTraining, DepthedChurnMatchesAcrossThreadWidths) {
  // Epoch barriers + ring dispatch must stay deterministic across
  // `threads` (the TSAN job stresses this file for the same reason).
  SmallTask task;
  ExperimentConfig c = churn_config();
  c.pipeline_depth = 2;
  c.attack_enabled = true;
  c.attack = "little";
  c.num_workers = 11;
  c.num_byzantine = 3;
  c.threads = 1;
  ExperimentConfig threaded = c;
  threaded.threads = 4;
  const RunResult a = Trainer(c, task.model, task.train, task.test).run();
  const RunResult b = Trainer(threaded, task.model, task.train, task.test).run();
  EXPECT_EQ(a.train_loss, b.train_loss);
  EXPECT_EQ(a.final_parameters, b.final_parameters);
  EXPECT_EQ(a.churn_trace, b.churn_trace);
}

}  // namespace
}  // namespace dpbyz
