// Tests for the recursive HierarchicalAggregator: L = 1 outputs pinned
// to the retired two-level sharded aggregator's (golden, incl.
// adversarial ties), B = 1 bit-identity with the flat rules, threading
// and the framed-but-ideal wire, child partition and recursive budget
// derivation, admissibility failures naming the node path, resilience
// under concentrated Byzantine rows, the size-weighted average merge,
// the config/trainer plumbing, and the lossy-channel properties —
// bit-reproducible runs, stats in RunResult, and the substitution budget.
#include "aggregation/hierarchical.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>

#include "core/experiment.hpp"
#include "core/trainer.hpp"
#include "math/gradient_batch.hpp"
#include "math/rng.hpp"

#include "bits_digest.hpp"

namespace dpbyz {
namespace {

/// Seeded cluster of rows around a shifted mean, the honest population.
GradientBatch honest_batch(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  GradientBatch batch(n, d);
  for (size_t i = 0; i < n; ++i) {
    const Vector v = rng.normal_vector(d, 1.0);
    batch.set_row(i, v);
    batch.row(i)[0] += 2.0;
  }
  return batch;
}

Vector aggregate_with(const Aggregator& agg, const GradientBatch& batch) {
  AggregatorWorkspace ws;
  const auto view = agg.aggregate(batch, ws);
  return Vector(view.begin(), view.end());
}

using testing_support::bits_digest;

// ---- L = 1 golden: one level is the two-level sharded topology -------------
// The pins are digests of the outputs of the two-level ShardedAggregator
// (S = 3) this tree replaced, recorded before its removal; the L = 1 tree
// was golden-tested bit-identical to it on these exact inputs.

TEST(HierarchicalGolden, L1BitIdenticalToShardedForEveryRule) {
  // n = 21 over B = 3 gives 7-row leaves at f_child = ceil(2/3) = 1 —
  // admissible for every registered rule incl. bulyan (4f + 3 = 7).
  const std::map<std::string, uint64_t> sharded_pins{
      {"average", 0x986cfb1e455883adULL},      {"krum", 0x908abd8a47719b6fULL},
      {"multi-krum", 0x5701beb11185de87ULL},   {"mda", 0x7417d6d76ae5d98dULL},
      {"mda_greedy", 0x7417d6d76ae5d98dULL},   {"median", 0x792e4cdfb324cd37ULL},
      {"trimmed-mean", 0x80852b8ed0130157ULL}, {"bulyan", 0x16d31948791219b5ULL},
      {"meamed", 0x003289abd0cd197dULL},       {"phocas", 0x01d55ea69ea75badULL},
      {"cge", 0x7b96d16cad3af2b8ULL},          {"geometric-median", 0x1375e068ac49d56bULL}};
  const size_t n = 21, f = 2, d = 29;
  const GradientBatch batch = honest_batch(n, d, 7);
  ASSERT_EQ(sharded_pins.size(), aggregator_names().size());
  for (const std::string& gar : aggregator_names()) {
    const HierarchicalAggregator tree(gar, "median", n, f, /*levels=*/1, /*branch=*/3);
    EXPECT_EQ(bits_digest(aggregate_with(tree, batch)), sharded_pins.at(gar))
        << "L=1 tree " << gar << " diverged from the pinned sharded output";
  }
}

TEST(HierarchicalGolden, L1BitIdenticalOnAdversarialDuplicates) {
  // Colluding adversary: f identical extreme rows, the tie-heavy shape
  // that exposes any ordering difference between the two paths.
  const std::map<std::string, uint64_t> sharded_pins{
      {"average", 0xc59ebcc0a51bbb0bULL},      {"krum", 0xa4682a55e10ccc74ULL},
      {"multi-krum", 0x0d862aeadb30f300ULL},   {"mda", 0xc7a928678f66a604ULL},
      {"mda_greedy", 0xc7a928678f66a604ULL},   {"median", 0x4beec95677959b36ULL},
      {"trimmed-mean", 0xaf242cf8d057fe52ULL}, {"bulyan", 0xaa89096c6d7e30efULL},
      {"meamed", 0x83d4b02546b32c4dULL},       {"phocas", 0x9d2aae9aa72db5a7ULL},
      {"cge", 0xc622b32cc4cc0f58ULL},          {"geometric-median", 0xfcce220d2c78f1b8ULL}};
  const size_t n = 21, f = 2, d = 13;
  GradientBatch batch = honest_batch(n, d, 9);
  for (size_t i = n - f; i < n; ++i) {
    for (size_t c = 0; c < d; ++c) batch.row(i)[c] = 1e3;
  }
  ASSERT_EQ(sharded_pins.size(), aggregator_names().size());
  for (const std::string& gar : aggregator_names()) {
    const HierarchicalAggregator tree(gar, "median", n, f, 1, 3);
    EXPECT_EQ(bits_digest(aggregate_with(tree, batch)), sharded_pins.at(gar)) << gar;
  }
}

TEST(HierarchicalGolden, B1BitIdenticalToFlat) {
  // One child is the whole batch and the median of one row is that row:
  // the degenerate tree must reproduce the flat rule exactly, on random
  // and on tie-heavy adversarial inputs.
  const size_t n = 11, f = 2;
  GradientBatch random = honest_batch(n, 33, 7);
  GradientBatch duplicates = honest_batch(n, 17, 9);
  for (size_t i = n - f; i < n; ++i) {
    for (size_t c = 0; c < 17; ++c) duplicates.row(i)[c] = 1e3;
  }
  for (const std::string& gar : aggregator_names()) {
    const HierarchicalAggregator tree(gar, "median", n, f, /*levels=*/1, /*branch=*/1);
    const auto flat = make_aggregator(gar, n, f);
    EXPECT_EQ(aggregate_with(tree, random), aggregate_with(*flat, random)) << gar;
    EXPECT_EQ(aggregate_with(tree, duplicates), aggregate_with(*flat, duplicates)) << gar;
  }
}

TEST(HierarchicalGolden, ThreadedDispatchMatchesSerialBitForBit) {
  // n = 45 over L = 2, B = 3: 15-row children, 5-row krum leaves at
  // f_child = 1 (exactly the 2f + 3 floor).
  const size_t n = 45, f = 2, d = 64;
  const GradientBatch batch = honest_batch(n, d, 31);
  const HierarchicalAggregator serial("krum", "median", n, f, 2, 3, /*threads=*/1);
  const HierarchicalAggregator threaded("krum", "median", n, f, 2, 3, /*threads=*/4);
  // threads = 0 means hardware concurrency — the parallel path, not a
  // silent fallback to serial.
  const HierarchicalAggregator hw_threads("krum", "median", n, f, 2, 3, /*threads=*/0);
  const Vector want = aggregate_with(serial, batch);
  for (int rep = 0; rep < 3; ++rep) {
    EXPECT_EQ(aggregate_with(threaded, batch), want);
    EXPECT_EQ(aggregate_with(hw_threads, batch), want);
  }
}

TEST(HierarchicalGolden, IdealFramedLinkStaysBitIdentical) {
  // raw64 frames over a fault-free channel: every edge encodes, ships
  // and reassembles byte-exactly, so the framed tree must equal the
  // in-memory tree (and hence the sharded pins above) bit for bit.
  const size_t n = 21, f = 2, d = 23;
  const GradientBatch batch = honest_batch(n, d, 15);
  const net::LinkConfig link;  // raw64, no faults
  for (const std::string& gar : aggregator_names()) {
    const HierarchicalAggregator framed(gar, "median", n, f, 1, 3, 1, &link);
    const HierarchicalAggregator plain(gar, "median", n, f, 1, 3);
    EXPECT_TRUE(framed.framed());
    EXPECT_FALSE(plain.framed());
    EXPECT_EQ(aggregate_with(framed, batch), aggregate_with(plain, batch)) << gar;
  }
  // The ideal link still pushes real frames: stats count them.
  const HierarchicalAggregator framed("median", "median", n, f, 1, 3, 1, &link);
  aggregate_with(framed, batch);
  const net::ChannelStats stats = framed.channel_stats();
  EXPECT_EQ(stats.frames_sent, 3u);  // one chunk per child edge at d = 23
  EXPECT_EQ(stats.frames_delivered, 3u);
  EXPECT_EQ(stats.frames_dropped, 0u);
  EXPECT_EQ(stats.rows_substituted, 0u);
}

// ---- recursive budget derivation -------------------------------------------

TEST(Hierarchical, BudgetRecursesTheStageBoundPerLevel) {
  // n = 27, f = 3, L = 2, B = 3: the root provisions child_f =
  // ceil(3/3) = 1 and merges at f_merge = floor(3/2) = 1; each child is
  // a (9, 1) one-level tree with child_f = 1 and f_merge = floor(1/2) =
  // 0 over its three 3-row median leaves.
  const HierarchicalAggregator tree("median", "median", 27, 3, 2, 3);
  EXPECT_EQ(tree.levels(), 2u);
  EXPECT_EQ(tree.branch(), 3u);
  EXPECT_EQ(tree.child_f(), 1u);
  EXPECT_EQ(tree.merge_f(), 1u);
  EXPECT_EQ(tree.merge_rule().n(), 3u);
  EXPECT_EQ(tree.merge_rule().f(), 1u);
  EXPECT_EQ(tree.name(), "tree(median/median,L=2,B=3)");

  // Children partition the rows contiguously, sizes within one.
  size_t expected_lo = 0;
  for (size_t b = 0; b < tree.branch(); ++b) {
    const auto [lo, hi] = tree.child_range(b);
    EXPECT_EQ(lo, expected_lo);
    EXPECT_EQ(hi - lo, 9u);
    expected_lo = hi;
  }
  EXPECT_EQ(expected_lo, 27u);
  EXPECT_THROW(tree.child_range(3), std::invalid_argument);

  // Each child really is the recursive case with the derived budget.
  const auto* sub = dynamic_cast<const HierarchicalAggregator*>(&tree.child(0));
  ASSERT_NE(sub, nullptr);
  EXPECT_EQ(sub->levels(), 1u);
  EXPECT_EQ(sub->n(), 9u);
  EXPECT_EQ(sub->f(), 1u);
  EXPECT_EQ(sub->child_f(), 1u);
  EXPECT_EQ(sub->merge_f(), 0u);
  EXPECT_EQ(sub->child(0).n(), 3u);  // a flat median leaf
  EXPECT_EQ(sub->child(0).f(), 1u);
}

TEST(Hierarchical, OneLevelSplitsUnevenRowsAndBudgetsTheWorstCase) {
  // n = 13 over B = 4 gives child sizes 3/3/3/4: contiguous, in order,
  // never empty, sizes within one.
  const HierarchicalAggregator uneven("median", "median", 13, 1, 1, 4);
  size_t expected_lo = 0, min_size = 13, max_size = 0;
  for (size_t b = 0; b < uneven.branch(); ++b) {
    const auto [lo, hi] = uneven.child_range(b);
    EXPECT_EQ(lo, expected_lo);
    EXPECT_LT(lo, hi);
    min_size = std::min(min_size, hi - lo);
    max_size = std::max(max_size, hi - lo);
    expected_lo = hi;
  }
  EXPECT_EQ(expected_lo, 13u);
  EXPECT_LE(max_size - min_size, 1u);

  // f = 5 over B = 4: each child provisions ceil(5/4) = 2; overwhelming a
  // child costs 3 of the adversary's 5 rows, so at most 1 child falls.
  const HierarchicalAggregator tree("median", "median", 20, 5, 1, 4);
  EXPECT_EQ(tree.child_f(), 2u);
  EXPECT_EQ(tree.merge_f(), 1u);
  EXPECT_EQ(tree.child(0).f(), 2u);
  EXPECT_EQ(tree.merge_rule().n(), 4u);
  EXPECT_EQ(tree.merge_rule().f(), 1u);
  EXPECT_EQ(tree.name(), "tree(median/median,L=1,B=4)");

  // The worst-case bound floor(f / (child_f + 1)) at other (f, B).
  EXPECT_EQ(HierarchicalAggregator("average", "average", 12, 6, 1, 6).merge_f(), 3u);
  EXPECT_EQ(HierarchicalAggregator("average", "average", 12, 2, 1, 4).merge_f(), 1u);
  // f = 0 propagates zeros through both stages.
  const HierarchicalAggregator clean("average", "median", 8, 0, 1, 4);
  EXPECT_EQ(clean.child_f(), 0u);
  EXPECT_EQ(clean.merge_f(), 0u);
}

TEST(Hierarchical, InadmissibleMergeStageThrows) {
  // f = 2 over B = 2 gives child_f = 1, merge_f = 1, and median needs
  // B >= 2 merge_f + 1 = 3 — the documented worst-case price of small
  // B, not a bug.  The same f over B = 3 is fine.
  EXPECT_THROW(HierarchicalAggregator("median", "median", 12, 2, 1, 2),
               std::invalid_argument);
  EXPECT_NO_THROW(HierarchicalAggregator("median", "median", 12, 2, 1, 3));
}

TEST(Hierarchical, InadmissibleLevelNamesTheNodePathAndBudget)
{
  // n = 12, f = 2, L = 2, B = 2: the root's children are (6, 1) trees
  // whose 3-row leaves cannot host krum at f_child = 1 (needs 2f + 3 =
  // 5 rows).  The error must name the failing node's path and budget.
  try {
    const HierarchicalAggregator tree("krum", "median", 12, 2, 2, 2);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("node root.0"), std::string::npos) << what;
    EXPECT_NE(what.find("f_child 1"), std::string::npos) << what;
  }
}

TEST(Hierarchical, ConstructionSanityChecks) {
  // Empty leaves: B^L = 16 > n = 10.
  EXPECT_THROW(HierarchicalAggregator("median", "median", 10, 0, 2, 4),
               std::invalid_argument);
  // Degenerate parameters.
  EXPECT_THROW(HierarchicalAggregator("median", "median", 10, 0, 0, 2),
               std::invalid_argument);
  EXPECT_THROW(HierarchicalAggregator("median", "median", 10, 0, 1, 0),
               std::invalid_argument);
  // Unknown rule names propagate from make_aggregator.
  EXPECT_THROW(HierarchicalAggregator("nope", "median", 12, 1, 1, 3),
               std::invalid_argument);
  EXPECT_THROW(HierarchicalAggregator("median", "nope", 12, 1, 1, 3),
               std::invalid_argument);
  // A deep-but-admissible tree is fine: 2^3 = 8 leaves over 16 rows.
  EXPECT_NO_THROW(HierarchicalAggregator("median", "median", 16, 0, 3, 2));
}

// ---- resilience and the weighted merge -------------------------------------

TEST(HierarchicalResilience, UpperMergeAbsorbsAnOverwhelmedLeaf) {
  // n = 27, f = 3, L = 2, B = 3 (budgets as above) with all three
  // Byzantine rows packed into leaf root.0/0 — triple its f = 1 budget,
  // so that leaf's aggregate is arbitrary.  Child root.0's median over
  // its three leaf aggregates and the root's (3, 1) median both stay
  // inside the honest envelope.
  const size_t n = 27, d = 16, f = 3;
  GradientBatch batch = honest_batch(n, d, 19);
  for (size_t i = 0; i < f; ++i) {
    for (size_t c = 0; c < d; ++c) batch.row(i)[c] = 1e6;
  }
  const HierarchicalAggregator tree("median", "median", n, f, 2, 3);
  const Vector out = aggregate_with(tree, batch);
  for (size_t c = 0; c < d; ++c) {
    double lo = batch.row(f)[c], hi = batch.row(f)[c];
    for (size_t i = f; i < n; ++i) {
      lo = std::min(lo, batch.row(i)[c]);
      hi = std::max(hi, batch.row(i)[c]);
    }
    ASSERT_GE(out[c], lo) << "coordinate " << c;
    ASSERT_LE(out[c], hi) << "coordinate " << c;
  }
}

TEST(HierarchicalResilience, MergeAbsorbsAFullyCorruptedChild) {
  // n = 16, L = 1, B = 4, f = 2 with BOTH Byzantine rows in child 0: the
  // child has 4 rows, 2 of them poisoned, which exceeds its f_child = 1
  // budget — its median (average of the two middle values) is provably
  // dragged out of the honest range.  The merge median over the 4 child
  // aggregates at f_merge = 1 must absorb that corrupted value.
  const size_t n = 16, d = 8, f = 2;
  GradientBatch batch = honest_batch(n, d, 19);
  for (size_t i = 0; i < f; ++i) {
    for (size_t c = 0; c < d; ++c) batch.row(i)[c] = 1e6;
  }
  Vector lo(d, 1e18), hi(d, -1e18);
  for (size_t i = f; i < n; ++i) {
    for (size_t c = 0; c < d; ++c) {
      lo[c] = std::min(lo[c], batch.row(i)[c]);
      hi[c] = std::max(hi[c], batch.row(i)[c]);
    }
  }

  const HierarchicalAggregator tree("median", "median", n, f, 1, 4);
  ASSERT_EQ(tree.child_f(), 1u);
  ASSERT_EQ(tree.merge_f(), 1u);
  const auto [lo0, hi0] = tree.child_range(0);
  const Vector child0 = aggregate_with(tree.child(0), batch.view(lo0, hi0));
  EXPECT_GT(child0[0], hi[0]) << "child 0 should have escaped the honest envelope";

  const Vector out = aggregate_with(tree, batch);
  for (size_t c = 0; c < d; ++c) {
    ASSERT_GE(out[c], lo[c]) << "coordinate " << c;
    ASSERT_LE(out[c], hi[c]) << "coordinate " << c;
  }
}

TEST(HierarchicalResilience, ByzantineRowsConcentratedOrSpreadStayInsideTheEnvelope) {
  // n = 24, L = 1, B = 4, f = 2: f_child = 1, f_merge = 1.  Concentrated:
  // both Byzantine rows in child 0, exceeding its budget, for three
  // leaf rules.  Spread: one row in child 0 and one in child 2, each
  // within budget.  Either way the output stays in the honest envelope.
  const size_t n = 24, d = 16, f = 2;
  auto expect_inside = [&](const GradientBatch& batch, const Vector& out,
                           std::initializer_list<size_t> byz, const char* what) {
    for (size_t c = 0; c < d; ++c) {
      double lo = 1e18, hi = -1e18;
      for (size_t i = 0; i < n; ++i) {
        if (std::find(byz.begin(), byz.end(), i) != byz.end()) continue;
        lo = std::min(lo, batch.row(i)[c]);
        hi = std::max(hi, batch.row(i)[c]);
      }
      ASSERT_GE(out[c], lo) << what << " coordinate " << c;
      ASSERT_LE(out[c], hi) << what << " coordinate " << c;
    }
  };

  GradientBatch concentrated = honest_batch(n, d, 21);
  for (size_t i = 0; i < f; ++i) {
    for (size_t c = 0; c < d; ++c) concentrated.row(i)[c] = 1e6;
  }
  for (const char* inner : {"krum", "median", "mda"}) {
    const HierarchicalAggregator tree(inner, "median", n, f, 1, 4);
    expect_inside(concentrated, aggregate_with(tree, concentrated), {0, 1}, inner);
  }

  GradientBatch spread = honest_batch(n, d, 22);
  for (const size_t i : {3, 14}) {  // child 0 holds rows 0-5, child 2 rows 12-17
    for (size_t c = 0; c < d; ++c) spread.row(i)[c] = -1e6;
  }
  const HierarchicalAggregator tree("median", "median", n, f, 1, 4);
  expect_inside(spread, aggregate_with(tree, spread), {3, 14}, "spread");
}

TEST(HierarchicalWeightedMerge, ExactlyRepresentableInputsAreBitEqualToFlat) {
  // Child-constant rows with power-of-two-friendly values make every
  // intermediate exact, so the weighted merge must equal the flat
  // average bit for bit — and expose an equal-weight merge, whose result
  // (the mean of child means) differs in the first decimal.
  const size_t n = 5, d = 3;
  GradientBatch batch(n, d);
  for (size_t c = 0; c < d; ++c) {
    for (size_t i = 0; i < 2; ++i) batch.row(i)[c] = 1.0;  // child 0: rows 0-1
    for (size_t i = 2; i < n; ++i) batch.row(i)[c] = 0.0;  // child 1: rows 2-4
  }
  const HierarchicalAggregator tree("average", "average", n, 0, 1, 2);
  EXPECT_TRUE(tree.weighted_merge());
  const Vector got = aggregate_with(tree, batch);
  const auto flat = make_aggregator("average", n, 0);
  EXPECT_EQ(got, aggregate_with(*flat, batch));  // (2*1 + 3*0)/5 = 0.4
  EXPECT_EQ(got[0], 0.4);
  EXPECT_NE(got[0], 0.5);  // the equal-weight (1 + 0)/2
}

TEST(HierarchicalWeightedMerge, ThreadedDispatchStaysBitIdentical) {
  const size_t n = 22, d = 32;
  const GradientBatch batch = honest_batch(n, d, 41);
  const HierarchicalAggregator serial("average", "average", n, 0, 1, 4, /*threads=*/1);
  const HierarchicalAggregator threaded("average", "average", n, 0, 1, 4, /*threads=*/4);
  EXPECT_TRUE(serial.weighted_merge());
  EXPECT_EQ(aggregate_with(serial, batch), aggregate_with(threaded, batch));
}

TEST(HierarchicalWeightedMerge, UnevenSubtreesTrackTheFlatAverage) {
  // n = 10 over L = 2, B = 3: root children of 3/3/4 rows, the last
  // with uneven leaves of its own.  The subtree-size weighting composes
  // through the levels into the flat mean over all n rows.
  const size_t n = 10, d = 16;
  const GradientBatch batch = honest_batch(n, d, 40);
  const HierarchicalAggregator tree("average", "average", n, 0, 2, 3);
  EXPECT_TRUE(tree.weighted_merge());
  const Vector got = aggregate_with(tree, batch);
  const auto flat = make_aggregator("average", n, 0);
  const Vector want = aggregate_with(*flat, batch);
  EXPECT_TRUE(vec::approx_equal(got, want, 1e-13))
      << "subtree-weighted tree average diverged from the flat average";
}

TEST(HierarchicalWeightedMerge, EvenSplitsKeepThePlainMergePath) {
  const HierarchicalAggregator even("average", "average", 12, 0, 1, 3);
  EXPECT_FALSE(even.weighted_merge());
  const HierarchicalAggregator single("average", "average", 12, 0, 1, 1);
  EXPECT_FALSE(single.weighted_merge());
  // Robust merges are never weighted, uneven subtrees or not.
  const HierarchicalAggregator robust("median", "median", 13, 1, 1, 4);
  EXPECT_FALSE(robust.weighted_merge());
}

// ---- config / trainer plumbing ---------------------------------------------

TEST(HierarchicalConfig, ValidateAndLabelCoverTheTreeKnobs) {
  ExperimentConfig c;
  c.tree_levels = 2;
  EXPECT_THROW(c.validate(), std::invalid_argument);  // branch required
  c.tree_branch = 2;
  EXPECT_NO_THROW(c.validate());
  EXPECT_NE(c.label().find("+tree(L2,B2)"), std::string::npos);

  c.wire = "nope";
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.wire = "raw64";
  EXPECT_NO_THROW(c.validate());
  EXPECT_NE(c.label().find("+wire(raw64)"), std::string::npos);

  c.channel = "lossy";
  c.channel_drop = 0.1;
  EXPECT_NO_THROW(c.validate());
  EXPECT_NE(c.label().find("+chan"), std::string::npos);
  c.channel_drop = 1.5;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.channel_drop = 0.1;

  // wire (and hence channel) require the tree.
  c.tree_levels = 0;
  c.tree_branch = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.wire = "off";
  c.channel = "off";
  EXPECT_NO_THROW(c.validate());
  EXPECT_EQ(c.label().find("+tree"), std::string::npos);

  // tree_branch without tree_levels is rejected too.
  c.tree_branch = 2;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(HierarchicalConfig, TrainerTreeL1MatchesShardedRunExactly) {
  // The trainer-level restatement of the L = 1 golden: a tree with
  // (L = 1, B = 3) must reproduce the pinned run of the retired
  // shards = 3 knob bit for bit — same topology, same budgets, all
  // randomness seed-derived.
  BlobsConfig bc;
  bc.num_samples = 200;
  bc.num_features = 6;
  bc.separation = 4.0;
  const Dataset data = make_blobs(bc, 8);
  LinearModel model(6, LinearLoss::kMseOnSigmoid);

  ExperimentConfig config;
  config.num_workers = 12;
  config.num_byzantine = 2;
  config.gar = "median";
  config.steps = 25;
  config.eval_every = 25;
  config.batch_size = 10;
  config.attack_enabled = true;
  config.attack = "little";

  ExperimentConfig tree = config;
  tree.tree_levels = 1;
  tree.tree_branch = 3;

  const RunResult tree_run = Trainer(tree, model, data, data).run();
  ASSERT_EQ(tree_run.final_parameters.size(), 7u);
  ASSERT_EQ(tree_run.train_loss.size(), 25u);
  EXPECT_EQ(bits_digest(tree_run.final_parameters), 0xe142541a589c909cULL);
  EXPECT_EQ(bits_digest(tree_run.train_loss), 0x3d3b8b354fd56f5dULL);
  EXPECT_TRUE(std::isfinite(tree_run.final_train_loss));
  // No wire configured: the channel counters stay all-zero.
  EXPECT_TRUE(tree_run.channel == net::ChannelStats{});
}

// ---- lossy channel: reproducibility and the substitution budget ------------

TEST(HierarchicalChannel, LossyRunIsBitReproducibleWithStatsInRunResult) {
  BlobsConfig bc;
  bc.num_samples = 200;
  bc.num_features = 6;
  bc.separation = 4.0;
  const Dataset data = make_blobs(bc, 8);
  LinearModel model(6, LinearLoss::kMseOnSigmoid);

  ExperimentConfig config;
  config.num_workers = 12;
  config.num_byzantine = 2;
  config.gar = "median";
  config.steps = 25;
  config.eval_every = 25;
  config.batch_size = 10;
  config.attack_enabled = true;
  config.attack = "little";
  config.tree_levels = 1;
  config.tree_branch = 3;
  config.wire = "raw64";
  config.channel = "lossy";
  config.channel_drop = 0.2;
  config.channel_corrupt = 0.1;
  config.channel_reorder = 0.3;

  const RunResult a = Trainer(config, model, data, data).run();
  const RunResult b = Trainer(config, model, data, data).run();

  // Bit-reproducible: trajectory AND the channel accounting.
  EXPECT_EQ(a.final_parameters, b.final_parameters);
  EXPECT_EQ(a.train_loss, b.train_loss);
  EXPECT_TRUE(a.channel == b.channel);

  // The faults really fired and were survived.
  EXPECT_TRUE(std::isfinite(a.final_train_loss));
  EXPECT_TRUE(vec::all_finite(a.final_parameters));
  EXPECT_GT(a.channel.frames_sent, 0u);
  EXPECT_GT(a.channel.frames_dropped, 0u);
  EXPECT_GT(a.channel.frames_reordered, 0u);
  EXPECT_GT(a.channel.retransmit_frames, 0u);
  EXPECT_GT(a.channel.bytes_delivered, 0u);
}

TEST(HierarchicalChannel, MultiChunkLossyLinkReassemblesExactlyUnderAnySeed) {
  // Link knobs the trainer keeps at their defaults: two chunks per edge,
  // duplicates, and 8 retransmits — ample, so nothing is substituted and
  // every raw64 edge reassembles the in-memory tree's output bit for bit.
  // Another channel seed redraws the faults without moving the output.
  const size_t n = 12, d = 7, f = 2, rounds = 25;
  const GradientBatch batch = honest_batch(n, d, 70);
  const HierarchicalAggregator plain("median", "median", n, f, 1, 3);
  const Vector want = aggregate_with(plain, batch);
  net::LinkConfig link;
  link.chunk_values = 4;
  link.channel = {.drop = 0.2, .duplicate = 0.1, .corrupt = 0.1, .reorder = 0.3};
  link.retransmit_limit = 8;
  ASSERT_EQ(net::FrameEncoder(link.wire, link.chunk_values).chunks(d), 2u);
  const auto run = [&](uint64_t channel_seed) {
    link.channel_seed = channel_seed;
    const HierarchicalAggregator tree("median", "median", n, f, 1, 3, 1, &link);
    AggregatorWorkspace ws;
    for (size_t r = 0; r < rounds; ++r) {
      const auto out = tree.aggregate(batch, ws);
      EXPECT_EQ(Vector(out.begin(), out.end()), want) << "round " << r;
    }
    return tree.channel_stats();
  };
  const net::ChannelStats a = run(1);
  EXPECT_GE(a.frames_sent, rounds * 3 * 2);  // two chunks on each of 3 edges
  EXPECT_GT(a.frames_dropped, 0u);
  EXPECT_GT(a.frames_duplicated, 0u);
  EXPECT_GT(a.frames_corrupted, 0u);
  EXPECT_GT(a.frames_reordered, 0u);
  EXPECT_GT(a.retransmit_frames, 0u);
  EXPECT_EQ(a.rows_substituted, 0u);
  EXPECT_TRUE(run(1) == a);  // bit-reproducible accounting per seed
  const net::ChannelStats reseeded = run(99);
  EXPECT_FALSE(reseeded == a);
  EXPECT_EQ(reseeded.rows_substituted, 0u);
}

TEST(HierarchicalChannel, SubstitutionsWithinMergeBudgetDegradeElseThrow) {
  // n = 25, B = 5, f = 4: child_f = 1, merge_f = floor(4/2) = 2.  A
  // brutal channel (drop = 0.6, no retransmits, two chunks per row)
  // loses whole child aggregates routinely; per seed the round either
  // degrades gracefully (≤ 2 zero-substituted children) or must refuse
  // with the merge-budget error.  The sweep must see both outcomes.
  const size_t n = 25, d = 8, f = 4;
  const GradientBatch batch = honest_batch(n, d, 55);
  net::LinkConfig link;
  link.chunk_values = 4;
  link.channel = net::ChannelConfig{0.6, 0.0, 0.0, 0.0};
  link.retransmit_limit = 0;

  size_t degraded = 0, refused = 0;
  for (uint64_t seed = 0; seed < 400; ++seed) {
    link.channel_seed = seed;
    const HierarchicalAggregator tree("median", "median", n, f, 1, 5, 1, &link);
    ASSERT_EQ(tree.merge_f(), 2u);
    try {
      const Vector out = aggregate_with(tree, batch);
      ++degraded;
      EXPECT_LE(tree.channel_stats().rows_substituted, 2u) << "seed " << seed;
      EXPECT_TRUE(vec::all_finite(out));
    } catch (const std::runtime_error& e) {
      ++refused;
      EXPECT_GT(tree.channel_stats().rows_substituted, 2u) << "seed " << seed;
      EXPECT_NE(std::string(e.what()).find("merge budget"), std::string::npos);
    }
  }
  EXPECT_GT(degraded, 0u);  // some rounds stay within the budget...
  EXPECT_GT(refused, 0u);   // ...and the overloaded ones must refuse
  EXPECT_EQ(degraded + refused, 400u);
}

TEST(HierarchicalChannel, Int8EdgesStayWithinTheQuantizationContract) {
  // tree(average/average) with int8 edges: each child aggregate is
  // quantized once per edge, so the merged output deviates from the
  // in-memory tree by at most max_b ‖aggregate_b‖∞ / 254 per coordinate
  // — the documented accuracy cost of the 8× wire compression.
  const size_t n = 12, d = 32;
  const GradientBatch batch = honest_batch(n, d, 60);
  net::LinkConfig link;
  link.wire = net::WireMode::kInt8;
  const HierarchicalAggregator framed("average", "average", n, 0, 1, 3, 1, &link);
  const HierarchicalAggregator plain("average", "average", n, 0, 1, 3);
  const Vector got = aggregate_with(framed, batch);
  const Vector want = aggregate_with(plain, batch);
  double max_child_inf = 0.0;
  for (size_t b = 0; b < plain.branch(); ++b) {
    const auto [lo, hi] = plain.child_range(b);
    const Vector child = aggregate_with(plain.child(b), batch.view(lo, hi));
    max_child_inf = std::max(max_child_inf, vec::norm_inf(child));
  }
  const double bound = max_child_inf / 254.0 + 1e-15;
  for (size_t c = 0; c < d; ++c)
    EXPECT_LE(std::abs(got[c] - want[c]), bound) << "coordinate " << c;
}

TEST(HierarchicalChannel, DpRunThroughAnInt8TreeReproducesThePinnedTheta) {
  // d = 1001 with DP noise on every honest row, aggregated through
  // tree(2, 8) over int8 edges: pins the noise stream, the quantizer and
  // the tree merge together, at the dp_tree bench's shape.
  BlobsConfig bc;
  bc.num_samples = 120;
  bc.num_features = 1000;
  const Dataset data = make_blobs(bc, 21);
  LinearModel model(1000, LinearLoss::kMseOnSigmoid);

  ExperimentConfig config;
  config.num_workers = 128;
  config.num_byzantine = 0;
  config.gar = "median";
  config.shard_merge_gar = "median";
  config.tree_levels = 2;
  config.tree_branch = 8;
  config.wire = "int8";
  config.dp_enabled = true;
  config.epsilon = 0.2;
  config.batch_size = 10;
  config.steps = 10;
  config.eval_every = 10;

  const RunResult run = Trainer(config, model, data, data).run();
  ASSERT_EQ(run.final_parameters.size(), 1001u);
  EXPECT_EQ(bits_digest(run.final_parameters), 0xf49d6ee5d24b8306ULL);
  EXPECT_EQ(bits_digest(run.train_loss), 0xb8d104d2ee4cd490ULL);
}

}  // namespace
}  // namespace dpbyz
