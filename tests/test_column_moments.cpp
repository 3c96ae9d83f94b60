// Unit tests for column_moments_into, the column statistics under every
// template forge: bit-identity to stats::coordinate_mean /
// coordinate_stddev at every tile edge and thread width, on both sides of
// the pool-dispatch floor; the mean-only mode; the aliasing guard; every
// template forge across widths; and zero allocations.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>

#include "alloc_counter.hpp"
#include "attacks/adaptive.hpp"
#include "attacks/attack.hpp"
#include "attacks/little_is_enough.hpp"
#include "math/gradient_batch.hpp"
#include "math/rng.hpp"
#include "math/statistics.hpp"

namespace dpbyz {
namespace {

/// A (rows + 1) × d batch of N(0, 1) rows: the last row is never
/// observed, so a kernel that reads past `rows` shows up as a mismatch.
GradientBatch random_batch(size_t rows, size_t d, uint64_t seed) {
  GradientBatch batch(rows + 1, d);
  Rng rng(seed);
  rng.normal_fill(batch.flat(), 1.0);
  return batch;
}

std::vector<Vector> prefix_vectors(const GradientBatch& batch, size_t rows) {
  std::vector<Vector> vs;
  for (size_t i = 0; i < rows; ++i) vs.push_back(batch.row_vector(i));
  return vs;
}

TEST(ColumnMoments, BitIdenticalToStatsAtEveryTileEdgeAndWidth) {
  // 180 × 10001 is above kMomentsParallelMinWork, every other shape
  // below it; the floor itself is pinned by the next test.
  ASSERT_GE(180 * 10001, kMomentsParallelMinWork);
  ASSERT_LT(180 * (kMomentTile + 1), kMomentsParallelMinWork);
  for (const size_t rows : {size_t{1}, size_t{7}, size_t{180}}) {
    for (const size_t d : {size_t{1}, kMomentTile - 1, kMomentTile, kMomentTile + 1,
                           size_t{10001}}) {
      const GradientBatch batch = random_batch(rows, d, 31 * rows + d);
      const auto vs = prefix_vectors(batch, rows);
      const Vector want_mean = stats::coordinate_mean(vs);
      const Vector want_sd = stats::coordinate_stddev(vs);
      for (const size_t threads : {1, 2, 3, 4}) {
        Vector mean(d), sd(d);
        column_moments_into(batch, rows, mean, sd, threads);
        EXPECT_EQ(mean, want_mean) << "rows=" << rows << " d=" << d << " threads=" << threads;
        EXPECT_EQ(sd, want_sd) << "rows=" << rows << " d=" << d << " threads=" << threads;
      }
    }
  }
}

TEST(ColumnMoments, BitIdenticalOnBothSidesOfTheDispatchFloor) {
  // 64 rows × 4096 columns is exactly the floor (pool dispatch); one
  // column fewer stays on the calling thread.
  ASSERT_EQ(64 * 4096, kMomentsParallelMinWork);
  for (const size_t d : {size_t{4095}, size_t{4096}}) {
    const GradientBatch batch = random_batch(64, d, d);
    const auto vs = prefix_vectors(batch, 64);
    for (const size_t threads : {1, 4, 0}) {
      Vector mean(d), sd(d);
      column_moments_into(batch, 64, mean, sd, threads);
      EXPECT_EQ(mean, stats::coordinate_mean(vs)) << "d=" << d << " threads=" << threads;
      EXPECT_EQ(sd, stats::coordinate_stddev(vs)) << "d=" << d << " threads=" << threads;
    }
  }
}

TEST(ColumnMoments, MeanOnlyModeMatchesTheMean) {
  const GradientBatch batch = random_batch(180, 10001, 5);
  const auto vs = prefix_vectors(batch, 180);
  for (const size_t threads : {1, 4}) {
    Vector mean(10001);
    column_moments_into(batch, 180, mean, {}, threads);
    EXPECT_EQ(mean, stats::coordinate_mean(vs)) << "threads=" << threads;
  }
}

TEST(ColumnMoments, RejectsOutputsThatAliasAnObservedRow) {
  GradientBatch batch = random_batch(5, 12, 2);
  Vector sd(12), mean(12);
  EXPECT_THROW(column_moments_into(batch, 5, batch.row(2), sd, 1), std::invalid_argument);
  EXPECT_THROW(column_moments_into(batch, 5, mean, batch.row(4), 4), std::invalid_argument);
  // A span straddling two observed rows overlaps them too.
  const std::span<double> straddle(batch.flat().data() + 6, 12);
  EXPECT_THROW(column_moments_into(batch, 5, straddle, {}, 1), std::invalid_argument);
  // mean and stddev sharing storage would corrupt each other.
  Vector both(18);
  EXPECT_THROW(column_moments_into(batch, 5, std::span<double>(both.data(), 12),
                                   std::span<double>(both.data() + 6, 12), 1),
               std::invalid_argument);
  // The row right behind the observed prefix is where the forged copies
  // go: writing the mean there is the intended use.
  EXPECT_NO_THROW(column_moments_into(batch, 5, batch.row(5), sd, 1));
  try {
    column_moments_into(batch, 5, batch.row(0), {}, 1);
    FAIL() << "aliasing output was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("column_moments_into"), std::string::npos);
  }
}

TEST(ColumnMoments, AlieForgeRejectsAnOutputRowInsideTheObservation) {
  // Attack::forge_into's contract: `out` must not alias an observed row.
  // Forging into observed row 1 used to overwrite it mid-sum and return
  // a silently wrong vector; the kernel now names the violation.
  GradientBatch batch = random_batch(6, 40, 4);
  const ALittleIsEnough alie(1.5);
  Rng rng(1);
  const AttackContext ctx{batch, 6, 1, 1, 0};
  EXPECT_THROW(alie.forge_into(ctx, rng, batch.row(1)), std::invalid_argument);
  EXPECT_NO_THROW(alie.forge_into(ctx, rng, batch.row(6)));
}

TEST(ColumnMoments, EveryTemplateForgeIsBitIdenticalAcrossWidths) {
  // 40 × 10001 is above the floor, so threads = 4 dispatches tiles.
  const size_t rows = 40, d = 10001, f = 3;
  ASSERT_GE(rows * d, kMomentsParallelMinWork);
  const GradientBatch batch = random_batch(rows, d, 17);
  AdaptiveSpec spec;
  spec.gar = "krum";
  spec.probes = 3;
  for (const std::string name : {"little", "empire", "signflip", "stale_boost",
                                 "adaptive_alie", "adaptive_empire", "adaptive_mimic"}) {
    Vector serial, threaded;
    for (const size_t threads : {1, 4}) {
      const auto attack = make_attack(name, std::nan(""), spec);
      Rng rng(3);
      const AttackContext ctx{batch, rows, f, 1, 1, threads};
      (threads == 1 ? serial : threaded) = attack->forge(ctx, rng);
    }
    EXPECT_EQ(threaded, serial) << name;
  }
}

TEST(ColumnMoments, AllocatesNothingAtAnyWidth) {
  const GradientBatch batch = random_batch(180, 10001, 8);
  Vector mean(10001), sd(10001);
  for (const size_t threads : {1, 4}) {
    column_moments_into(batch, 180, mean, sd, threads);  // warm the pool
    test::start_counting_allocs();
    column_moments_into(batch, 180, mean, sd, threads);
    column_moments_into(batch, 180, mean, {}, threads);
    EXPECT_EQ(test::stop_counting_allocs(), 0u) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace dpbyz
