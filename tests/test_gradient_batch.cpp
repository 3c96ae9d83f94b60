// Unit tests for the GradientBatch arena: row aliasing, cross-round
// reuse without reallocation, non-finite rejection at the aggregation
// boundary, and the shared pairwise-distance kernel.
#include "math/gradient_batch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "aggregation/aggregator.hpp"
#include "math/rng.hpp"
#include "math/statistics.hpp"

namespace dpbyz {
namespace {

std::vector<Vector> random_vectors(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vector> g;
  for (size_t i = 0; i < n; ++i) g.push_back(rng.normal_vector(d, 1.0));
  return g;
}

TEST(GradientBatch, RowViewsAliasTheArena) {
  GradientBatch batch(3, 4);
  batch.row(1)[2] = 7.5;
  // Visible through the flat view at the row-major offset...
  EXPECT_EQ(batch.flat()[1 * 4 + 2], 7.5);
  // ...and writes through flat() are visible through the row view.
  batch.flat()[2 * 4 + 0] = -1.25;
  EXPECT_EQ(batch.row(2)[0], -1.25);
  // Row spans point straight into the arena: no copies anywhere.
  EXPECT_EQ(batch.row(0).data(), batch.flat().data());
  EXPECT_EQ(batch.row(2).data(), batch.flat().data() + 2 * 4);
}

TEST(GradientBatch, SetRowAndRowVectorRoundTrip) {
  GradientBatch batch(2, 3);
  const Vector v{1.0, 2.0, 3.0};
  batch.set_row(1, v);
  EXPECT_EQ(batch.row_vector(1), v);
  EXPECT_EQ(batch.row_vector(0), vec::zeros(3));
  EXPECT_THROW(batch.set_row(0, Vector{1.0}), std::invalid_argument);
  EXPECT_THROW(batch.row(2), std::invalid_argument);
}

TEST(GradientBatch, ReuseAcrossRoundsDoesNotReallocate) {
  GradientBatch batch(8, 16);
  const double* arena = batch.flat().data();
  // Shrinking and growing back within capacity must keep the same arena.
  batch.reshape(4, 16);
  EXPECT_EQ(batch.flat().data(), arena);
  EXPECT_EQ(batch.rows(), 4u);
  batch.reshape(8, 16);
  EXPECT_EQ(batch.flat().data(), arena);
  // Different shape, same extent: still the same storage.
  batch.reshape(16, 8);
  EXPECT_EQ(batch.flat().data(), arena);
}

TEST(GradientBatch, FromVectorsCopiesAndValidates) {
  const auto vs = random_vectors(4, 5, 1);
  const GradientBatch batch = GradientBatch::from_vectors(vs);
  ASSERT_EQ(batch.rows(), 4u);
  ASSERT_EQ(batch.dim(), 5u);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(batch.row_vector(i), vs[i]);

  const std::vector<Vector> ragged{{1.0, 2.0}, {3.0}};
  EXPECT_THROW(GradientBatch::from_vectors(ragged), std::invalid_argument);
}

TEST(GradientBatch, NonFiniteRowsAreRejectedAtAggregation) {
  GradientBatch batch(3, 2);
  batch.set_row(0, Vector{1.0, 2.0});
  batch.set_row(1, Vector{3.0, 4.0});
  batch.set_row(2, Vector{5.0, std::nan("")});
  EXPECT_FALSE(batch.all_finite());

  const auto agg = make_aggregator("average", 3, 0);
  AggregatorWorkspace ws;
  EXPECT_THROW(agg->aggregate(batch, ws), std::invalid_argument);

  batch.set_row(2, Vector{5.0, 6.0});
  EXPECT_TRUE(batch.all_finite());
  EXPECT_NO_THROW(agg->aggregate(batch, ws));
}

TEST(GradientBatch, MeanHelpersMatchVectorPath) {
  const auto vs = random_vectors(6, 9, 3);
  const GradientBatch batch = GradientBatch::from_vectors(vs);
  Vector out(9);
  mean_rows_into(batch, out);
  EXPECT_EQ(out, vec::mean(vs));

  // Prefix mean (the attack observation path).
  column_moments_into(batch, 4, out, {}, 1);
  EXPECT_EQ(out, vec::mean(std::span<const Vector>(vs.data(), 4)));

  const std::vector<size_t> idx{5, 0, 3};
  mean_rows_of_into(batch, idx, out);
  EXPECT_EQ(out, vec::mean_of(vs, idx));

  Vector mean(9), sigma(9);
  column_moments_into(batch, 6, mean, sigma, 1);
  EXPECT_EQ(mean, stats::coordinate_mean(vs));
  EXPECT_EQ(sigma, stats::coordinate_stddev(vs));
}

TEST(GradientBatchView, AliasesTheParentArena) {
  GradientBatch batch(6, 4);
  for (size_t i = 0; i < 6; ++i)
    for (size_t c = 0; c < 4; ++c) batch.row(i)[c] = 10.0 * i + c;

  const GradientBatch v = batch.view(2, 5);
  EXPECT_TRUE(v.is_view());
  EXPECT_FALSE(batch.is_view());
  ASSERT_EQ(v.rows(), 3u);
  ASSERT_EQ(v.dim(), 4u);
  // View row 0 IS parent row 2 — same address, not a copy.
  EXPECT_EQ(v.row(0).data(), std::as_const(batch).row(2).data());
  EXPECT_EQ(v.flat().data(), std::as_const(batch).flat().data() + 2 * 4);
  // Writes through the parent are visible through the view.
  batch.row(3)[1] = -99.0;
  EXPECT_EQ(v.row(1)[1], -99.0);
}

TEST(GradientBatchView, EmptyAndSingleRowRanges) {
  GradientBatch batch(5, 3);
  batch.row(4)[2] = 1.5;

  const GradientBatch empty = batch.view(2, 2);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.rows(), 0u);
  EXPECT_EQ(empty.flat().size(), 0u);

  const GradientBatch single = batch.view(4, 5);
  ASSERT_EQ(single.rows(), 1u);
  EXPECT_EQ(single.row(0)[2], 1.5);

  EXPECT_THROW(batch.view(3, 2), std::invalid_argument);  // lo > hi
  EXPECT_THROW(batch.view(0, 6), std::invalid_argument);  // past the end
}

TEST(GradientBatchView, UnevenShardSplitCoversEveryRowOnce) {
  // n = 7 rows into S = 3 contiguous ranges via the balanced split the
  // sharded aggregator uses: [s*n/S, (s+1)*n/S).  Sizes 2/2/3.
  GradientBatch batch(7, 2);
  for (size_t i = 0; i < 7; ++i) batch.row(i)[0] = static_cast<double>(i);

  const size_t S = 3;
  size_t covered = 0;
  size_t min_size = 7, max_size = 0;
  for (size_t s = 0; s < S; ++s) {
    const size_t lo = s * 7 / S, hi = (s + 1) * 7 / S;
    const GradientBatch shard = batch.view(lo, hi);
    min_size = std::min(min_size, shard.rows());
    max_size = std::max(max_size, shard.rows());
    for (size_t i = 0; i < shard.rows(); ++i)
      EXPECT_EQ(shard.row(i)[0], static_cast<double>(lo + i));
    covered += shard.rows();
  }
  EXPECT_EQ(covered, 7u);
  EXPECT_LE(max_size - min_size, 1u);
}

TEST(GradientBatchView, ViewsComposeAndStayReadOnly) {
  GradientBatch batch(8, 2);
  for (size_t i = 0; i < 8; ++i) batch.row(i)[0] = static_cast<double>(i);

  const GradientBatch outer = batch.view(2, 7);
  const GradientBatch inner = outer.view(1, 3);  // rows 3, 4 of the arena
  ASSERT_EQ(inner.rows(), 2u);
  EXPECT_EQ(inner.row(0)[0], 3.0);
  EXPECT_EQ(inner.row(1)[0], 4.0);

  // Mutable access through a view throws: shard consumers are readers.
  GradientBatch mut_view = batch.view(0, 4);
  EXPECT_THROW(mut_view.row(0), std::invalid_argument);
  EXPECT_THROW(mut_view.flat(), std::invalid_argument);
  EXPECT_THROW(mut_view.set_row(0, Vector{1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(mut_view.reshape(2, 2), std::invalid_argument);
}

TEST(GradientBatchView, KernelsSeeExactlyTheSlicedRows) {
  const auto vs = random_vectors(9, 12, 11);
  const GradientBatch batch = GradientBatch::from_vectors(vs);
  const GradientBatch shard = batch.view(3, 7);

  // mean over the view == vec::mean over the corresponding vectors.
  Vector out(12);
  mean_rows_into(shard, out);
  EXPECT_EQ(out, vec::mean(std::span<const Vector>(vs.data() + 3, 4)));

  // pairwise distances over the view == scalar kernel on the sub-rows.
  std::vector<double> dist(4 * 4);
  pairwise_dist_sq(shard, dist, 1);
  for (size_t i = 0; i < 4; ++i)
    for (size_t j = 0; j < 4; ++j)
      EXPECT_EQ(dist[i * 4 + j], vec::dist_sq(vs[3 + i], vs[3 + j]));

  // A full GAR over the view == the same GAR over an owning copy.
  const auto agg = make_aggregator("krum", 4, 0);
  AggregatorWorkspace ws_view, ws_copy;
  const auto from_view = agg->aggregate(shard, ws_view);
  const GradientBatch copy =
      GradientBatch::from_vectors(std::span<const Vector>(vs.data() + 3, 4));
  const auto from_copy = agg->aggregate(copy, ws_copy);
  EXPECT_EQ(Vector(from_view.begin(), from_view.end()),
            Vector(from_copy.begin(), from_copy.end()));
}

TEST(PairwiseDistSq, BitIdenticalToScalarKernel) {
  // n = 40 spans five lane blocks, so the traversal covers pairs inside
  // one block and across blocks.
  const auto vs = random_vectors(40, 2048, 5);
  const GradientBatch batch = GradientBatch::from_vectors(vs);
  std::vector<double> out(40 * 40);
  pairwise_dist_sq(batch, out, 1);
  for (size_t i = 0; i < 40; ++i)
    for (size_t j = 0; j < 40; ++j)
      EXPECT_EQ(out[i * 40 + j], vec::dist_sq(vs[i], vs[j])) << i << "," << j;
}

TEST(PairwiseDistSq, ParallelMatchesSerial) {
  // Big enough to clear the kernel's parallel-dispatch threshold.
  const auto vs = random_vectors(60, 10000, 7);
  const GradientBatch batch = GradientBatch::from_vectors(vs);
  std::vector<double> serial(60 * 60), parallel(60 * 60);
  pairwise_dist_sq(batch, serial, 1);
  pairwise_dist_sq(batch, parallel, 4);
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace dpbyz
