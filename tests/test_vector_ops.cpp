// Unit tests for math/vector_ops.
#include "math/vector_ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace dpbyz {
namespace {

TEST(VectorOps, ZerosHasRequestedDimensionAndValue) {
  const Vector z = vec::zeros(5);
  ASSERT_EQ(z.size(), 5u);
  for (double x : z) EXPECT_EQ(x, 0.0);
}

TEST(VectorOps, AddSubScale) {
  const Vector a{1.0, 2.0, 3.0};
  const Vector b{4.0, -1.0, 0.5};
  Vector sum = a, diff = a, scaled = a;
  vec::add_inplace(sum, b);
  vec::sub_inplace(diff, b);
  vec::scale_inplace(scaled, 2.0);
  EXPECT_EQ(sum, (Vector{5.0, 1.0, 3.5}));
  EXPECT_EQ(diff, (Vector{-3.0, 3.0, 2.5}));
  EXPECT_EQ(scaled, (Vector{2.0, 4.0, 6.0}));
}

TEST(VectorOps, InplaceVariantsWriteOnlyTheirTarget) {
  const Vector a{1.0, 2.0};
  const Vector b{3.0, 5.0};
  Vector a2 = a;
  vec::scale_inplace(a2, -1.5);
  EXPECT_EQ(a2, (Vector{-1.5, -3.0}));
  a2 = a;
  vec::axpy_inplace(a2, 2.0, b);
  EXPECT_EQ(a2, (Vector{7.0, 12.0}));
  EXPECT_EQ(b, (Vector{3.0, 5.0}));
}

TEST(VectorOps, DotAndNorms) {
  const Vector a{3.0, 4.0};
  EXPECT_DOUBLE_EQ(vec::dot(a, a), 25.0);
  EXPECT_DOUBLE_EQ(vec::norm_sq(a), 25.0);
  EXPECT_DOUBLE_EQ(vec::norm(a), 5.0);
  EXPECT_DOUBLE_EQ(vec::norm_l1(a), 7.0);
  EXPECT_DOUBLE_EQ(vec::norm_inf(Vector{-7.0, 2.0}), 7.0);
}

TEST(VectorOps, DistancesMatchDefinition) {
  const Vector a{1.0, 1.0};
  const Vector b{4.0, 5.0};
  EXPECT_DOUBLE_EQ(vec::dist_sq(a, b), 25.0);
  EXPECT_DOUBLE_EQ(vec::dist(a, b), 5.0);
}

TEST(VectorOps, MeanOfVectors) {
  const std::vector<Vector> vs{{1.0, 0.0}, {3.0, 2.0}};
  EXPECT_EQ(vec::mean(vs), (Vector{2.0, 1.0}));
}

TEST(VectorOps, MeanOfSubset) {
  const std::vector<Vector> vs{{1.0}, {3.0}, {100.0}};
  const std::vector<size_t> idx{0, 1};
  EXPECT_EQ(vec::mean_of(vs, idx), (Vector{2.0}));
}

TEST(VectorOps, DimensionMismatchThrows) {
  const Vector a{1.0};
  const Vector b{1.0, 2.0};
  Vector target = a;
  EXPECT_THROW(vec::add_inplace(target, b), std::invalid_argument);
  EXPECT_THROW(vec::sub_inplace(target, b), std::invalid_argument);
  EXPECT_THROW(vec::dot(a, b), std::invalid_argument);
  EXPECT_THROW(vec::dist_sq(a, b), std::invalid_argument);
}

TEST(VectorOps, AllFiniteDetectsNanAndInf) {
  EXPECT_TRUE(vec::all_finite(Vector{1.0, -2.0}));
  EXPECT_FALSE(vec::all_finite(Vector{1.0, std::nan("")}));
  EXPECT_FALSE(vec::all_finite(Vector{std::numeric_limits<double>::infinity()}));
}

TEST(VectorOps, ApproxEqualRespectsTolerance) {
  EXPECT_TRUE(vec::approx_equal(Vector{1.0}, Vector{1.0 + 1e-13}));
  EXPECT_FALSE(vec::approx_equal(Vector{1.0}, Vector{1.1}));
  EXPECT_FALSE(vec::approx_equal(Vector{1.0}, Vector{1.0, 2.0}));
}

TEST(VectorOps, EmptyMeanThrows) {
  const std::vector<Vector> vs;
  EXPECT_THROW(vec::mean(vs), std::invalid_argument);
}

}  // namespace
}  // namespace dpbyz
