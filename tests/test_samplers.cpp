// Unit tests for data/samplers.
#include "data/samplers.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

namespace dpbyz {
namespace {

TEST(IidSampler, ProducesRequestedSizeInRange) {
  IidSampler s(10);
  Rng rng(1);
  const auto batch = s.next(25, rng);
  EXPECT_EQ(batch.size(), 25u);
  for (size_t i : batch) EXPECT_LT(i, 10u);
}

TEST(IidSampler, AllowsBatchLargerThanPopulation) {
  IidSampler s(3);
  Rng rng(1);
  EXPECT_EQ(s.next(10, rng).size(), 10u);  // with replacement
}

TEST(IidSampler, CoversPopulationEventually) {
  IidSampler s(5);
  Rng rng(2);
  std::set<size_t> seen;
  for (int i = 0; i < 50; ++i)
    for (size_t idx : s.next(5, rng)) seen.insert(idx);
  EXPECT_EQ(seen.size(), 5u);
}

TEST(IidSampler, DeterministicGivenSeed) {
  IidSampler s1(100), s2(100);
  Rng a(7), b(7);
  EXPECT_EQ(s1.next(20, a), s2.next(20, b));
}

TEST(IidSampler, RejectsZeroBatchOrPopulation) {
  EXPECT_THROW(IidSampler(0), std::invalid_argument);
  IidSampler s(5);
  Rng rng(1);
  EXPECT_THROW(s.next(0, rng), std::invalid_argument);
}

}  // namespace
}  // namespace dpbyz
