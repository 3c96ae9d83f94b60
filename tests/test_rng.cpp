// Unit + statistical tests for math/rng.
#include "math/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>

#include "math/kernels_isa.hpp"
#include "math/statistics.hpp"

#include "bits_digest.hpp"

namespace dpbyz {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a.uniform() == b.uniform()) ++equal;
  EXPECT_LT(equal, 5);
}

TEST(Rng, DeriveByLabelIsDeterministicAndDecorrelated) {
  Rng root(42);
  Rng a = root.derive("alpha");
  Rng a2 = root.derive("alpha");
  Rng b = root.derive("beta");
  EXPECT_EQ(a.uniform(), a2.uniform());
  EXPECT_NE(a.seed(), b.seed());
}

TEST(Rng, DeriveDoesNotAdvanceParent) {
  Rng root(42);
  Rng probe(42);
  (void)root.derive("x");
  (void)root.derive(5);
  EXPECT_EQ(root.uniform(), probe.uniform());
}

TEST(Rng, DeriveByIndexDistinct) {
  Rng root(42);
  EXPECT_NE(root.derive(uint64_t{0}).seed(), root.derive(uint64_t{1}).seed());
}

TEST(Rng, UniformIndexStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.uniform_index(10), 10u);
}

TEST(Rng, UniformIndexZeroThrows) {
  Rng rng(3);
  EXPECT_THROW(rng.uniform_index(0), std::invalid_argument);
}

TEST(Rng, NormalMomentsApproximatelyCorrect) {
  Rng rng(11);
  stats::RunningStat s;
  for (int i = 0; i < 50000; ++i) s.push(rng.normal(2.0, 3.0));
  EXPECT_NEAR(s.mean(), 2.0, 0.1);
  EXPECT_NEAR(s.stddev(), 3.0, 0.1);
}

TEST(Rng, LaplaceMomentsApproximatelyCorrect) {
  Rng rng(13);
  stats::RunningStat s;
  const double scale = 2.0;
  for (int i = 0; i < 50000; ++i) s.push(rng.laplace(1.0, scale));
  EXPECT_NEAR(s.mean(), 1.0, 0.1);
  // Var[Laplace(scale)] = 2 scale^2 -> stddev = sqrt(2)*scale.
  EXPECT_NEAR(s.stddev(), std::sqrt(2.0) * scale, 0.15);
}

TEST(Rng, LaplaceRejectsNonPositiveScale) {
  Rng rng(1);
  EXPECT_THROW(rng.laplace(0.0, 0.0), std::invalid_argument);
}

TEST(Rng, NormalVectorShapeAndSpread) {
  Rng rng(5);
  const Vector v = rng.normal_vector(10000, 0.5);
  ASSERT_EQ(v.size(), 10000u);
  EXPECT_NEAR(stats::stddev(v), 0.5, 0.05);
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(9);
  auto p = rng.permutation(100);
  std::sort(p.begin(), p.end());
  for (size_t i = 0; i < 100; ++i) EXPECT_EQ(p[i], i);
}

TEST(Rng, PermutationsVaryAcrossDraws) {
  Rng rng(9);
  EXPECT_NE(rng.permutation(50), rng.permutation(50));
}

TEST(Rng, BernoulliRespectsProbability) {
  Rng rng(17);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(Splitmix, IsDeterministicAndMixes) {
  EXPECT_EQ(splitmix64(1), splitmix64(1));
  EXPECT_NE(splitmix64(1), splitmix64(2));
  // Nearby inputs should differ in many bits.
  const uint64_t diff = splitmix64(100) ^ splitmix64(101);
  EXPECT_GT(__builtin_popcountll(diff), 16);
}

TEST(RngLaplace, BoundaryUniformDrawStaysFinite) {
  // Regression: std::uniform_real_distribution is inclusive at its lower
  // bound, so the inverse-CDF draw u ~ U(-1/2, 1/2) can return exactly
  // -0.5, which made log(1 - 2|u|) = log(0) = -inf and injected infinite
  // DP noise into the submitted gradient.  Both boundaries must now map
  // to finite (huge) tail values.
  const double at_lo = Rng::laplace_from_uniform(-0.5, 0.0, 1.0);
  const double at_hi = Rng::laplace_from_uniform(0.5, 0.0, 1.0);
  EXPECT_TRUE(std::isfinite(at_lo));
  EXPECT_TRUE(std::isfinite(at_hi));
  // The clamped boundary is the distribution's most extreme realizable
  // value: |X - mu| = scale * -log(DBL_MIN) ~ 708 * scale, symmetric
  // (u = -1/2 is the negative tail, u = +1/2 the positive one).
  EXPECT_LT(at_lo, -700.0);
  EXPECT_GT(at_hi, 700.0);
  EXPECT_DOUBLE_EQ(at_lo, -at_hi);
  // Scale and location transform the boundary value like any other draw.
  EXPECT_DOUBLE_EQ(Rng::laplace_from_uniform(-0.5, 3.0, 2.0), 3.0 + 2.0 * at_lo);
}

TEST(RngLaplace, InteriorDrawsMatchTheUnclampedInverseCdf) {
  // The clamp must not perturb any non-boundary value: bit-identical to
  // the raw formula everywhere in the open interval.
  for (double u : {-0.49999, -0.25, -1e-12, 0.0, 1e-12, 0.25, 0.49999}) {
    const double sign = (u >= 0.0) ? 1.0 : -1.0;
    const double raw = 1.5 - 0.7 * sign * std::log(1.0 - 2.0 * std::abs(u));
    EXPECT_EQ(Rng::laplace_from_uniform(u, 1.5, 0.7), raw) << "u = " << u;
  }
}

TEST(RngLaplace, TransformValidatesItsArguments) {
  EXPECT_THROW(Rng::laplace_from_uniform(0.0, 0.0, 0.0), std::invalid_argument);
  EXPECT_THROW(Rng::laplace_from_uniform(0.6, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(Rng::laplace_from_uniform(-0.6, 0.0, 1.0), std::invalid_argument);
}

// ---- Mt64: the std::mt19937_64 contract -------------------------------------

TEST(Mt64, MatchesStdMt19937_64OverAMillionOutputs) {
  // Raw seeds, and the seeds Rng feeds the engine (splitmix64 of a seed
  // made by derive) — the streams every component draws from.
  const Rng root(5);
  const uint64_t seeds[] = {0,
                            1,
                            5489,
                            ~uint64_t{0},
                            splitmix64(root.derive("dp-noise").seed()),
                            splitmix64(root.derive(uint64_t{7}).seed())};
  for (const uint64_t seed : seeds) {
    Mt64 mine(seed);
    std::mt19937_64 ref(seed);
    bool same = true;
    for (int i = 0; i < 1000000 && same; ++i) same = mine() == ref();
    EXPECT_TRUE(same) << "seed " << seed;
  }
}

TEST(Mt64, RngEngineRightAfterDeriveIsTheStdEngine) {
  Rng child = Rng(11).derive("sampling");
  std::mt19937_64 ref(splitmix64(child.seed()));
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(child.engine()(), ref()) << "draw " << i;
}

TEST(Mt64, TextStateIsByteEqualInBothDirections) {
  // Written by one engine, read by the other, written again: the same
  // bytes, at every index position including "twist pending" (312).
  for (const int draws : {0, 1, 2, 155, 311, 312, 313, 1000}) {
    std::mt19937_64 ref(42);
    Mt64 mine(42);
    for (int i = 0; i < draws; ++i) {
      (void)ref();
      (void)mine();
    }
    std::ostringstream ref_text, mine_text;
    ref_text << ref;
    mine_text << mine;
    ASSERT_EQ(mine_text.str(), ref_text.str()) << "draws " << draws;

    Mt64 from_ref(0);
    std::istringstream(ref_text.str()) >> from_ref;
    EXPECT_TRUE(from_ref == mine) << "draws " << draws;
    std::mt19937_64 from_mine;
    std::istringstream(mine_text.str()) >> from_mine;
    EXPECT_TRUE(from_mine == ref) << "draws " << draws;
    for (int i = 0; i < 400; ++i) ASSERT_EQ(from_ref(), from_mine());
  }
}

TEST(Mt64, TextFormatLeavesTheStreamFlagsAlone) {
  std::ostringstream os;
  os << std::hex << std::setfill('*');
  os << Mt64(3);
  EXPECT_EQ(os.flags() & std::ios_base::basefield, std::ios_base::hex);
  EXPECT_EQ(os.fill(), '*');
}

TEST(RngCheckpoint, LoadsAStateWrittenThroughTheStdEngine) {
  // What a checkpoint from a build on std::mt19937_64 contains.
  std::mt19937_64 ref(splitmix64(9));
  for (int i = 0; i < 77; ++i) (void)ref();
  std::ostringstream text;
  text << "rng " << 9 << ' ' << ref << '\n';
  Rng loaded(0);
  std::istringstream is(text.str());
  loaded.load(is);
  EXPECT_EQ(loaded.seed(), 9u);
  std::ostringstream again;
  loaded.save(again);
  EXPECT_EQ(again.str(), text.str());
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(loaded.engine()(), ref());
}

/// Rng::load of `text`; the error message, or "" when it loads.
std::string load_error(const std::string& text, Rng& into) {
  std::istringstream is(text);
  try {
    into.load(is);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(RngCheckpoint, LoadRejectsAnOutOfRangeIndexOrATruncatedState) {
  Rng rng(4);
  (void)rng.uniform();
  std::ostringstream saved;
  rng.save(saved);
  const std::string good = saved.str();
  Rng probe(1);
  ASSERT_EQ(load_error(good, probe), "");

  // The index is the last field: 312 is valid ("twist first"), 313 is not.
  const size_t idx_at = good.find_last_of(' ') + 1;
  const std::string prefix = good.substr(0, idx_at);
  EXPECT_EQ(load_error(prefix + "312\n", probe), "");
  for (const char* bad : {"313", "999999", "18446744073709551615"}) {
    Rng target(2);
    std::ostringstream before;
    target.save(before);
    EXPECT_EQ(load_error(prefix + bad + "\n", target), "Rng: corrupt checkpoint state")
        << bad;
    std::ostringstream after;
    target.save(after);
    EXPECT_EQ(after.str(), before.str()) << "a rejected load must leave the Rng as it was";
  }
  // Truncated anywhere inside the 312 words or before the index.
  for (const size_t cut : {size_t{4}, good.size() / 2, idx_at - 1}) {
    EXPECT_EQ(load_error(good.substr(0, cut), probe), "Rng: corrupt checkpoint state")
        << "cut at " << cut;
  }
  EXPECT_EQ(load_error("mt " + good.substr(4), probe), "Rng: corrupt checkpoint state");
}

// ---- the add_normal block kernel ---------------------------------------------

/// Fixed-output generator: feeds one chosen word to generate_canonical.
struct FixedWord {
  using result_type = uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type word;
  result_type operator()() { return word; }
};

using testing_support::same_bits;

TEST(CanonicalFromWord, EqualsGenerateCanonicalBitForBit) {
  auto expect_same = [](uint64_t u) {
    FixedWord gen{u};
    const double want = std::generate_canonical<double, 53>(gen);
    const double got = detail::canonical_from_word(u);
    EXPECT_TRUE(same_bits(got, want)) << "word " << u << ": " << got << " vs " << want;
  };
  for (const uint64_t u : {uint64_t{0}, uint64_t{1}, (uint64_t{1} << 53) + 1,
                           ~uint64_t{0} - 1023, ~uint64_t{0} - 1024, ~uint64_t{0} - 2047,
                           ~uint64_t{0}})
    expect_same(u);
  EXPECT_EQ(detail::canonical_from_word(~uint64_t{0}), std::nextafter(1.0, 0.0));
  std::mt19937_64 words(123);
  size_t mismatches = 0;
  for (int i = 0; i < 10000000; ++i) {
    const uint64_t u = words();
    FixedWord gen{u};
    mismatches += !same_bits(detail::canonical_from_word(u),
                             std::generate_canonical<double, 53>(gen));
  }
  EXPECT_EQ(mismatches, 0u);
}

using AddNormalEntry = void (*)(Mt64&, std::span<const double>, double, std::span<double>);

/// Runs `entry` against the per-coordinate Rng::normal loop for every
/// d in [0, 700] at start offsets 0, 1, 2 and 311 engine words, so the
/// normal pairs start at even and odd positions and straddle the
/// 312-word state block.  Both the output bits and the engine after the
/// call must match.
void expect_matches_scalar_loop(AddNormalEntry entry) {
  const double stddev = 0.75;
  size_t checked = 0;
  for (const int offset : {0, 1, 2, 311}) {
    for (size_t d = 0; d <= 700; ++d) {
      Vector base(d);
      for (size_t i = 0; i < d; ++i)
        base[i] = (i % 4 == 0) ? -0.0 : 0.001 * static_cast<double>(i) - 0.3;
      Rng ref(d * 7 + static_cast<uint64_t>(offset)), mine = ref;
      for (int k = 0; k < offset; ++k) {
        (void)ref.engine()();
        (void)mine.engine()();
      }
      Vector want(d), got(d, 99.0);
      for (size_t i = 0; i < d; ++i) want[i] = base[i] + ref.normal(0.0, stddev);
      entry(mine.engine(), base, stddev, got);
      ASSERT_TRUE(same_bits(got, want)) << "d = " << d << ", offset " << offset;
      ASSERT_TRUE(mine.engine() == ref.engine()) << "d = " << d << ", offset " << offset;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 4u * 701u);
}

TEST(RngAddNormal, PortableEntryMatchesTheScalarLoop) {
  expect_matches_scalar_loop(&detail::add_normal_portable);
}

TEST(RngAddNormal, Avx2EntryMatchesTheScalarLoop) {
  if (!kernels::detail::cpu_has_avx2()) GTEST_SKIP() << "host has no AVX2";
  expect_matches_scalar_loop(&detail::add_normal_avx2);
}

TEST(RngAddNormal, DispatchedEntryAliasesAndChecksItsShape) {
  Rng a(3), b(3);
  Vector v(500, 1.5), want(500);
  for (size_t i = 0; i < v.size(); ++i) want[i] = v[i] + a.normal(0.0, 2.0);
  b.add_normal(v, 2.0, v);  // in place
  EXPECT_EQ(v, want);
  Vector short_out(3);
  EXPECT_THROW(b.add_normal(v, 2.0, short_out), std::invalid_argument);
}

}  // namespace
}  // namespace dpbyz
