// rng.hpp — deterministic random-number generation with seed derivation.
//
// Reproducibility is a hard requirement of the paper's evaluation ("each
// experimental setup is repeated 5 times, with specified seeds in 1 to 5").
// Every stochastic component (batch sampling, DP noise, dataset synthesis,
// attack randomness) draws from its own Rng derived from the experiment
// seed via a splitmix64-based key derivation, so that e.g. enabling DP
// noise does not perturb the batch-sampling stream of an otherwise
// identical run — configs stay comparable pointwise.
#pragma once

#include <bit>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>

#include "math/vector_ops.hpp"

namespace dpbyz {

/// The 64-bit Mersenne Twister, output-for-output identical to
/// std::mt19937_64: the same seeding, twist and tempering.  Unlike the
/// std engine its state is visible: Rng::add_normal's kernel tempers the
/// untwisted words of the current block in bulk and then advances
/// `index` by exactly the words it consumed, and Rng::save writes the
/// 312 words and the index as raw codec words.
struct Mt64 {
  using result_type = uint64_t;
  static constexpr size_t kStateWords = 312;

  explicit Mt64(uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (index >= kStateWords) twist();
    return temper(state[index++]);
  }

  /// The output transform applied to one state word.
  static uint64_t temper(uint64_t z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

  /// Regenerate all kStateWords words and reset the index to 0.
  void twist();

  bool operator==(const Mt64&) const = default;

  uint64_t state[kStateWords];
  /// Next word to hand out; kStateWords means "twist first".
  size_t index;
};

/// Deterministic RNG over Mt64 with hierarchical seed derivation.
class Rng {
 public:
  /// Construct from a raw 64-bit seed.
  explicit Rng(uint64_t seed);

  /// Derive a child RNG keyed by a string label.  The same (seed, label)
  /// pair always yields the same child stream; distinct labels yield
  /// decorrelated streams.  Deriving does not advance this RNG.
  Rng derive(const std::string& label) const;

  /// Derive a child keyed by a numeric index (e.g. worker id, step).
  Rng derive(uint64_t index) const;

  /// Uniform integer in [0, n) — n must be positive.
  size_t uniform_index(size_t n);

  /// Uniform double in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0);

  /// Standard normal draw N(mean, stddev^2).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Laplace(mu, scale) draw via inverse CDF.  Always finite: the
  /// uniform draw is inclusive at -1/2 (where the raw inverse CDF is
  /// -inf), and that boundary is clamped — see laplace_from_uniform.
  double laplace(double mu, double scale);

  /// The deterministic inverse-CDF transform behind laplace():
  /// X = mu - scale * sign(u) * log(1 - 2|u|) for u in [-1/2, 1/2], with
  /// the log argument clamped to the smallest positive normal double so
  /// the boundary draws |u| = 1/2 map to finite tail values instead of
  /// ±inf.  Exposed so the boundary behaviour is directly testable.
  static double laplace_from_uniform(double u, double mu, double scale);

  /// Bernoulli draw with success probability p.
  bool bernoulli(double p);

  /// Vector of iid N(0, stddev^2) entries — the DP Gaussian noise shape
  /// y ~ N(0, I_d * s^2) from Eq. (6) of the paper.
  Vector normal_vector(size_t d, double stddev);

  /// Fill `out` with iid N(0, stddev^2) entries — the allocation-free
  /// variant; draw-for-draw identical to normal_vector (the RandomGaussian
  /// attack forges rows in place through this).
  void normal_fill(std::span<double> out, double stddev);

  /// out[i] = base[i] + normal(0, stddev) for every i, bit for bit and
  /// engine word for engine word the same as that per-coordinate loop
  /// (one fresh polar-method draw per coordinate, the pair's second
  /// normal discarded), but computed by a block kernel: the DP Gaussian
  /// mechanism and the dataset generators.  `out` may alias `base`.
  void add_normal(std::span<const double> base, double stddev, std::span<double> out);

  /// Fisher–Yates shuffle of an index range [0, n), returned as a vector.
  std::vector<size_t> permutation(size_t n);

  /// The underlying engine, for std <random> distributions in user code.
  Mt64& engine() { return engine_; }

  uint64_t seed() const { return seed_; }

  /// Checkpoint round trip.  An Rng's observable state is exactly
  /// (seed_, engine_), so the seed, the 312 state words and the index
  /// (utils/codec.hpp words) restore the stream draw-for-draw.  load()
  /// throws std::runtime_error "Rng: corrupt checkpoint state" on a
  /// truncated state or an index above 312, leaving *this unchanged.
  void save(std::ostream& os) const;
  void load(std::istream& is);

 private:
  uint64_t seed_;
  Mt64 engine_;
};

namespace detail {

/// std::generate_canonical<double, 53> of one engine word, bit for bit:
/// (double(u >> 32) * 2^32 + double(u & 0xffffffff)) * 2^-64, clamped to
/// the largest double below 1.  The two halves convert exactly through
/// the 2^52 exponent trick, their sum rounds once (the same rounding as
/// double(u)) and the power-of-two scale is exact.  The clamp works on
/// the bit pattern: the value is at most 1.0, 1.0 is the only one whose
/// exponent field reaches 0x3ff, and the largest double below 1 is its
/// bit pattern minus one.  Only integer and IEEE add/mul operations, and
/// no compare, so the kernel's loop over a block of words vectorizes.
inline double canonical_from_word(uint64_t u) {
  constexpr uint64_t kTwo52Bits = 0x4330000000000000ULL;
  const double hi = std::bit_cast<double>((u >> 32) | kTwo52Bits) - 0x1p52;
  const double lo = std::bit_cast<double>((u & 0xffffffffULL) | kTwo52Bits) - 0x1p52;
  const uint64_t bits = std::bit_cast<uint64_t>((hi * 0x1p32 + lo) * 0x1p-64);
  return std::bit_cast<double>(bits - (((bits >> 52) + 1) >> 10));
}

/// The two compilations of Rng::add_normal's kernel: the baseline ISA and
/// AVX2 without FMA.  Rng::add_normal picks one by cpuid; both are
/// exposed so tests can hold each to the per-coordinate loop.  On non-x86
/// builds the AVX2 entry is the portable one.
void add_normal_portable(Mt64& engine, std::span<const double> base, double stddev,
                         std::span<double> out);
void add_normal_avx2(Mt64& engine, std::span<const double> base, double stddev,
                     std::span<double> out);

}  // namespace detail

/// splitmix64 mixing function (public-domain constant schedule); used for
/// seed derivation so nearby seeds produce decorrelated streams.
uint64_t splitmix64(uint64_t x);

}  // namespace dpbyz
