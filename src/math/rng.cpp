#include "math/rng.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>

#include "math/kernels_isa.hpp"
#include "utils/codec.hpp"
#include "utils/errors.hpp"

namespace dpbyz {

uint64_t splitmix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Mt64::Mt64(uint64_t seed) {
  state[0] = seed;
  for (size_t i = 1; i < kStateWords; ++i) {
    const uint64_t prev = state[i - 1];
    state[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
  index = kStateWords;
}

void Mt64::twist() {
  // Branch-free (the low bit of mix's y is a coin flip, so a branch on it
  // would mispredict half the time), and each loop only reads words it
  // has not yet written or finished writing, so both vectorize.
  for (size_t k = 0; k < kStateWords - kShift; ++k)
    state[k] = mix(state[k], state[k + 1], state[k + kShift]);
  for (size_t k = kStateWords - kShift; k < kStateWords - 1; ++k)
    state[k] = mix(state[k], state[k + 1], state[k + kShift - kStateWords]);
  state[kStateWords - 1] = mix(state[kStateWords - 1], state[0], state[kShift - 1]);
  index = 0;
}

namespace detail {
namespace {

/// One per-coordinate draw exactly as Rng::normal(0, stddev) makes it —
/// the fallback for a pair that straddles the state block boundary.
double scalar_normal(Mt64& engine, double stddev) {
  std::normal_distribution<double> dist(0.0, stddev);
  return dist(engine);
}

/// The reference body behind Rng::add_normal.  libstdc++'s polar method,
/// drawn fresh per coordinate, is: take words (u1, u2), x = 2c(u1) - 1,
/// y = 2c(u2) - 1, r2 = x² + y²; reject unless 0 < r2 <= 1; return
/// (y · sqrt(-2 log(r2) / r2)) · stddev + 0.0.  The kernel evaluates the
/// candidate pairs of up to kChunkPairs word pairs of the current state
/// block at once, keeps the first accepted ones in order, and advances
/// the index past exactly the pairs it used.  Every value goes through
/// the same IEEE operations in the same order as the scalar draw, so the
/// result is bit-identical; std::log, the one libm call, stays scalar.
constexpr size_t kChunkPairs = 64;

__attribute__((always_inline)) inline void add_normal_body(Mt64& engine,
                                                           const double* base,
                                                           double stddev, double* out,
                                                           size_t d) {
  double y[kChunkPairs] = {}, r2[kChunkPairs] = {};
  double acc_y[kChunkPairs] = {}, acc_r2[kChunkPairs] = {}, scale[kChunkPairs] = {};
  size_t i = 0;
  while (i < d) {
    if (engine.index >= Mt64::kStateWords) engine.twist();
    const size_t pairs = std::min((Mt64::kStateWords - engine.index) / 2, kChunkPairs);
    if (pairs == 0) {
      out[i] = base[i] + scalar_normal(engine, stddev);
      ++i;
      continue;
    }
    const uint64_t* words = engine.state + engine.index;
    for (size_t k = 0; k < pairs; ++k) {
      const double x = 2.0 * canonical_from_word(Mt64::temper(words[2 * k])) - 1.0;
      const double yk = 2.0 * canonical_from_word(Mt64::temper(words[2 * k + 1])) - 1.0;
      y[k] = yk;
      r2[k] = x * x + yk * yk;
    }
    const size_t want = d - i;
    size_t used = 0, kept = 0;
    for (; used < pairs && kept < want; ++used) {
      // Branch-free: a rejected pair is written and then overwritten.
      acc_y[kept] = y[used];
      acc_r2[kept] = r2[used];
      kept += (r2[used] <= 1.0) & (r2[used] != 0.0);
    }
    engine.index += 2 * used;
    for (size_t k = 0; k < kept; ++k) scale[k] = std::log(acc_r2[k]);
    for (size_t k = 0; k < kept; ++k) scale[k] = -2.0 * scale[k] / acc_r2[k];
    for (size_t k = 0; k < kept; ++k) scale[k] = std::sqrt(scale[k]);
    for (size_t k = 0; k < kept; ++k)
      out[i + k] = base[i + k] + ((acc_y[k] * scale[k]) * stddev + 0.0);
    i += kept;
  }
}

}  // namespace

void add_normal_portable(Mt64& engine, std::span<const double> base, double stddev,
                         std::span<double> out) {
  add_normal_body(engine, base.data(), stddev, out.data(), out.size());
}

}  // namespace detail

namespace {
/// FNV-1a over the label, then mixed; gives a stable 64-bit key per label.
uint64_t hash_label(const std::string& label) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : label) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return splitmix64(h);
}
}  // namespace

Rng::Rng(uint64_t seed) : seed_(seed), engine_(splitmix64(seed)) {}

Rng Rng::derive(const std::string& label) const {
  return Rng(splitmix64(seed_ ^ hash_label(label)));
}

Rng Rng::derive(uint64_t index) const {
  return Rng(splitmix64(seed_ + 0x9e3779b97f4a7c15ULL * (index + 1)));
}

size_t Rng::uniform_index(size_t n) {
  require(n > 0, "Rng::uniform_index: n must be positive");
  std::uniform_int_distribution<size_t> dist(0, n - 1);
  return dist(engine_);
}

double Rng::uniform(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

double Rng::normal(double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
}

double Rng::laplace_from_uniform(double u, double mu, double scale) {
  require(scale > 0, "Rng::laplace: scale must be positive");
  require(u >= -0.5 && u <= 0.5, "Rng::laplace_from_uniform: u must be in [-0.5, 0.5]");
  const double sign = (u >= 0.0) ? 1.0 : -1.0;
  // Inverse CDF: X = mu - scale * sign(u) * log(1 - 2|u|).
  // std::uniform_real_distribution is INCLUSIVE at its lower bound, so
  // laplace()'s draw can return exactly -0.5, making the log argument 0
  // and the sample -inf — infinite "DP noise" that would reach the wire
  // and poison every downstream aggregate.  Clamp the argument to the
  // smallest positive normal double: the boundary draw maps to a huge
  // but finite tail value (|X - mu| ~ 708 scale), and every interior u
  // is untouched, so non-boundary draws stay bit-identical to the
  // unclamped formula.
  const double tail =
      std::max(1.0 - 2.0 * std::abs(u), std::numeric_limits<double>::min());
  return mu - scale * sign * std::log(tail);
}

double Rng::laplace(double mu, double scale) {
  return laplace_from_uniform(uniform(-0.5, 0.5), mu, scale);
}

bool Rng::bernoulli(double p) {
  std::bernoulli_distribution dist(p);
  return dist(engine_);
}

Vector Rng::normal_vector(size_t d, double stddev) {
  Vector out(d);
  normal_fill(out, stddev);
  return out;
}

void Rng::normal_fill(std::span<double> out, double stddev) {
  std::normal_distribution<double> dist(0.0, stddev);
  for (double& x : out) x = dist(engine_);
}

namespace {
struct NoiseEntry {
  const char* name;
  void (*body)(Mt64&, std::span<const double>, double, std::span<double>);
};

/// The widest add_normal body this host runs, probed once.
const NoiseEntry& noise_entry() {
  static const NoiseEntry entry =
      kernels::detail::cpu_has_avx512()  ? NoiseEntry{"avx512", &detail::add_normal_avx512}
      : kernels::detail::cpu_has_avx2() ? NoiseEntry{"avx2", &detail::add_normal_avx2}
                                        : NoiseEntry{"portable", &detail::add_normal_portable};
  return entry;
}
}  // namespace

const char* detail::add_normal_entry() { return noise_entry().name; }

void Rng::add_normal(std::span<const double> base, double stddev,
                     std::span<double> out) {
  require(base.size() == out.size(), "Rng::add_normal: dimension mismatch");
  noise_entry().body(engine_, base, stddev, out);
}

void Rng::save(std::ostream& os) const {
  codec::put_u64(os, seed_);
  codec::put_u64s(os, engine_.state);
  codec::put_u64(os, engine_.index);
}

void Rng::load(std::istream& is) {
  constexpr const char* kCorrupt = "Rng: corrupt checkpoint state";
  codec::Reader in(is, kCorrupt);
  const uint64_t seed = in.u64();
  const std::vector<uint64_t> words = in.u64s();
  Mt64 engine(0);
  engine.index = in.u64();
  if (words.size() != Mt64::kStateWords || engine.index > Mt64::kStateWords)
    throw std::runtime_error(kCorrupt);
  std::copy(words.begin(), words.end(), engine.state);
  seed_ = seed;
  engine_ = engine;
}

std::vector<size_t> Rng::permutation(size_t n) {
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  for (size_t i = n; i > 1; --i) {
    std::uniform_int_distribution<size_t> dist(0, i - 1);
    std::swap(idx[i - 1], idx[dist(engine_)]);
  }
  return idx;
}

}  // namespace dpbyz
