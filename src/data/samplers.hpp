// samplers.hpp — the mini-batch index sampler.
//
// Each honest worker W_i "locally samples a random training batch xi_t^(i)
// from the data distribution D" (paper §2.1).  We model D as the empirical
// distribution over the training set, so the sampler draws b indices
// uniformly *with replacement* (iid).
#pragma once

#include <cstddef>
#include <vector>

#include "math/rng.hpp"

namespace dpbyz {

/// IID sampling with replacement — the paper's model of batch sampling.
class IidSampler {
 public:
  explicit IidSampler(size_t population_size);

  /// Write the next batch of exactly `batch_size` indices in
  /// [0, population()) into `out` (resized to batch_size) — the worker
  /// pipeline's hot path: with a reused caller buffer, steady-state calls
  /// perform no heap allocation.  Draw-for-draw identical to next().
  void next_into(size_t batch_size, Rng& rng, std::vector<size_t>& out);

  /// Allocating convenience wrapper around next_into.
  std::vector<size_t> next(size_t batch_size, Rng& rng) {
    std::vector<size_t> out;
    next_into(batch_size, rng, out);
    return out;
  }

  /// Size of the underlying index population.
  size_t population() const { return n_; }

 private:
  size_t n_;
};

}  // namespace dpbyz
