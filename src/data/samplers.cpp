#include "data/samplers.hpp"

#include "utils/errors.hpp"

namespace dpbyz {

IidSampler::IidSampler(size_t population_size) : n_(population_size) {
  require(n_ > 0, "IidSampler: population must be positive");
}

void IidSampler::next_into(size_t batch_size, Rng& rng, std::vector<size_t>& out) {
  require(batch_size > 0, "IidSampler::next: batch_size must be positive");
  out.resize(batch_size);  // no-op on a warmed-up caller buffer
  for (size_t& i : out) i = rng.uniform_index(n_);
}

}  // namespace dpbyz
