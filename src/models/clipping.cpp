#include "models/clipping.hpp"

#include <cmath>

#include "utils/errors.hpp"

namespace dpbyz {

double clip_l2_inplace(std::span<double> g, double max_norm) {
  require(max_norm > 0, "clip_l2: max_norm must be positive");
  const double n = vec::norm(g);
  if (n > max_norm) vec::scale_inplace(g, max_norm / n);
  return n;
}

}  // namespace dpbyz
