#include "dp/gaussian_mechanism.hpp"

#include <cmath>

#include "dp/sensitivity.hpp"
#include "utils/errors.hpp"
#include "utils/strings.hpp"

namespace dpbyz {

GaussianMechanism::GaussianMechanism(double epsilon, double delta, double l2_sensitivity)
    : epsilon_(epsilon), delta_(delta) {
  require(epsilon > 0 && epsilon < 1,
          "GaussianMechanism: epsilon must be in (0,1) — the classical "
          "Gaussian-mechanism analysis does not cover eps >= 1");
  require(delta > 0 && delta < 1, "GaussianMechanism: delta must be in (0,1)");
  require(l2_sensitivity > 0, "GaussianMechanism: sensitivity must be positive");
  s_ = l2_sensitivity * std::sqrt(2.0 * std::log(1.25 / delta)) / epsilon;
}

GaussianMechanism GaussianMechanism::for_clipped_gradients(double epsilon, double delta,
                                                           double g_max, size_t batch_size) {
  return GaussianMechanism(epsilon, delta, dp::l2_sensitivity(g_max, batch_size));
}

double GaussianMechanism::noise_scale(double epsilon, double delta, double g_max,
                                      size_t batch_size) {
  require(epsilon > 0 && epsilon < 1, "noise_scale: epsilon must be in (0,1)");
  require(delta > 0 && delta < 1, "noise_scale: delta must be in (0,1)");
  // s = 2 G_max sqrt(2 log(1.25/delta)) / (b eps)   [paper §2.3]
  return 2.0 * g_max * std::sqrt(2.0 * std::log(1.25 / delta)) /
         (static_cast<double>(batch_size) * epsilon);
}

void GaussianMechanism::perturb_into(std::span<const double> gradient, Rng& rng,
                                     std::span<double> out) const {
  require(out.size() == gradient.size(),
          "GaussianMechanism::perturb_into: dimension mismatch");
  rng.add_normal(gradient, s_, out);
}

std::string GaussianMechanism::describe() const {
  return "gaussian(eps=" + strings::format_double(epsilon_) +
         ", delta=" + strings::format_double(delta_) +
         ", s=" + strings::format_double(s_) + ")";
}

}  // namespace dpbyz
