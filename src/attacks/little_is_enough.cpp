#include "attacks/little_is_enough.hpp"

#include "math/statistics.hpp"
#include "utils/errors.hpp"

namespace dpbyz {

ALittleIsEnough::ALittleIsEnough(double nu) : nu_(nu) {
  require(nu >= 0, "ALittleIsEnough: nu must be non-negative");
}

double ALittleIsEnough::optimal_nu(size_t n, size_t f) {
  require(n >= 2, "ALittleIsEnough::optimal_nu: need n >= 2");
  require(2 * f < n, "ALittleIsEnough::optimal_nu: requires f < n/2");
  const size_t s = n / 2 + 1 - f;  // honest workers the forged value must blend with
  const double honest = static_cast<double>(n - f);
  const double p = (honest - static_cast<double>(s)) / honest;
  require(p > 0.0 && p < 1.0, "ALittleIsEnough::optimal_nu: degenerate topology");
  return stats::normal_quantile(p);
}

void ALittleIsEnough::forge_into(const AttackContext& ctx, Rng&,
                                 std::span<double> out) const {
  require(ctx.observed_rows > 0, "ALittleIsEnough: no honest gradients to observe");
  // g_t ~ mean of honest gradients; a_t = -coordinate-wise stddev.
  sigma_.resize(ctx.observed.dim());
  column_moments_into(ctx.observed, ctx.observed_rows, out, sigma_, ctx.threads);
  vec::axpy_inplace(out, -nu_, CView(sigma_));
}

}  // namespace dpbyz
