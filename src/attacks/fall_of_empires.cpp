#include "attacks/fall_of_empires.hpp"

#include "math/statistics.hpp"
#include "utils/errors.hpp"

namespace dpbyz {

FallOfEmpires::FallOfEmpires(double nu) : nu_(nu) {
  require(nu >= 0, "FallOfEmpires: nu must be non-negative");
}

void FallOfEmpires::forge_into(const AttackContext& ctx, Rng&,
                               std::span<double> out) const {
  require(ctx.observed_rows > 0, "FallOfEmpires: no honest gradients to observe");
  column_moments_into(ctx.observed, ctx.observed_rows, out, {}, ctx.threads);
  vec::scale_inplace(out, 1.0 - nu_);
}

}  // namespace dpbyz
