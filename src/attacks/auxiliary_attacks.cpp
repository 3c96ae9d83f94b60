#include "attacks/auxiliary_attacks.hpp"

#include "math/statistics.hpp"
#include "utils/errors.hpp"

namespace dpbyz {

SignFlip::SignFlip(double scale) : scale_(scale) {
  require(scale > 0, "SignFlip: scale must be positive");
}

void SignFlip::forge_into(const AttackContext& ctx, Rng&, std::span<double> out) const {
  require(ctx.observed_rows > 0, "SignFlip: no honest gradients to observe");
  column_moments_into(ctx.observed, ctx.observed_rows, out, {}, ctx.threads);
  vec::scale_inplace(out, -scale_);
}

RandomGaussian::RandomGaussian(double stddev) : stddev_(stddev) {
  require(stddev > 0, "RandomGaussian: stddev must be positive");
}

void RandomGaussian::forge_into(const AttackContext& ctx, Rng& rng,
                                std::span<double> out) const {
  require(ctx.observed_rows > 0, "RandomGaussian: no honest gradients to observe");
  rng.normal_fill(out, stddev_);
}

void ZeroGradient::forge_into(const AttackContext& ctx, Rng&, std::span<double> out) const {
  require(ctx.observed_rows > 0, "ZeroGradient: no honest gradients to observe");
  vec::fill(out, 0.0);
}

void Mimic::forge_into(const AttackContext& ctx, Rng&, std::span<double> out) const {
  require(ctx.observed_rows > 0, "Mimic: no honest gradients to observe");
  vec::copy(ctx.observed.row(0), out);
}

}  // namespace dpbyz
