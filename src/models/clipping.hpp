// clipping.hpp — L2 gradient clipping (Assumption 1 enforcement).
//
// The paper calibrates DP noise assuming ||grad|| <= G_max, "typically
// enforced via gradient clipping" (§3).  Workers clip the mini-batch
// gradient to G_max *before* adding noise (§5.1: "Each worker adds a
// privacy noise only after clipping the original gradient"), which bounds
// the sensitivity of the batch-gradient map by 2 G_max / b (Eq. 5).
#pragma once

#include "math/vector_ops.hpp"

namespace dpbyz {

/// Scale `g` in place down to L2 norm `max_norm` iff it exceeds it;
/// identity otherwise.  max_norm must be positive.  Returns the pre-clip
/// norm (useful for diagnostics).  Takes a view so it works on arena rows
/// and reused worker buffers (Vectors bind implicitly); performs no heap
/// allocation.
double clip_l2_inplace(std::span<double> g, double max_norm);

}  // namespace dpbyz
