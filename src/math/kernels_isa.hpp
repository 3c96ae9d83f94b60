// kernels_isa.hpp — internal declarations for the ISA-specific kernel
// backend (math/kernels_avx2.cpp).  Not part of the public kernel API:
// callers go through the dispatching entry point in math/kernels.hpp,
// which selects a backend at startup from cpuid — see the dispatch model
// in kernels.hpp.
#pragma once

#include <cstddef>

#include "math/kernels.hpp"

namespace dpbyz::kernels::detail {

/// cpuid probe.  Always false on non-x86 targets, where the portable
/// unrolled8 backend is the only one available.
bool cpu_has_avx2();

/// cpuid probe for AVX-512 F and DQ, the subsets the noise kernel's
/// AVX-512 body (math/rng_avx.cpp) uses.  Always false on non-x86.
bool cpu_has_avx512();

/// Source rows each lane block of the pairwise kernel holds against its
/// kPairLanes lane rows (kernels::pairwise_block_scalar).
inline constexpr size_t kPairSources = 4;

/// dst[j][l] = sum_k (a[l][k] - b[j][k])^2 for l < kPairLanes,
/// j < kPairSources: one pair per lane, each a single-accumulator
/// ascending sum with no FMA, bit-identical to vec::dist_sq's scalar loop.
void avx2_pair_lanes(const double* const* a, const double* const* b, size_t d,
                     double* const* dst);

}  // namespace dpbyz::kernels::detail
