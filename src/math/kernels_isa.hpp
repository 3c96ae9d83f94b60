// kernels_isa.hpp — internal declarations for the ISA-specific kernel
// backends (math/kernels_avx2.cpp).  Not part of the public kernel API:
// callers go through the dispatching entry points in math/kernels.hpp,
// which select a backend at startup from cpuid — see the dispatch model
// in kernels.hpp.
#pragma once

#include <cstddef>

#include "math/kernels.hpp"

namespace dpbyz::kernels::detail {

/// cpuid probes.  Always false on non-x86 targets, where the portable
/// unrolled8 backend is the only one available.
bool cpu_has_avx2();

// AVX2 backend (no FMA): same lane split and combine order as the
// portable unrolled8 backend, so the two agree bit-for-bit.
double avx2_dist_sq(const double* a, const double* b, size_t n);
double avx2_dot(const double* a, const double* b, size_t n);
double avx2_norm_sq(const double* a, size_t n);
void avx2_axpy(double* a, double s, const double* b, size_t n);
void avx2_scale(double* a, double s, size_t n);
void avx2_dist_sq2(const double* a0, const double* a1, const double* b, size_t n,
                   double& out0, double& out1);

/// Source rows each lane block of the default-mode pairwise kernel holds
/// against its kPairLanes lane rows (kernels::pairwise_block_scalar).
inline constexpr size_t kPairSources = 4;

/// dst[j][l] = sum_k (a[l][k] - b[j][k])^2 for l < kPairLanes,
/// j < kPairSources: one pair per lane, each a single-accumulator
/// ascending sum with no FMA, bit-identical to vec::dist_sq's scalar loop.
void avx2_pair_lanes(const double* const* a, const double* const* b, size_t d,
                     double* const* dst);

}  // namespace dpbyz::kernels::detail
