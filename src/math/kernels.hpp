// kernels.hpp — the pairwise distance block behind pairwise_dist_sq and
// the runtime ISA backend that runs it.
//
// The GAR hot path is dominated by pairwise ||a - b||² (Krum scoring,
// MDA diameter, Bulyan rescoring).  vec::dist_sq is a single-accumulator
// left-to-right loop: bit-identical to the seed (the golden tests pin its
// exact doubles), but a single serial dependency chain caps it at one add
// per FP-add latency — a fraction of what the machine can retire.
//
// The pairwise matrix lifts that cap without changing a bit, by running
// many pairs at once, one pair per lane (pairwise_block_scalar).  A block
// of kPairLanes = 8 lane rows (two 4-lane vectors) is held against 4
// source rows, with one broadcast per source row per coordinate, so
// eight independent accumulator vectors are in flight.  The matrix is
// bit-identical to vec::dist_sq because each lane is one pair's ascending
// single-accumulator sum acc += (a[k] - b[k]) * (a[k] - b[k]),
// k = 0..d-1, which is the scalar loop itself; SIMD and scalar sub, mul
// and add are the same correctly-rounded IEEE operations, lane by lane;
// and no FMA is used, so every product is rounded before it is added.
// Which lane, block or thread holds a pair cannot change its bits.
//
// Dispatch model (runtime ISA selection): one binary carries two bodies
// of the block —
//
//   kUnrolled8  portable scalar loops (always present), one accumulator
//               per pair;
//   kAvx2       AVX2 vector loops, same block shape, no FMA.
//
// At startup the backend is chosen by cpuid: kAvx2 when the host supports
// it, kUnrolled8 otherwise.  Both give the bits of vec::dist_sq, so the
// choice moves wall-clock only.  The AVX2 body lives in kernels_avx2.cpp
// behind a per-function target attribute and is only reachable after
// cpuid approves it, so no TU needs a global ISA flag.  set_fast_backend
// pins a backend; call it at startup or between runs, not while kernels
// may be executing on other threads.
#pragma once

#include <cstddef>

namespace dpbyz::kernels {

/// The body of pairwise_block_scalar (see the dispatch model).
enum class FastBackend {
  kUnrolled8,  ///< portable scalar loops
  kAvx2,       ///< AVX2, no FMA — bit-identical to kUnrolled8
};

/// Currently selected backend.  Resolved on first use: kAvx2 when cpuid
/// reports AVX2 support, kUnrolled8 otherwise.
FastBackend fast_backend_kind();

/// Name of the current backend: "unrolled8" / "avx2".
/// Informational (bench/JSON provenance).
const char* fast_backend();

/// True iff this host can execute backend `b` (cpuid probe; kUnrolled8 is
/// always supported).
bool backend_supported(FastBackend b);

/// Select the backend explicitly (tests pin each one in turn).
/// Throws std::invalid_argument when the host lacks the required ISA.
/// Not thread-safe against concurrently executing kernels — call between
/// runs.
void set_fast_backend(FastBackend b);

/// Retired: the library has one math mode.  This declaration-only no-op
/// survives because bench/e2e/replica.cpp, its only reader, still
/// constructs a MathModeScope from ExperimentConfig::fast_math.
enum class MathMode { kScalar, kFast };

class MathModeScope {
 public:
  explicit MathModeScope(MathMode) {}
  MathModeScope(const MathModeScope&) = delete;
  MathModeScope& operator=(const MathModeScope&) = delete;
};

/// Lane rows per block of pairwise_block_scalar.
inline constexpr size_t kPairLanes = 8;

/// One lane block of the pairwise matrix.  For the n x d row-major matrix
/// `rows` and the lane rows i in [i0, min(i0 + kPairLanes, n)), writes
/// out[j*n + i] = ||row_i - row_j||² for every j > i (the lower triangle
/// of the n x n `out`, columns of this block only).  Each value is
/// bit-identical to vec::dist_sq's scalar loop (see the header).
/// Entries out[j*n + i] with i >= j inside the block's own square
/// [i0, i0 + kPairLanes)² receive scratch values; pairwise_dist_sq
/// overwrites them when it mirrors the block and zeroes its diagonal.
/// Nothing outside those columns is touched, so blocks are independent.
/// Routes to the backend fast_backend_kind() names; both bodies give the
/// same bits, so the choice moves wall-clock only.
void pairwise_block_scalar(const double* rows, size_t n, size_t d, size_t i0,
                           double* out);

}  // namespace dpbyz::kernels
