// kernels.hpp — the hot reductions' kernels: the default-mode pairwise
// block and the opt-in fast-math implementations.
//
// The GAR hot path is dominated by a handful of span reductions:
// pairwise ||a - b||² (Krum scoring, MDA diameter, Bulyan rescoring),
// ||a||² (CGE), <a, b> and the elementwise axpy/scale pair (Weiszfeld,
// clipping, momentum).  The default implementations in vector_ops.cpp are
// single-accumulator left-to-right loops: they are bit-identical to the
// seed (the golden tests pin their exact doubles), but a single serial
// dependency chain caps them at one add per FP-add latency — a fraction
// of what the machine can retire.
//
// The default pairwise matrix lifts that cap without changing a bit, by
// running many pairs at once, one pair per lane (pairwise_block_scalar).
// A block of kPairLanes = 8 lane rows (two 4-lane vectors) is held against
// 4 source rows, with one broadcast per source row per coordinate,
// so eight independent accumulator vectors are in flight.  The matrix is
// bit-identical to vec::dist_sq because each lane is one pair's ascending
// single-accumulator sum acc += (a[k] - b[k]) * (a[k] - b[k]),
// k = 0..d-1, which is the scalar loop itself; SIMD and scalar sub, mul
// and add are the same correctly-rounded IEEE operations, lane by lane;
// and no FMA is used, so every product is rounded before it is added.
// Which lane, block or thread holds a pair cannot change its bits.
//
// The fast path is opt-in:
//
//   * `*_fast` kernels break each reduction into kLanes = 8 independent
//     accumulators plus a scalar tail, then combine the partials
//     pairwise.  The elementwise kernels (axpy, scale) are restructured
//     the same way but perform the exact same per-element arithmetic, so
//     they remain bit-identical to the scalar loops.
//   * a process-global MathMode flag selects which implementation the
//     vec:: entry points (and pairwise_dist_sq) dispatch to.  The mode
//     defaults to kScalar, so nothing changes unless a caller opts in —
//     ExperimentConfig::fast_math is the user-facing knob (the trainer
//     installs a MathModeScope for the duration of the run).
//
// Dispatch model (runtime ISA selection): one binary carries two
// backends, for the fast kernels and for the default pairwise block —
//
//   kUnrolled8  portable scalar loops (always present): eight fast-mode
//               accumulators, or one accumulator per pair;
//   kAvx2       AVX2 vector loops, same lane split and combine order (or
//               block shape), no FMA — bit-identical to kUnrolled8 on
//               every input.
//
// At startup the backend is chosen by cpuid: kAvx2 when the host supports
// it, kUnrolled8 otherwise.  Because the two agree bit-for-bit, results
// are stable across the build matrix whichever one the probe picks.  The
// ISA-specific bodies live in kernels_avx2.cpp behind per-function target
// attributes and are only reachable after cpuid approves them, so no TU
// needs a global ISA flag.
//
// Accuracy contract (the "ULP bound" the fast golden tests enforce):
// every per-element product/difference is computed exactly as in the
// scalar loop — only the *summation order* changes.
// For a reduction over d terms the classical reassociation bound gives
//
//     |fast - scalar| <= 2 * d * eps * sum_i |term_i|,   eps = 2^-53,
//
// where term_i is (a_i - b_i)² / a_i² / a_i*b_i respectively.  For the
// nonnegative-term reductions (dist_sq, norm_sq) sum|term| equals the
// result itself, so the bound is a plain relative error of 2*d*eps.
//
// tests/test_math_kernels.cpp checks the bound on random, adversarial
// (cancellation-heavy) and denormal-heavy inputs.
//
// Determinism contract: for a fixed (binary, backend) and a fixed input,
// the fast kernels are pure functions — the lane split depends only on d,
// never on data, timing or thread count.  pairwise_dist_sq computes each
// pair on exactly one thread, so fast-mode results are bit-identical
// across every `threads` width and across reruns (enforced by the bench
// --check gate).  kUnrolled8 and kAvx2 agree bit-for-bit, so the
// startup selection yields one fast-mode answer across the whole build
// matrix.
// The default scalar MathMode still promises bit-identity to the seed and
// stays the default.
//
// Thread model: the mode is one process-global atomic *count* of live
// fast scopes (relaxed loads on the hot path) — the fast path is active
// while at least one MathModeScope(kFast) is alive, and kScalar scopes
// are no-ops.  Counting (rather than save/restore of the previous mode)
// makes OVERLAPPING scope lifetimes safe: run_seeds_parallel fans one
// fast_math config out across pool workers whose scopes construct and
// destruct in arbitrary interleavings, and with save/restore the first
// run to finish would have yanked the mode out from under the others
// (and the last to finish would have "restored" the mode a sibling set,
// leaving the process stuck in fast mode).  With the count, the mode is
// fast for exactly the union of the fast scopes' lifetimes and reverts
// to the scalar default when the last one dies.  The one unsupported
// pattern is *mixed-mode* concurrency (a fast_math run overlapping a
// scalar run): the scalar run would observe the fast kernels while the
// other run lives.  Nothing in the repo does this — concurrent runs
// share one config — and the config knob documents the restriction.
// set_fast_backend follows the same discipline: call it at startup or
// between runs, not while kernels may be executing on other threads.
#pragma once

#include <cstddef>

namespace dpbyz::kernels {

/// Which implementation the vec:: reductions dispatch to.
enum class MathMode {
  kScalar,  ///< seed-bit-identical single-accumulator loops (default)
  kFast,    ///< multi-accumulator kernels (ULP-bounded, see above)
};

/// Current process-global mode: kFast while any MathModeScope(kFast) is
/// alive, kScalar otherwise (relaxed atomic load; safe from any thread).
MathMode mode();

/// True iff the fast path is currently selected.
bool fast_enabled();

/// The implementation behind MathMode::kFast and pairwise_block_scalar
/// (see the dispatch model).
enum class FastBackend {
  kUnrolled8,  ///< portable scalar loops
  kAvx2,       ///< AVX2, no FMA — bit-identical to kUnrolled8
};

/// Currently selected fast backend.  Resolved on first use: kAvx2 when
/// cpuid reports AVX2 support, kUnrolled8 otherwise.
FastBackend fast_backend_kind();

/// Name of the current fast backend: "unrolled8" / "avx2".
/// Informational (bench/JSON provenance).
const char* fast_backend();

/// True iff this host can execute backend `b` (cpuid probe; kUnrolled8 is
/// always supported).
bool backend_supported(FastBackend b);

/// Select the fast backend explicitly (tests pin each one in turn).
/// Throws std::invalid_argument when the host lacks the required ISA.
/// Not thread-safe against concurrently executing kernels — call between
/// runs, like MathModeScope setup.
void set_fast_backend(FastBackend b);

/// RAII fast-mode participation: a kFast scope holds the process in fast
/// mode for its lifetime (counted, so overlapping scopes compose — see
/// the thread model above); a kScalar scope is a no-op, since scalar is
/// the default the process reverts to.  The trainer wraps each run in
/// one of these, driven by ExperimentConfig::fast_math.
class MathModeScope {
 public:
  explicit MathModeScope(MathMode m);
  ~MathModeScope();
  MathModeScope(const MathModeScope&) = delete;
  MathModeScope& operator=(const MathModeScope&) = delete;

 private:
  bool counted_;  // true iff this scope incremented the fast count
};

// ---- raw fast kernels ------------------------------------------------------
// Always available regardless of the current mode (the bench times them
// side by side with the scalar loops).  Null-safe for n == 0.  Each call
// routes to the selected backend (fast_backend_kind()).

/// sum_i (a_i - b_i)^2 with 8 partial accumulators.
double dist_sq_fast(const double* a, const double* b, size_t n);

/// sum_i a_i * b_i with 8 partial accumulators.
double dot_fast(const double* a, const double* b, size_t n);

/// sum_i a_i^2 with 8 partial accumulators.
double norm_sq_fast(const double* a, size_t n);

/// a_i += s * b_i.  Elementwise: bit-identical to the scalar loop.
void axpy_fast(double* a, double s, const double* b, size_t n);

/// a_i *= s.  Elementwise: bit-identical to the scalar loop.
void scale_fast(double* a, double s, size_t n);

/// Dual-destination dist_sq: out0 = ||a0 - b||², out1 = ||a1 - b||² in
/// one pass over the streamed source row b, halving its memory traffic
/// (the pairwise kernel's blocked inner loop).  Per output, arithmetic
/// and lane/combine order match dist_sq_fast exactly, so each result is
/// bit-identical to the single-row kernel on the same backend.
void dist_sq2_fast(const double* a0, const double* a1, const double* b, size_t n,
                   double& out0, double& out1);

// ---- default-mode pairwise kernel -----------------------------------------

/// Lane rows per block of pairwise_block_scalar.
inline constexpr size_t kPairLanes = 8;

/// One lane block of the default-mode pairwise matrix.  For the n x d
/// row-major matrix `rows` and the lane rows i in [i0, min(i0 + kPairLanes,
/// n)), writes out[j*n + i] = ||row_i - row_j||² for every j > i (the
/// lower triangle of the n x n `out`, columns of this block only).  Each
/// value is bit-identical to vec::dist_sq's scalar loop (see the header).
/// Entries out[j*n + i] with i >= j inside the block's own square
/// [i0, i0 + kPairLanes)² receive scratch values; pairwise_dist_sq
/// overwrites them when it mirrors the block and zeroes its diagonal.
/// Nothing outside those columns is touched, so blocks are independent.
/// Routes to the backend fast_backend_kind() names; both bodies give the
/// same bits, so the choice moves wall-clock only.
void pairwise_block_scalar(const double* rows, size_t n, size_t d, size_t i0,
                           double* out);

}  // namespace dpbyz::kernels
