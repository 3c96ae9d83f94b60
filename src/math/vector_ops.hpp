// vector_ops.hpp — dense vector arithmetic for gradients and model weights.
//
// Gradients throughout dpbyz are plain `std::vector<double>` ("Vector").
// The model sizes in this reproduction (d = 69 up to a few 1e4 in the
// dimension sweeps) do not justify an expression-template library; simple
// loops keep the code auditable against the paper's equations.
//
// The reductions (dot, norm_sq, dist_sq) are the seed's single-accumulator
// loops, bit-identical and golden-pinned; the pairwise matrix runs the
// dist_sq loop for many pairs at once (math/kernels.hpp), to the same bits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace dpbyz {

using Vector = std::vector<double>;

/// Mutable / read-only views over contiguous coordinate storage (a Vector,
/// a GradientBatch row, or any double buffer).  The span overloads below
/// are the allocation-free hot-path API; the Vector overloads forward to
/// them, so both paths are bit-identical.
using View = std::span<double>;
using CView = std::span<const double>;

namespace vec {

/// A zero vector of dimension `d`.
Vector zeros(size_t d);

/// Element-wise a + b.  Dimensions must match.
Vector add(const Vector& a, const Vector& b);

/// Element-wise a - b.  Dimensions must match.
Vector sub(const Vector& a, const Vector& b);

/// Scalar multiple s * a.
Vector scale(const Vector& a, double s);

/// In-place a += b.
void add_inplace(Vector& a, const Vector& b);

/// In-place a -= b.
void sub_inplace(Vector& a, const Vector& b);

/// In-place a *= s.
void scale_inplace(Vector& a, double s);

/// In-place a += s * b (BLAS axpy).
void axpy_inplace(Vector& a, double s, const Vector& b);

/// Inner product <a, b>.
double dot(const Vector& a, const Vector& b);

/// Squared L2 norm.
double norm_sq(const Vector& a);

/// L2 norm.
double norm(const Vector& a);

/// L1 norm.
double norm_l1(const Vector& a);

/// L-infinity norm.
double norm_inf(const Vector& a);

/// Squared L2 distance ||a - b||^2 without allocating a temporary.
double dist_sq(const Vector& a, const Vector& b);

/// L2 distance ||a - b||.
double dist(const Vector& a, const Vector& b);

/// Arithmetic mean of a non-empty set of equal-dimension vectors.
Vector mean(std::span<const Vector> vs);

/// Mean of the subset of `vs` selected by `idx` (indices into vs).
Vector mean_of(std::span<const Vector> vs, std::span<const size_t> idx);

/// True iff every component is finite (no NaN/Inf).
bool all_finite(const Vector& a);

/// True iff ||a - b||_inf <= tol.
bool approx_equal(const Vector& a, const Vector& b, double tol = 1e-12);

// ---- span overloads (allocation-free; write into caller storage) ----

/// Set every component of `a` to `value`.
void fill(View a, double value);

/// Copy `src` into `dst`.  Dimensions must match.
void copy(CView src, View dst);

/// In-place a += b / a -= b / a *= s / a += s * b on views.
void add_inplace(View a, CView b);
void sub_inplace(View a, CView b);
void scale_inplace(View a, double s);
void axpy_inplace(View a, double s, CView b);

double dot(CView a, CView b);
double norm_sq(CView a);
double norm(CView a);
double norm_l1(CView a);
double norm_inf(CView a);
double dist_sq(CView a, CView b);
double dist(CView a, CView b);
bool all_finite(CView a);
bool approx_equal(CView a, CView b, double tol);

/// Lexicographic strict ordering of two views — the canonical GAR
/// tie-break, matching std::vector<double>'s operator< on the same values.
bool lex_less(CView a, CView b);

// ---- int8 symmetric quantization (the wire format's lossy payload) ----
//
// Contract (documented with its robustness implications in
// docs/ARCHITECTURE.md, "Hierarchical aggregation & wire format"):
// scale = ||src||∞ / 127, q_i = clamp(round(src_i / scale), ±127), so the
// round trip satisfies |dequantize(q)_i − src_i| ≤ scale / 2 = ||src||∞/254
// per coordinate.  An all-zero (or all-±0) src yields scale = 0 and an
// all-zero q.  Both kernels are allocation-free and deterministic.

/// Quantizes `src` into `out` (equal lengths) and returns the scale.
double quantize_int8(CView src, std::span<int8_t> out);

/// Inverse transform: dst_i = q_i * scale.
void dequantize_int8(std::span<const int8_t> q, double scale, View dst);

}  // namespace vec
}  // namespace dpbyz
