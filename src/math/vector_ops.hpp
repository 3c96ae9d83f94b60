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
/// a GradientBatch row, or any double buffer).  Every in-place op and
/// reduction below takes views, and a Vector binds to them implicitly, so
/// each operation has one entry; only the allocating helpers (zeros, add,
/// sub, scale, mean, mean_of) return a fresh Vector.
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

/// Arithmetic mean of a non-empty set of equal-dimension vectors.
Vector mean(std::span<const Vector> vs);

/// Mean of the subset of `vs` selected by `idx` (indices into vs).
Vector mean_of(std::span<const Vector> vs, std::span<const size_t> idx);

// ---- view operations (allocation-free; write into caller storage) ----

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
/// True iff the dimensions match and ||a - b||_inf <= tol.
bool approx_equal(CView a, CView b, double tol = 1e-12);

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
