#include "math/vector_ops.hpp"

#include <algorithm>
#include <cmath>

#include "utils/errors.hpp"

namespace dpbyz::vec {

namespace {
void require_same_dim(CView a, CView b, const char* op) {
  // Message built only on failure: this check guards every hot-path
  // vector op, and eager std::string concatenation would heap-allocate
  // on each successful call.
  if (a.size() != b.size())
    throw std::invalid_argument(std::string("vec::") + op + ": dimension mismatch");
}
}  // namespace

// ---- span implementations (the single source of truth) ----
//
// The reductions are single-accumulator left-to-right loops, bit-identical
// to the seed and pinned by the golden tests.

void fill(View a, double value) {
  for (double& x : a) x = value;
}

void copy(CView src, View dst) {
  require_same_dim(src, dst, "copy");
  std::copy(src.begin(), src.end(), dst.begin());
}

void add_inplace(View a, CView b) {
  require_same_dim(a, b, "add_inplace");
  for (size_t i = 0; i < a.size(); ++i) a[i] += b[i];
}

void sub_inplace(View a, CView b) {
  require_same_dim(a, b, "sub_inplace");
  for (size_t i = 0; i < a.size(); ++i) a[i] -= b[i];
}

void scale_inplace(View a, double s) {
  for (double& x : a) x *= s;
}

void axpy_inplace(View a, double s, CView b) {
  require_same_dim(a, b, "axpy_inplace");
  for (size_t i = 0; i < a.size(); ++i) a[i] += s * b[i];
}

double dot(CView a, CView b) {
  require_same_dim(a, b, "dot");
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double norm_sq(CView a) {
  double acc = 0.0;
  for (double x : a) acc += x * x;
  return acc;
}

double norm(CView a) { return std::sqrt(norm_sq(a)); }

double norm_l1(CView a) {
  double acc = 0.0;
  for (double x : a) acc += std::abs(x);
  return acc;
}

double norm_inf(CView a) {
  double acc = 0.0;
  for (double x : a) acc = std::max(acc, std::abs(x));
  return acc;
}

double dist_sq(CView a, CView b) {
  require_same_dim(a, b, "dist_sq");
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double diff = a[i] - b[i];
    acc += diff * diff;
  }
  return acc;
}

double dist(CView a, CView b) { return std::sqrt(dist_sq(a, b)); }

bool all_finite(CView a) {
  for (double x : a)
    if (!std::isfinite(x)) return false;
  return true;
}

bool approx_equal(CView a, CView b, double tol) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i)
    if (std::abs(a[i] - b[i]) > tol) return false;
  return true;
}

bool lex_less(CView a, CView b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

// ---- allocating helpers (return a fresh Vector) ----

Vector zeros(size_t d) { return Vector(d, 0.0); }

Vector add(const Vector& a, const Vector& b) {
  require_same_dim(a, b, "add");
  Vector out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

Vector sub(const Vector& a, const Vector& b) {
  require_same_dim(a, b, "sub");
  Vector out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

Vector scale(const Vector& a, double s) {
  Vector out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] * s;
  return out;
}

Vector mean(std::span<const Vector> vs) {
  require(!vs.empty(), "vec::mean: empty input");
  Vector out = zeros(vs[0].size());
  for (const Vector& v : vs) add_inplace(out, v);
  scale_inplace(out, 1.0 / static_cast<double>(vs.size()));
  return out;
}

Vector mean_of(std::span<const Vector> vs, std::span<const size_t> idx) {
  require(!idx.empty(), "vec::mean_of: empty selection");
  require(!vs.empty(), "vec::mean_of: empty input");
  Vector out = zeros(vs[0].size());
  for (size_t i : idx) {
    require(i < vs.size(), "vec::mean_of: index out of range");
    add_inplace(out, vs[i]);
  }
  scale_inplace(out, 1.0 / static_cast<double>(idx.size()));
  return out;
}

double quantize_int8(CView src, std::span<int8_t> out) {
  require(src.size() == out.size(), "vec::quantize_int8: dimension mismatch");
  const double scale = norm_inf(src) / 127.0;
  for (size_t i = 0; i < src.size(); ++i) {
    // scale == 0 means every |src_i| is 0; the clamp keeps a forged
    // ±inf/round artifact from escaping the int8 range either way.
    const double q = scale == 0.0 ? 0.0 : std::round(src[i] / scale);
    out[i] = static_cast<int8_t>(std::clamp(q, -127.0, 127.0));
  }
  return scale;
}

void dequantize_int8(std::span<const int8_t> q, double scale, View dst) {
  require(q.size() == dst.size(), "vec::dequantize_int8: dimension mismatch");
  for (size_t i = 0; i < q.size(); ++i)
    dst[i] = static_cast<double>(q[i]) * scale;
}

}  // namespace dpbyz::vec
