#include "math/gradient_batch.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>

#include "math/kernels.hpp"
#include "math/statistics.hpp"
#include "utils/errors.hpp"
#include "utils/parallel.hpp"

namespace dpbyz {

GradientBatch::GradientBatch(size_t rows, size_t dim) { reshape(rows, dim); }

void GradientBatch::reshape(size_t rows, size_t dim) {
  require(!is_view_, "GradientBatch::reshape: views cannot be reshaped");
  rows_ = rows;
  dim_ = dim;
  // resize() never reallocates when the new extent fits the current
  // capacity, so cross-round reuse is allocation-free.
  data_.resize(rows * dim, 0.0);
}

GradientBatch GradientBatch::view(size_t lo, size_t hi) const {
  require(lo <= hi, "GradientBatch::view: lo must be <= hi");
  require(hi <= rows_, "GradientBatch::view: row range out of bounds");
  GradientBatch v;
  v.rows_ = hi - lo;
  v.dim_ = dim_;
  v.is_view_ = true;
  v.view_base_ = base() + lo * dim_;
  return v;
}

std::span<double> GradientBatch::row(size_t i) {
  require(!is_view_, "GradientBatch::row: views are read-only");
  require(i < rows_, "GradientBatch::row: index out of range");
  return {data_.data() + i * dim_, dim_};
}

std::span<const double> GradientBatch::row(size_t i) const {
  require(i < rows_, "GradientBatch::row: index out of range");
  return {base() + i * dim_, dim_};
}

std::span<double> GradientBatch::flat() {
  require(!is_view_, "GradientBatch::flat: views are read-only");
  return {data_.data(), rows_ * dim_};
}

void GradientBatch::set_row(size_t i, std::span<const double> v) {
  require(v.size() == dim_, "GradientBatch::set_row: dimension mismatch");
  std::copy(v.begin(), v.end(), row(i).begin());
}

Vector GradientBatch::row_vector(size_t i) const {
  const auto r = row(i);
  return Vector(r.begin(), r.end());
}

GradientBatch GradientBatch::from_vectors(std::span<const Vector> vs) {
  GradientBatch batch(vs.size(), vs.empty() ? 0 : vs[0].size());
  for (size_t i = 0; i < vs.size(); ++i) {
    require(vs[i].size() == batch.dim(),
            "GradientBatch::from_vectors: dimension mismatch across vectors");
    batch.set_row(i, vs[i]);
  }
  return batch;
}

bool GradientBatch::all_finite(size_t threads) const {
  const std::span<const double> all = flat();
  // Below this many elements the scan finishes before a pool dispatch
  // pays off.
  constexpr size_t kParallelMinWork = size_t{1} << 16;
  threads = resolve_threads(threads);
  if (threads <= 1 || all.size() < kParallelMinWork) return vec::all_finite(all);
  // One contiguous chunk per thread; a chunk that meets a non-finite
  // value stops its own scan only.
  std::atomic<bool> finite{true};
  ThreadPool::shared().run(
      threads,
      [&](size_t c) {
        const size_t lo = all.size() * c / threads;
        const size_t hi = all.size() * (c + 1) / threads;
        if (!vec::all_finite(all.subspan(lo, hi - lo)))
          finite.store(false, std::memory_order_relaxed);
      },
      threads);
  return finite.load(std::memory_order_relaxed);
}

namespace {

/// True when [a, a + na) and [b, b + nb) share an element.
bool overlaps(const double* a, size_t na, const double* b, size_t nb) {
  const std::less<const double*> before;
  return na > 0 && nb > 0 && before(a, b + nb) && before(b, a + na);
}

/// One column tile of column_moments_into: the `w` columns starting at
/// `col` (row stride d) over `rows` rows.  Rows are taken four at a time
/// with the running sum held in a register, but each element still adds
/// its rows one by one in index order, so the bits are the seed loops'.
void moments_tile(const double* col, size_t d, size_t rows, size_t w, double inv,
                  double* __restrict m, double* __restrict s) {
  for (size_t c = 0; c < w; ++c) m[c] = 0.0;
  size_t i = 0;
  for (; i + 4 <= rows; i += 4) {
    const double* __restrict r0 = col + i * d;
    const double* __restrict r1 = r0 + d;
    const double* __restrict r2 = r1 + d;
    const double* __restrict r3 = r2 + d;
    for (size_t c = 0; c < w; ++c) m[c] = (((m[c] + r0[c]) + r1[c]) + r2[c]) + r3[c];
  }
  for (; i < rows; ++i) {
    const double* __restrict r = col + i * d;
    for (size_t c = 0; c < w; ++c) m[c] += r[c];
  }
  for (size_t c = 0; c < w; ++c) m[c] *= inv;
  if (s == nullptr) return;

  for (size_t c = 0; c < w; ++c) s[c] = 0.0;
  for (i = 0; i + 4 <= rows; i += 4) {
    const double* __restrict r0 = col + i * d;
    const double* __restrict r1 = r0 + d;
    const double* __restrict r2 = r1 + d;
    const double* __restrict r3 = r2 + d;
    for (size_t c = 0; c < w; ++c) {
      const double mc = m[c];
      const double d0 = r0[c] - mc, d1 = r1[c] - mc, d2 = r2[c] - mc, d3 = r3[c] - mc;
      s[c] = (((s[c] + d0 * d0) + d1 * d1) + d2 * d2) + d3 * d3;
    }
  }
  for (; i < rows; ++i) {
    const double* __restrict r = col + i * d;
    for (size_t c = 0; c < w; ++c) {
      const double diff = r[c] - m[c];
      s[c] += diff * diff;
    }
  }
  for (size_t c = 0; c < w; ++c) s[c] = std::sqrt(s[c] * inv);
}

}  // namespace

void mean_rows_into(const GradientBatch& batch, std::span<double> out) {
  column_moments_into(batch, batch.rows(), out, {}, 1);
}

void column_moments_into(const GradientBatch& batch, size_t rows, std::span<double> mean,
                         std::span<double> stddev, size_t threads) {
  const size_t d = batch.dim();
  require(rows > 0 && rows <= batch.rows(), "column_moments_into: bad row count");
  require(mean.size() == d && (stddev.empty() || stddev.size() == d),
          "column_moments_into: output dimension mismatch");
  if (d == 0) return;
  const double* base = batch.row(0).data();
  require(!overlaps(mean.data(), d, base, rows * d) &&
              !overlaps(stddev.data(), stddev.size(), base, rows * d),
          "column_moments_into: output aliases an observed row");
  require(!overlaps(mean.data(), d, stddev.data(), stddev.size()),
          "column_moments_into: mean and stddev overlap");

  const double inv = 1.0 / static_cast<double>(rows);
  double* s = stddev.empty() ? nullptr : stddev.data();
  auto tile = [&](size_t t) {
    const size_t c0 = t * kMomentTile;
    moments_tile(base + c0, d, rows, std::min(d, c0 + kMomentTile) - c0, inv,
                 mean.data() + c0, s == nullptr ? nullptr : s + c0);
  };
  const size_t tiles = (d + kMomentTile - 1) / kMomentTile;
  threads = resolve_threads(threads);
  if (threads <= 1 || rows * d < kMomentsParallelMinWork) {
    for (size_t t = 0; t < tiles; ++t) tile(t);
  } else {
    ThreadPool::shared().run(tiles, tile, threads);
  }
}

void mean_rows_of_into(const GradientBatch& batch, std::span<const size_t> idx,
                       std::span<double> out) {
  require(!idx.empty(), "mean_rows_of_into: empty selection");
  require(out.size() == batch.dim(), "mean_rows_of_into: output dimension mismatch");
  vec::fill(out, 0.0);
  for (size_t i : idx) {
    require(i < batch.rows(), "mean_rows_of_into: index out of range");
    vec::add_inplace(out, batch.row(i));
  }
  vec::scale_inplace(out, 1.0 / static_cast<double>(idx.size()));
}

void median_rows_into(const GradientBatch& batch, std::vector<double>& column_scratch,
                      std::span<double> out) {
  require(batch.rows() > 0, "median_rows_into: empty batch");
  require(out.size() == batch.dim(), "median_rows_into: output dimension mismatch");
  column_scratch.resize(batch.rows());
  for (size_t c = 0; c < batch.dim(); ++c) {
    for (size_t i = 0; i < batch.rows(); ++i) column_scratch[i] = batch.row(i)[c];
    out[c] = stats::median_inplace(column_scratch);
  }
}

namespace {

/// pairwise_dist_sq over the n rows of length d at base + idx[r] * d
/// (base + r * d when idx is null).
void pairwise_rows(const double* base, const size_t* idx, size_t n, size_t d,
                   std::span<double> out, size_t threads) {
  require(out.size() == n * n, "pairwise_dist_sq: output must be rows*rows");
  if (n == 0) return;
  require(d > 0, "pairwise_dist_sq: zero-dimensional rows");

  // Block b owns the lane rows [i0, i1).  One pair per lane of
  // kernels::pairwise_block_scalar fills their columns of the lower
  // triangle (m[j*n + i], j > i); the block then mirrors them into its
  // own rows and zeroes its diagonal, overwriting the kernel's scratch.
  // Blocks own disjoint entries, so they run on any thread in any order,
  // and each pair is computed by exactly one thread: the matrix is
  // bit-identical across `threads` widths.
  double* m = out.data();
  constexpr size_t kBlock = kernels::kPairLanes;
  auto block = [&](size_t b) {
    const size_t i0 = b * kBlock;
    const size_t i1 = std::min(n, i0 + kBlock);
    kernels::pairwise_block_scalar(base, idx, n, d, i0, m);
    for (size_t j = i0 + 1; j < n; ++j)
      for (size_t i = i0; i < std::min(i1, j); ++i) m[i * n + j] = m[j * n + i];
    for (size_t i = i0; i < i1; ++i) m[i * n + i] = 0.0;
  };

  threads = resolve_threads(threads);
  // Pool dispatch is allocation-free, but only pays off for heavy
  // matrices.
  constexpr size_t kParallelMinWork = size_t{1} << 24;  // pair-coordinates
  const size_t blocks = (n + kBlock - 1) / kBlock;
  if (threads <= 1 || n * (n - 1) / 2 * d < kParallelMinWork) {
    for (size_t b = 0; b < blocks; ++b) block(b);
  } else {
    ThreadPool::shared().run(blocks, block, threads);
  }
}

}  // namespace

void pairwise_dist_sq(const GradientBatch& batch, std::span<double> out,
                      size_t threads) {
  const double* base = batch.empty() ? nullptr : batch.row(0).data();
  pairwise_rows(base, nullptr, batch.rows(), batch.dim(), out, threads);
}

void pairwise_dist_sq(const GradientBatch& batch, std::span<const size_t> rows,
                      std::span<double> out, size_t threads) {
  for (size_t r : rows) require(r < batch.rows(), "pairwise_dist_sq: row index out of range");
  const double* base = rows.empty() ? nullptr : batch.row(0).data();
  pairwise_rows(base, rows.data(), rows.size(), batch.dim(), out, threads);
}

}  // namespace dpbyz
