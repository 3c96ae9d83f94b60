#include "math/gradient_batch.hpp"

#include <algorithm>
#include <cmath>

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

void GradientBatch::swap(GradientBatch& other) {
  require(!is_view_ && !other.is_view_, "GradientBatch::swap: views cannot swap arenas");
  std::swap(rows_, other.rows_);
  std::swap(dim_, other.dim_);
  data_.swap(other.data_);
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

bool GradientBatch::all_finite() const { return vec::all_finite(flat()); }

void mean_rows_into(const GradientBatch& batch, std::span<double> out) {
  mean_rows_into(batch, batch.rows(), out);
}

void mean_rows_into(const GradientBatch& batch, size_t rows, std::span<double> out) {
  require(rows > 0, "mean_rows_into: empty batch");
  require(rows <= batch.rows(), "mean_rows_into: row count out of range");
  require(out.size() == batch.dim(), "mean_rows_into: output dimension mismatch");
  vec::fill(out, 0.0);
  for (size_t i = 0; i < rows; ++i) vec::add_inplace(out, batch.row(i));
  vec::scale_inplace(out, 1.0 / static_cast<double>(rows));
}

void stddev_rows_into(const GradientBatch& batch, size_t rows,
                      std::span<const double> mean, std::span<double> out) {
  require(rows > 0 && rows <= batch.rows(), "stddev_rows_into: bad row count");
  require(mean.size() == batch.dim() && out.size() == batch.dim(),
          "stddev_rows_into: dimension mismatch");
  vec::fill(out, 0.0);
  for (size_t i = 0; i < rows; ++i) {
    const auto r = batch.row(i);
    for (size_t c = 0; c < r.size(); ++c) {
      const double diff = r[c] - mean[c];
      out[c] += diff * diff;
    }
  }
  const double inv_n = 1.0 / static_cast<double>(rows);
  for (double& x : out) x = std::sqrt(x * inv_n);
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

void pairwise_dist_sq(const GradientBatch& batch, std::span<double> out,
                      size_t threads) {
  const size_t n = batch.rows();
  const size_t d = batch.dim();
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
  const double* rows = batch.row(0).data();
  double* m = out.data();
  constexpr size_t kBlock = kernels::kPairLanes;
  auto block = [&](size_t b) {
    const size_t i0 = b * kBlock;
    const size_t i1 = std::min(n, i0 + kBlock);
    kernels::pairwise_block_scalar(rows, n, d, i0, m);
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

}  // namespace dpbyz
