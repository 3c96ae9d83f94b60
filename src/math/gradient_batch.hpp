// gradient_batch.hpp — contiguous n×d arena for one round of gradients.
//
// The server's hot loop handles n worker gradients of dimension d every
// step.  Storing them as n separate std::vector<double>s scatters them
// across the heap and costs n allocations per round; at the sweep sizes
// (n up to 50+, d up to 1e5) the O(n²d) GAR kernels then stride through
// unrelated cache lines.  GradientBatch owns one row-major n*d buffer and
// hands out std::span row views, so
//   * workers write their submission straight into their row,
//   * attacks forge Byzantine rows in place,
//   * GAR kernels stream rows that are contiguous and prefetchable,
//   * reshape() reuses the allocation across training steps — the
//     steady-state path performs zero heap allocations.
//
// Row views alias the arena: writing through row(i) is visible through
// flat() and vice versa.  Views are invalidated by reshape() calls that
// grow the arena beyond its capacity, exactly like std::vector iterators.
//
// A GradientBatch can also be a *row-range view* of another batch
// (view(lo, hi)): same row/flat/kernel surface, but read-only and
// non-owning — the aggregation tree hands each child a contiguous
// slice of the round's arena without copying a byte.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "math/vector_ops.hpp"

namespace dpbyz {

class GradientBatch {
 public:
  GradientBatch() = default;

  /// A rows×dim arena, zero-initialised.
  GradientBatch(size_t rows, size_t dim);

  /// Resize to rows×dim.  Never shrinks capacity; when the new extent
  /// fits the existing allocation no memory is allocated.  This is the
  /// cross-round reuse primitive.  Contents: when `dim` is unchanged,
  /// retained rows keep their values and newly grown rows are zero;
  /// when `dim` changes, the flat buffer is reinterpreted with new row
  /// boundaries and ALL row contents are unspecified — overwrite every
  /// row before reading.  Not available on views.
  void reshape(size_t rows, size_t dim);

  size_t rows() const { return rows_; }
  size_t dim() const { return dim_; }
  bool empty() const { return rows_ == 0; }

  /// Read-only, non-owning view of the contiguous row range [lo, hi)
  /// (hi <= rows(); lo == hi yields an empty view).  No copies: the view
  /// aliases this batch's arena, so writes through the parent are visible
  /// through the view.  The view is invalidated by whatever invalidates
  /// the parent's row spans (reshape beyond capacity, destruction).
  /// Views compose: view(a, b).view(c, d) slices rows [a+c, a+d) of the
  /// original arena.  Mutable access (non-const row()/flat(), set_row,
  /// reshape) through a view throws — tree children are readers.
  GradientBatch view(size_t lo, size_t hi) const;

  /// True when this batch is a non-owning row-range view.
  bool is_view() const { return is_view_; }

  /// Mutable / const view of row i (length dim()).  Aliases the arena.
  /// The mutable overload throws on views.
  std::span<double> row(size_t i);
  std::span<const double> row(size_t i) const;

  /// The whole arena as one rows()*dim() row-major span.  The mutable
  /// overload throws on views.
  std::span<double> flat();
  std::span<const double> flat() const { return {base(), rows_ * dim_}; }

  /// Copy `v` (length dim()) into row i.
  void set_row(size_t i, std::span<const double> v);

  /// O(1) arena exchange between two owning batches (extents swap with
  /// the buffers; no row is copied).  The double-buffered round engine
  /// uses this to retarget its fill buffer each round.  Throws when
  /// either side is a view — views alias someone else's storage.
  void swap(GradientBatch& other);

  /// Owning copy of row i (allocates — not for the hot path).
  Vector row_vector(size_t i) const;

  /// Pack owning vectors into a fresh batch (legacy-API bridge).
  /// All vectors must share one dimension.
  static GradientBatch from_vectors(std::span<const Vector> vs);

  /// True iff every stored component is finite (no NaN/Inf).
  bool all_finite() const;

 private:
  /// Start of the arena this batch reads: its own buffer when owning,
  /// a slice of the parent's when a view.
  const double* base() const { return is_view_ ? view_base_ : data_.data(); }

  size_t rows_ = 0;
  size_t dim_ = 0;
  bool is_view_ = false;
  const double* view_base_ = nullptr;  // set iff is_view_
  std::vector<double> data_;           // empty on views
};

/// Mean of all rows written into `out` (length dim).  Accumulates row by
/// row in index order — bit-identical to vec::mean over the same vectors.
void mean_rows_into(const GradientBatch& batch, std::span<double> out);

/// Mean of the first `rows` rows only (the attack observation path, where
/// the adversary sees the honest prefix of the submission arena).
void mean_rows_into(const GradientBatch& batch, size_t rows, std::span<double> out);

/// Coordinate-wise *population* standard deviation (divide by rows) of the
/// first `rows` rows, given their precomputed `mean` — bit-identical to
/// stats::coordinate_stddev on the same vectors.
void stddev_rows_into(const GradientBatch& batch, size_t rows,
                      std::span<const double> mean, std::span<double> out);

/// Mean of the rows selected by `idx`, in `idx` order (bit-identical to
/// vec::mean_of on the same inputs).
void mean_rows_of_into(const GradientBatch& batch, std::span<const size_t> idx,
                       std::span<double> out);

/// Coordinate-wise median of all rows written into `out` (length dim),
/// gathering each column into `column_scratch` (resized to rows; element
/// order afterwards unspecified).  The shared kernel behind the median
/// GAR and the Weiszfeld overflow fallback — bit-identical to
/// stats::coordinate_median on the same rows.
void median_rows_into(const GradientBatch& batch, std::vector<double>& column_scratch,
                      std::span<double> out);

/// Symmetric pairwise squared-distance kernel shared by Krum, MDA and
/// Bulyan: fills the rows*rows row-major matrix `out` with
/// out[i*rows + j] = ||row_i - row_j||², diagonal 0.  Each unordered pair
/// is computed once, as one SIMD lane of
/// kernels::pairwise_block_scalar, a single forward pass over the
/// coordinates, so every entry is bit-identical to vec::dist_sq on the
/// same rows.  Work is split into blocks of kernels::kPairLanes rows,
/// dispatched on the process-wide ThreadPool when the matrix is large
/// enough to amortise the fork-join; `threads` = 0 picks the hardware
/// concurrency (resolve_threads), 1 forces serial.  The GARs pass their
/// workspace's budget (AggregatorWorkspace::threads).  Every width
/// computes each pair on one thread (bit-identical results) and
/// allocates nothing; a call nested inside another pool job runs
/// serially.
void pairwise_dist_sq(const GradientBatch& batch, std::span<double> out,
                      size_t threads);

}  // namespace dpbyz
