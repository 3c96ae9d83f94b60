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

  /// Owning copy of row i (allocates — not for the hot path).
  Vector row_vector(size_t i) const;

  /// Pack owning vectors into a fresh batch (the bridge tests and the
  /// span-of-vectors aggregate() take; allocates).
  /// All vectors must share one dimension.
  static GradientBatch from_vectors(std::span<const Vector> vs);

  /// True iff every stored component is finite (no NaN/Inf).  The scan
  /// is cut into one contiguous chunk per thread on ThreadPool::shared()
  /// at `threads` width (0 = resolve_threads) once the batch is large
  /// enough to pay for the dispatch; allocates nothing.
  bool all_finite(size_t threads = 1) const;

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

/// Columns per tile of column_moments_into.
inline constexpr size_t kMomentTile = 256;

/// rows × dim below which column_moments_into stays on the calling
/// thread: smaller forges finish before a pool dispatch pays off.
inline constexpr size_t kMomentsParallelMinWork = size_t{1} << 18;

/// Coordinate-wise mean and *population* standard deviation (divide by
/// rows) of the first `rows` rows — the statistics every template attack
/// forges from.  `stddev` may be empty (mean-only mode); otherwise both
/// outputs have length dim.  The columns are cut into tiles of
/// kMomentTile; each tile sums its rows into the mean in index order,
/// scales by 1/rows, then sums the squared deviations while the tile is
/// still in cache, scales by 1/rows and takes the square root.  Every
/// output element therefore sees the IEEE sequence of the two-pass seed
/// loops — bit-identical to stats::coordinate_mean / coordinate_stddev on
/// the same rows — with no FMA.  Tiles own disjoint columns and run on
/// ThreadPool::shared() at `threads` width (0 = resolve_threads) once
/// rows × dim reaches kMomentsParallelMinWork, so every width gives the
/// same bits.  Allocates nothing.  Throws std::invalid_argument when
/// `mean` or `stddev` overlaps rows [0, rows) of the batch or each other
/// (a tile would read values another tile is writing).
void column_moments_into(const GradientBatch& batch, size_t rows, std::span<double> mean,
                         std::span<double> stddev, size_t threads);

/// Mean of all rows written into `out` (length dim), on the calling
/// thread: column_moments_into's mean-only mode over the whole batch,
/// bit-identical to vec::mean over the same vectors.
void mean_rows_into(const GradientBatch& batch, std::span<double> out);

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

/// The same kernel over the batch rows listed in `rows`, in that order:
/// fills the m*m row-major `out` (m = rows.size()) with
/// out[a*m + b] = ||row(rows[a]) - row(rows[b])||², through an index list
/// rather than a copy of the rows.  The thread gate is computed on m.
/// Every entry has the bits pairwise_dist_sq gives the same two rows.
void pairwise_dist_sq(const GradientBatch& batch, std::span<const size_t> rows,
                      std::span<double> out, size_t threads);

}  // namespace dpbyz
