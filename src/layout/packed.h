// packed.h — the three matrix storage layouts of the paper (Section 4).
//
//  * ColumnMajor (CM): one column-major buffer, the LAPACK layout.  The
//    paper only pairs it with fully dynamic scheduling (Table 1).
//  * BlockCyclic (BCL): the matrix is split into b x b tiles, distributed
//    2-D block-cyclically over the thread grid, and each thread's tiles are
//    stored as ONE contiguous column-major submatrix.  A thread's tiles in
//    the same tile column are vertically adjacent, which is what allows the
//    grouped k*b GEMM update (Section 3, k = 3).
//  * TwoLevelBlock (2l-BL): first level identical to BCL; second level
//    stores every b x b tile contiguously (tile fits in cache), so any tile
//    operation runs without extra memory transfer — at the price of no
//    grouped GEMM (Section 4.2).
//
// All three are accessed through the same tile interface, so the DAG engine
// is layout-agnostic.
//
// The container is templated over the element type: the engine factors
// double matrices, while the mixed-precision path (core::gesv_mixed)
// packs A straight into float storage with IDENTICAL geometry — same
// tiling, same per-thread buffer shapes, same tile adjacency — so every
// scheduling decision and tile view carries over unchanged.  `Matrix`
// itself stays double-only: pack rounds each element to float once, and
// unpack widens it back exactly.  Buffer-wise conversion between
// precisions (convert_from / convert_into) serves only core::GetrfJob's
// adapter for callers that packed a Float32 job in double.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "src/layout/grid.h"
#include "src/layout/matrix.h"

namespace calu::layout {

enum class Layout { ColumnMajor, BlockCyclic, TwoLevelBlock };

const char* layout_name(Layout l);

/// Tile geometry of an m x n matrix cut into b x b tiles (edge tiles
/// partial).
struct Tiling {
  int m = 0, n = 0, b = 1;

  int mb() const { return (m + b - 1) / b; }       // tile rows
  int nb() const { return (n + b - 1) / b; }       // tile cols
  int row0(int I) const { return I * b; }
  int col0(int J) const { return J * b; }
  int tile_rows(int I) const { return I == mb() - 1 ? m - I * b : b; }
  int tile_cols(int J) const { return J == nb() - 1 ? n - J * b : b; }
};

/// A writable view of one tile (or a vertical group of tiles): column-major
/// with leading dimension ld.
template <class T>
struct BlockRefT {
  T* ptr = nullptr;
  int ld = 0;
  int rows = 0;
  int cols = 0;
};

using BlockRef = BlockRefT<double>;

template <class T>
class PackedMatrixT;

/// Runs `fill(owner)` once for every grid owner id in [0, nowners), on
/// the thread that will serve that owner's tasks.  Supplied by the
/// scheduling layer (layout stays below sched in the dependency order):
/// the CALU drivers map owner g onto team thread g % p, matching how
/// the hybrid and look-ahead engines route owned tasks.  Because each owner's buffer is
/// allocated *and written* inside `fill`, a NUMA first-touch policy
/// places the owner's pages on the node of the thread that will factor
/// them.  An empty runner means "fill on the calling thread" (the
/// classic serial pack).
using OwnerRunner =
    std::function<void(int nowners, const std::function<void(int owner)>&)>;

template <class T>
PackedMatrixT<T> pack_bcl(const Matrix& a, int b, Grid grid,
                          const OwnerRunner& place = {});
template <class T>
PackedMatrixT<T> pack_2l(const Matrix& a, int b, Grid grid,
                         const OwnerRunner& place = {});

/// A dense matrix packed into one of the three layouts.  Thread-safe for
/// concurrent access to distinct tiles (tiles never alias).
template <class T>
class PackedMatrixT {
 public:
  PackedMatrixT() = default;

  /// Pack a column-major matrix.  `b` is the tile size, `grid` the thread
  /// grid used for the cyclic distribution (ignored for ColumnMajor).
  /// For T = float this converts while packing (one pass).  `place`
  /// (optional) is the ownership-ordered first-touch runner: each grid
  /// owner's buffer is allocated and filled via place(nowners, fill) so
  /// its pages fault in on the owning thread (see OwnerRunner).  The
  /// packed bits are identical either way — only page placement (and
  /// the fill parallelism) changes.  ColumnMajor has one shared buffer
  /// and ignores `place`.
  static PackedMatrixT pack(const Matrix& a, Layout layout, int b, Grid grid,
                            const OwnerRunner& place = {});

  /// Write the packed contents back into a column-major matrix (must have
  /// matching dimensions).  Converting for T = float.
  void unpack(Matrix& a) const;

  /// Same-geometry copy of `o` at this precision (buffer-wise element
  /// cast; no repacking — tile offsets are precision-independent).
  template <class U>
  static PackedMatrixT convert_from(const PackedMatrixT<U>& o) {
    PackedMatrixT p;
    p.layout_ = o.layout_;
    p.tiling_ = o.tiling_;
    p.grid_ = o.grid_;
    p.local_rows_ = o.local_rows_;
    p.local_tile_rows_ = o.local_tile_rows_;
    p.bufs_.resize(o.bufs_.size());
    for (std::size_t t = 0; t < o.bufs_.size(); ++t)
      p.bufs_[t].assign(o.bufs_[t].begin(), o.bufs_[t].end());
    return p;
  }

  /// Element-wise cast of this matrix's buffers into `o`'s (the two must
  /// be convert_from-related: identical layout/tiling/grid).
  template <class U>
  void convert_into(PackedMatrixT<U>& o) const {
    for (std::size_t t = 0; t < bufs_.size(); ++t) {
      const std::vector<T>& src = bufs_[t];
      std::vector<U>& dst = o.bufs_[t];
      for (std::size_t i = 0; i < src.size(); ++i)
        dst[i] = static_cast<U>(src[i]);
    }
  }

  /// View of tile (I, J).
  BlockRefT<T> block(int I, int J);
  BlockRefT<T> block(int I, int J) const {
    return const_cast<PackedMatrixT*>(this)->block(I, J);
  }

  /// BCL only: the number of tiles {I, I+pr, I+2*pr, ...} in tile column J,
  /// starting at I, that the owner of (I, J) stores contiguously (capped at
  /// `max_tiles`).  Returns 1 for other layouts.
  int owned_run_down(int I, int J, int max_tiles) const;

  /// View covering the `ntiles` tiles {I, I+step, ...} of tile column J
  /// where step = grid.pr (BCL) — a single (sum of heights) x tile_cols(J)
  /// column-major block.  Requires owned_run_down(I,J,..) >= ntiles.
  BlockRefT<T> column_segment(int I, int J, int ntiles);

  /// Swap global rows r1 and r2 across global columns [c0, c1).  Routed
  /// through tiles, so it works for every layout; this implements both the
  /// "right swaps" inside the factorization and the deferred left swaps.
  void swap_rows_global(int c0, int c1, int r1, int r2);

  double get(int i, int j) const;  // element access for tests (slow)

  Layout layout() const { return layout_; }
  const Tiling& tiling() const { return tiling_; }
  const Grid& grid() const { return grid_; }

 private:
  Layout layout_ = Layout::ColumnMajor;
  Tiling tiling_;
  Grid grid_;
  // CM: bufs_[0] holds the whole matrix (ld = m).
  // BCL: bufs_[t] is thread t's submatrix, ld = local_rows_[t].
  // 2l-BL: bufs_[t] is thread t's padded tile array (b*b per tile).
  std::vector<std::vector<T>> bufs_;
  std::vector<int> local_rows_;       // BCL ld / 2l-BL owned tile rows
  std::vector<int> local_tile_rows_;  // per-thread owned tile-row count

  template <class U>
  friend class PackedMatrixT;
  friend PackedMatrixT pack_bcl<T>(const Matrix&, int, Grid,
                                   const OwnerRunner&);
  friend PackedMatrixT pack_2l<T>(const Matrix&, int, Grid,
                                  const OwnerRunner&);
};

using PackedMatrix = PackedMatrixT<double>;

extern template class PackedMatrixT<double>;
extern template class PackedMatrixT<float>;

}  // namespace calu::layout
