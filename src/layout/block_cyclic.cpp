// block_cyclic.cpp — pack/unpack for the block-cyclic layout (BCL).
#include <cassert>

#include "src/layout/packed.h"

namespace calu::layout {
namespace {

// Number of tile-rows owned by grid row `ti` and their total row count.
int owned_tile_rows(const Tiling& t, const Grid& g, int ti) {
  const int mb = t.mb();
  return ti < mb ? (mb - ti + g.pr - 1) / g.pr : 0;
}

int owned_rows(const Tiling& t, const Grid& g, int ti) {
  int rows = 0;
  for (int I = ti; I < t.mb(); I += g.pr) rows += t.tile_rows(I);
  return rows;
}

int owned_cols(const Tiling& t, const Grid& g, int tj) {
  int cols = 0;
  for (int J = tj; J < t.nb(); J += g.pc) cols += t.tile_cols(J);
  return cols;
}

}  // namespace

template <class T>
PackedMatrixT<T> pack_bcl(const Matrix& a, int b, Grid grid,
                          const OwnerRunner& place) {
  PackedMatrixT<T> p;
  p.layout_ = Layout::BlockCyclic;
  p.tiling_ = Tiling{a.rows(), a.cols(), b};
  p.grid_ = grid;
  const Tiling& t = p.tiling_;
  p.bufs_.resize(grid.size());
  p.local_rows_.resize(grid.size());
  p.local_tile_rows_.resize(grid.size());
  // Geometry is cheap and serial; only the buffer allocation + fill runs
  // through `place`, because *that* is what faults the pages in.
  for (int ti = 0; ti < grid.pr; ++ti) {
    const int lrows = owned_rows(t, grid, ti);
    for (int tj = 0; tj < grid.pc; ++tj) {
      const int tid = ti * grid.pc + tj;
      p.local_rows_[tid] = lrows;
      p.local_tile_rows_[tid] = owned_tile_rows(t, grid, ti);
    }
  }
  // Per-owner allocate + copy.  A BCL buffer has no padding: it is the
  // owner's tile columns side by side, each the owner's tile rows
  // stacked, so appending the owned column segments in storage order
  // writes every element once, with no zero fill first.  Owners touch
  // disjoint buffers and read disjoint tiles of `a`, so the owner fills
  // are trivially parallel; the bits written are identical to the
  // serial order (it is the same tile copies, permuted).
  auto fill_owner = [&](int tid) {
    const int ti = tid / grid.pc, tj = tid % grid.pc;
    std::vector<T>& buf = p.bufs_[tid];
    buf.reserve(static_cast<std::size_t>(p.local_rows_[tid]) *
                owned_cols(t, grid, tj));
    for (int J = tj; J < t.nb(); J += grid.pc)
      for (int c = t.col0(J); c < t.col0(J) + t.tile_cols(J); ++c)
        for (int I = ti; I < t.mb(); I += grid.pr) {
          const double* src =
              a.data() + t.row0(I) + static_cast<std::size_t>(c) * a.ld();
          buf.insert(buf.end(), src, src + t.tile_rows(I));
        }
  };
  if (place) {
    place(grid.size(), fill_owner);
  } else {
    for (int tid = 0; tid < grid.size(); ++tid) fill_owner(tid);
  }
  return p;
}

template PackedMatrixT<double> pack_bcl<double>(const Matrix&, int, Grid,
                                                const OwnerRunner&);
template PackedMatrixT<float> pack_bcl<float>(const Matrix&, int, Grid,
                                              const OwnerRunner&);

}  // namespace calu::layout
