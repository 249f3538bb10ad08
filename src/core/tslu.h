// tslu.h — TSLU: the tournament-pivoting panel factorization of CALU
// (Grigori, Demmel, Xiang — paper reference [12]; Section 2 here).
//
// The panel is factored in two steps.  A *preprocessing* reduction
// identifies b pivot rows with low communication: leaves run GEPP on
// disjoint chunks of the panel's rows and keep their b best candidate rows;
// a binary tree of merge steps stacks two candidate sets (2b x b), runs
// GEPP, and keeps the winners; the root yields the panel's pivots.  The
// *second* step permutes the winners to the top and factors the panel
// without pivoting.  GEPP is performed by the recursive LU (reference
// [23]), "the best available sequential algorithm".
//
// The pieces are exposed separately because CALU turns each leaf/merge into
// a DAG task (task P in the paper); tslu_factor() runs the whole pipeline
// sequentially for standalone use and tests.
//
// The tournament pieces are precision-templated: the mixed-precision path
// runs the whole engine (tournament included) in float32, so leaf/merge
// operate on whatever element type the packed matrix carries.  The
// standalone tslu_factor reference stays double-only.
#pragma once

#include <vector>

#include "src/layout/matrix.h"
#include "src/layout/packed.h"

namespace calu::core {

/// A candidate set: `count` rows of width `width` (column-major, ld =
/// count), plus the absolute matrix row each candidate came from.  Holds
/// the rows' *original* values — the tournament only selects pivots.
template <class T>
struct CandidatesT {
  std::vector<T> vals;
  std::vector<int> src;
  int count = 0;
  int width = 0;

  const T* data() const { return vals.data(); }
  T* data() { return vals.data(); }
};

using Candidates = CandidatesT<double>;

/// GEPP-select on (rows x width) W (column-major, ld = ldw): factors a
/// scratch copy with partial pivoting, applies the resulting row swaps to W
/// and `src` in lockstep, so W's first min(rows, width) rows are the
/// winners with their origin ids.  Deterministic.
void tournament_select(int rows, int width, double* w, int ldw, int* src);
void tournament_select(int rows, int width, float* w, int ldw, int* src);

/// Leaf step: gather tile rows first, first + stride, ... (below
/// a.tiling().mb()) of panel column `kcol` from `a` — one thread row's
/// tiles under the cyclic distribution — select, and return the winner
/// set.
template <class T>
CandidatesT<T> tslu_leaf(const layout::PackedMatrixT<T>& a, int kcol,
                         int first, int stride);

/// Merge step: stack two candidate sets, select, return the winner set.
template <class T>
CandidatesT<T> tslu_merge(const CandidatesT<T>& x, const CandidatesT<T>& y);

extern template CandidatesT<double> tslu_leaf<double>(
    const layout::PackedMatrixT<double>&, int, int, int);
extern template CandidatesT<float> tslu_leaf<float>(
    const layout::PackedMatrixT<float>&, int, int, int);
extern template CandidatesT<double> tslu_merge<double>(
    const CandidatesT<double>&, const CandidatesT<double>&);
extern template CandidatesT<float> tslu_merge<float>(const CandidatesT<float>&,
                                                     const CandidatesT<float>&);

/// Turn the root winners into a LAPACK-style swap list relative to panel
/// top row `row0`: result[i] = absolute row swapped with row (row0 + i).
std::vector<int> build_swap_list(const std::vector<int>& winners, int row0,
                                 int count);

/// Standalone TSLU of an m x n panel (column-major Matrix, m >= 1): full
/// tournament with `nchunks` leaves over row chunks, swap application, and
/// unpivoted factorization in place.  Returns the absolute swap list
/// (length min(m, n)).  Reference implementation for tests and examples.
std::vector<int> tslu_factor(layout::Matrix& panel, int nchunks);

}  // namespace calu::core
