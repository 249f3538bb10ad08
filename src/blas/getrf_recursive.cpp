// getrf_recursive.cpp — Toledo's recursive LU with partial pivoting
// (paper reference [23]).  Splitting the columns in half turns almost all
// flops into gemm calls, which is why the paper picks it as the sequential
// operator inside the TSLU tournament ("the best available sequential
// algorithm", Section 3).  Small shapes end the recursion in a leaf that
// packs nothing: a right-looking LU over 8-column blocks on the caller's
// column-major storage, whose block-row solves and trailing updates are
// register kernels of the dispatch table (trsm_leaf_left on an inverted
// unit-lower block, panel_fma).
#include "src/blas/blas.h"

#include <algorithm>

#include "src/blas/microkernel.h"

namespace calu::blas {
namespace {

/// Column block of the leaf: the trsm leaf kernels' width, so each
/// block-row solve is one trsm_leaf_left call.
constexpr int kLeafBlock = kTrsmLeafNB;

/// Which shapes the leaf factors whole, from the sweep in
/// docs/ARCHITECTURE.md ("The getrf_recursive leaf").  Up to 96 rows or
/// columns the leaf beats the recursion (cut at 64 columns, 80^2 and 96^2
/// ran about 1.5x and the b = 96 tournament shapes 1.2x slower than cut
/// at 96), as long as the matrix holds at most 96 x 768 elements:
/// the leaf sweeps its trailing matrix once per 8-column block, and a
/// 1536 x 96 panel factored whole ran 0.94x the parent while halving it
/// first ran 1.09x.  Panels with at most 32 rows or columns take the
/// leaf at any height (halving 4096 x 32 only costs).
constexpr int kLeafCols = 96;
constexpr long kLeafElems = 96L * 768;
constexpr int kLeafAnyHeight = 32;

bool leaf_shape(int m, int n) {
  const int k = std::min(m, n);
  return k <= kLeafAnyHeight ||
         (k <= kLeafCols && static_cast<long>(m) * n <= kLeafElems);
}

/// The leaf.  Each block is eliminated a column at a time (dispatched
/// pivot search, swaps inside the block, rank-1 updates of the block's
/// remaining columns); then the block's swaps sweep the columns left and
/// right of it, U12 := L11^{-1} A12 and A22 -= L21 U12.
template <class T>
int getrf_leaf(int m, int n, T* a, int lda, int* ipiv) {
  const MicroKernelT<T>& mk = active_kernel_t<T>();
  const int kmin = std::min(m, n);
  int info = 0;
  for (int j0 = 0; j0 < kmin; j0 += kLeafBlock) {
    const int nb = std::min(kLeafBlock, kmin - j0);
    const int jend = j0 + nb;
    T* blk = a + static_cast<std::size_t>(j0) * lda;
    for (int j = j0; j < jend; ++j) {
      T* col = a + static_cast<std::size_t>(j) * lda;
      const int piv = j + mk.iamax(m - j, col + j);
      ipiv[j] = piv;
      if (col[piv] == T(0)) {
        // The column is zero at and below the diagonal: nothing to scale
        // or eliminate (LAPACK's info, factorization completed).
        if (info == 0) info = j + 1;
        continue;
      }
      if (piv != j) swap_rows(nb, blk, lda, j, piv);
      const T inv = T(1) / col[j];
      for (int i = j + 1; i < m; ++i) col[i] *= inv;
      mk.panel_fma(m - j - 1, jend - j - 1, 1, col + j + 1, lda, col + j + lda,
                   lda, col + j + 1 + lda, lda);
    }
    laswp(j0, a, lda, j0, jend, ipiv);
    if (jend < n) {
      T* right = a + static_cast<std::size_t>(jend) * lda;
      laswp(n - jend, right, lda, j0, jend, ipiv);
      T* a12 = right + j0;
      T inv[kLeafBlock * kLeafBlock];
      invert_lower(blk + j0, lda, nb, true, inv);
      mk.trsm_leaf_left(nb, n - jend, inv, a12, lda);
      mk.panel_fma(m - jend, n - jend, nb, blk + jend, lda, a12, lda,
                   a12 + nb, lda);
    }
  }
  return info;
}

template <class T>
int getrf_recursive_impl(int m, int n, T* a, int lda, int* ipiv) {
  const int kmin = std::min(m, n);
  if (kmin == 0) return 0;
  if (leaf_shape(m, n)) return getrf_leaf(m, n, a, lda, ipiv);

  const int n1 = kmin / 2;
  const int n2 = n - n1;
  T* a12 = a + static_cast<std::size_t>(n1) * lda;

  // Factor the left half.
  int info = getrf_recursive_impl(m, n1, a, lda, ipiv);

  // Pivots of the left half apply to the right half.
  laswp(n2, a12, lda, 0, n1, ipiv);

  // U12 := L11^{-1} A12 ; A22 -= L21 * U12.
  trsm(Side::Left, UpLo::Lower, Trans::No, Diag::Unit, n1, n2, T(1), a, lda,
       a12, lda);
  gemm(Trans::No, Trans::No, m - n1, n2, n1, T(-1), a + n1, lda, a12, lda,
       T(1), a12 + n1, lda);

  // Factor the trailing part and fold its pivots back.
  const int info2 = getrf_recursive_impl(m - n1, n2, a12 + n1, lda, ipiv + n1);
  if (info == 0 && info2 != 0) info = info2 + n1;
  const int k2 = std::min(m - n1, n2);
  for (int i = 0; i < k2; ++i) ipiv[n1 + i] += n1;
  // Left swaps on the already-factored columns.
  laswp(n1, a, lda, n1, n1 + k2, ipiv);
  return info;
}

}  // namespace

int getrf_recursive(int m, int n, double* a, int lda, int* ipiv) {
  return getrf_recursive_impl(m, n, a, lda, ipiv);
}

int getrf_recursive(int m, int n, float* a, int lda, int* ipiv) {
  return getrf_recursive_impl(m, n, a, lda, ipiv);
}

}  // namespace calu::blas
