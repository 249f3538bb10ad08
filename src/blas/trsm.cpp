// trsm.cpp — triangular solves with multiple right-hand sides.
//
// Two regimes:
//
//   Wide B (>= kInvMinRhs right-hand sides): the solve is recast as gemm
//   (the BLIS trick).  The triangle is split recursively — each level
//   peels the off-diagonal rectangle into one gemm whose k grows with
//   the level, so the O(n^2 m) bulk runs through the dispatched register
//   micro-kernels at near-gemm rates — and at the kInvNB-wide leaves the
//   diagonal block is INVERTED into aligned scratch (once per call; each
//   leaf is visited exactly once) so the leaf solve is itself a small
//   gemm,  B_k := inv(T_kk) * B_k,  instead of a scalar substitution
//   sweep per right-hand side.  Leaves are kept narrow because the
//   explicit inverse pays backward error proportional to the leaf's
//   condition number: at width 8 (kTrsmLeafNB) the growth is a small
//   constant even for the unit triangles partial pivoting produces
//   (covered by the conformance sweep in tests/blas_conformance_test.cpp
//   and the residual checks in tests/blas_test.cpp — width 16 was
//   measurably over their tolerances on random unit triangles).
//
//   Narrow B (the factorization's edge tiles, the Cholesky and
//   incremental-pivoting solves): substitution over kTrsmBlock-wide
//   packed diagonal blocks, off-diagonal gemm — nothing amortizes an
//   inversion, and the pre-overhaul behavior is preserved exactly.  The
//   LU solve (core/solve.cpp) walks its own tiles instead.
//
// All four (side, uplo) combinations take the fast path for Trans::No,
// plus the two transposed cases Cholesky leans on (Right/Lower and
// Left/Lower); the Trans::Yes Upper cases stay unblocked (only used with
// small triangles).
//
// Everything below is templated over the element type; double and float
// share one code path and differ only in which dispatched kernel table
// the leaf/coupling calls land on.
#include "src/blas/blas.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/blas/microkernel.h"
#include "src/util/aligned_buffer.h"

namespace calu::blas {
namespace {

constexpr int kNB = kTrsmBlock;  // substitution-path diagonal block width
constexpr int kInvNB = kTrsmLeafNB;  // width of the inverted leaf blocks
constexpr int kInvMinRhs = 32;   // fewest RHS that pay for the gemm recast

// Couplings with inner dimension <= kSmallK sit below gemm's blocked-path
// profitability threshold (it would take its naive scalar shortcut);
// route them through the dispatched panel_fma kernel instead, which
// accumulates directly into C with no packing.
constexpr int kSmallK = 16;

template <class T>
inline T diag_val(const T* t, int ldt, Diag diag, int i) {
  return diag == Diag::Unit ? T(1) : t[i + static_cast<std::size_t>(i) * ldt];
}

// The unblocked solves sweep the diagonal block once per right-hand side;
// with the block strided by the full matrix ldt that sweep touches one
// cache line per element.  Copy the nb x nb block into contiguous 64-byte
// aligned scratch (at most kNB^2 doubles = 32 KiB, L1-resident) so the
// repeated sweeps run on dense lines.  A copy preserves values exactly, so
// results stay bit-identical to solving in place.
//
// Only the referenced triangle (diagonal included) is copied: the BLAS
// trsm contract promises the opposite triangle is never read, and a task
// DAG may legally be *writing* it concurrently — incpiv's TSTRF(k,I)
// updates Ukk in tile (k,k) while GESSM(k,J) solves against Lkk of the
// same tile.  A full-column memcpy here is a data race (caught by the
// TSan lane); the unreferenced half of the scratch is simply left stale,
// since every solve below indexes its own triangle only.
template <class T>
util::AlignedBufferT<T>& tl_diag() {
  thread_local util::AlignedBufferT<T> buf;
  return buf;
}

template <class T>
const T* pack_diag(const T* t, int ldt, int nb, UpLo uplo, Diag diag) {
  util::AlignedBufferT<T>& scratch = tl_diag<T>();
  scratch.reserve(static_cast<std::size_t>(kNB) * kNB);
  T* buf = scratch.data();
  // A Unit solve never reads the diagonal either (diag_val returns 1
  // without touching memory) — and incpiv's TSTRF rewrites exactly that
  // diagonal concurrently with GESSM's unit-lower solve, so the copy
  // must skip it to stay race-free.
  const int d = diag == Diag::Unit ? 1 : 0;
  if (uplo == UpLo::Lower) {
    for (int j = 0; j + d < nb; ++j)
      std::memcpy(buf + static_cast<std::size_t>(j) * nb + j + d,
                  t + static_cast<std::size_t>(j) * ldt + j + d,
                  sizeof(T) * (nb - j - d));
  } else {
    for (int j = d; j < nb; ++j)
      std::memcpy(buf + static_cast<std::size_t>(j) * nb,
                  t + static_cast<std::size_t>(j) * ldt,
                  sizeof(T) * (j + 1 - d));
  }
  return buf;
}

// ----------------------------------------- inverted-leaf gemm recast ---

// inv := T^{-1} for the nb x nb upper triangle T (backward substitution).
template <class T>
void invert_upper(const T* t, int ldt, int nb, Diag diag, T* inv) {
  for (int j = 0; j < nb; ++j) {
    T* x = inv + static_cast<std::size_t>(j) * nb;
    for (int i = j + 1; i < nb; ++i) x[i] = T(0);
    x[j] = T(1) / diag_val(t, ldt, diag, j);
    for (int i = j - 1; i >= 0; --i) {
      const T* ti = t + i;
      T s = T(0);
      for (int p = i + 1; p <= j; ++p)
        s += ti[static_cast<std::size_t>(p) * ldt] * x[p];
      x[i] = -s / diag_val(t, ldt, diag, i);
    }
  }
}

// Split a triangle of dimension n > kInvNB roughly in half, rounded to a
// multiple of the leaf width so leaves stay full-sized.
int split_point(int n) {
  const int half = (n / 2 + kInvNB - 1) / kInvNB * kInvNB;
  return std::min(half, n - 1);
}

// C(0:m, 0:n) -= L * U through the dispatched path that fits the inner
// dimension: panel_fma below kSmallK, gemm above it.
template <class T>
void coupled_update(int m, int n, int k, const T* l, int ldl, const T* u,
                    int ldu, T* c, int ldc) {
  if (k <= kSmallK)
    active_kernel_t<T>().panel_fma(m, n, k, l, ldl, u, ldu, c, ldc);
  else
    gemm(Trans::No, Trans::No, m, n, k, T(-1), l, ldl, u, ldu, T(1), c, ldc);
}

// Copy-transpose the r x h block at `t` (leading dim ldt) into `buf`
// (h x r, leading dim h) — the Trans::Yes couplings below take this path
// only when rows * cols fits the kSmallK-square stack buffer.
template <class T>
const T* transpose_small(const T* t, int ldt, int rows, int cols, T* buf) {
  for (int j = 0; j < cols; ++j)
    for (int i = 0; i < rows; ++i)
      buf[j + static_cast<std::size_t>(i) * cols] =
          t[i + static_cast<std::size_t>(j) * ldt];
  return buf;
}

// Recursive wide-B solver.  Only the six fast (side, uplo, trans)
// combinations reach here; alpha is already applied.
template <class T>
void solve_rec(Side side, UpLo uplo, Trans trans, Diag diag, int m, int n,
               const T* t, int ldt, T* b, int ldb) {
  const int tdim = side == Side::Left ? m : n;
  if (tdim <= kInvNB) {
    const MicroKernelT<T>& mk = active_kernel_t<T>();
    T inv[kInvNB * kInvNB];
    if (uplo == UpLo::Lower)
      invert_lower(t, ldt, tdim, diag == Diag::Unit, inv);
    else
      invert_upper(t, ldt, tdim, diag, inv);
    if (trans == Trans::Yes) {
      // op(inv) = inv^T: transpose the tiny inverse once so the leaf
      // kernels only ever see the No-trans layout.
      T tr[kInvNB * kInvNB];
      transpose_small(inv, tdim, tdim, tdim, tr);
      std::memcpy(inv, tr, sizeof(T) * tdim * tdim);
    }
    if (side == Side::Left)
      mk.trsm_leaf_left(tdim, n, inv, b, ldb);
    else
      mk.trsm_leaf_right(m, tdim, inv, b, ldb);
    return;
  }
  const int h = split_point(tdim);
  const int r = tdim - h;
  const T* t22 = t + h + static_cast<std::size_t>(h) * ldt;
  T tt[kSmallK * kSmallK];  // transpose scratch for small couplings
  if (side == Side::Left) {
    T* b2 = b + h;
    if (uplo == UpLo::Lower && trans == Trans::No) {
      // X1 := inv(T11) B1 ; B2 -= T21 X1 ; X2 := inv(T22) B2.
      solve_rec(side, uplo, trans, diag, h, n, t, ldt, b, ldb);
      coupled_update(r, n, h, t + h, ldt, b, ldb, b2, ldb);
      solve_rec(side, uplo, trans, diag, r, n, t22, ldt, b2, ldb);
    } else if (uplo == UpLo::Upper) {  // Trans::No
      // X2 := inv(T22) B2 ; B1 -= T12 X2 ; X1 := inv(T11) B1.
      solve_rec(side, uplo, trans, diag, r, n, t22, ldt, b2, ldb);
      coupled_update(h, n, r, t + static_cast<std::size_t>(h) * ldt, ldt, b2,
                     ldb, b, ldb);
      solve_rec(side, uplo, trans, diag, h, n, t, ldt, b, ldb);
    } else {  // Lower, Trans::Yes: T^T upper, bottom-up.
      // X2 := inv(T22^T) B2 ; B1 -= T21^T X2 ; X1 := inv(T11^T) B1.
      solve_rec(side, uplo, trans, diag, r, n, t22, ldt, b2, ldb);
      if (r * h <= kSmallK * kSmallK)
        coupled_update(h, n, r, transpose_small(t + h, ldt, r, h, tt), h, b2,
                       ldb, b, ldb);
      else
        gemm(Trans::Yes, Trans::No, h, n, r, T(-1), t + h, ldt, b2, ldb, T(1),
             b, ldb);
      solve_rec(side, uplo, trans, diag, h, n, t, ldt, b, ldb);
    }
  } else {
    T* b2 = b + static_cast<std::size_t>(h) * ldb;
    if (uplo == UpLo::Upper && trans == Trans::No) {
      // X1 := B1 inv(T11) ; B2 -= X1 T12 ; X2 := B2 inv(T22).
      solve_rec(side, uplo, trans, diag, m, h, t, ldt, b, ldb);
      coupled_update(m, r, h, b, ldb, t + static_cast<std::size_t>(h) * ldt,
                     ldt, b2, ldb);
      solve_rec(side, uplo, trans, diag, m, r, t22, ldt, b2, ldb);
    } else if (trans == Trans::No) {  // Lower
      // X2 := B2 inv(T22) ; B1 -= X2 T21 ; X1 := B1 inv(T11).
      solve_rec(side, uplo, trans, diag, m, r, t22, ldt, b2, ldb);
      coupled_update(m, h, r, b2, ldb, t + h, ldt, b, ldb);
      solve_rec(side, uplo, trans, diag, m, h, t, ldt, b, ldb);
    } else {  // Lower, Trans::Yes: T^T upper, left-to-right.
      // X1 := B1 inv(T11^T) ; B2 -= X1 T21^T ; X2 := B2 inv(T22^T).
      solve_rec(side, uplo, trans, diag, m, h, t, ldt, b, ldb);
      if (r * h <= kSmallK * kSmallK)
        coupled_update(m, r, h, b, ldb, transpose_small(t + h, ldt, r, h, tt),
                       h, b2, ldb);
      else
        gemm(Trans::No, Trans::Yes, m, r, h, T(-1), b, ldb, t + h, ldt, T(1),
             b2, ldb);
      solve_rec(side, uplo, trans, diag, m, r, t22, ldt, b2, ldb);
    }
  }
}

// ------------------------------------------------- substitution path ---

// B := T^{-1} B, T lower triangular m x m (unblocked).
template <class T>
void left_lower_unblocked(Diag diag, int m, int n, const T* t, int ldt, T* b,
                          int ldb) {
  for (int j = 0; j < n; ++j) {
    T* bj = b + static_cast<std::size_t>(j) * ldb;
    for (int i = 0; i < m; ++i) {
      T s = bj[i];
      const T* ti = t + i;  // row i of T, strided by ldt
      for (int p = 0; p < i; ++p)
        s -= ti[static_cast<std::size_t>(p) * ldt] * bj[p];
      bj[i] = s / diag_val(t, ldt, diag, i);
    }
  }
}

// B := T^{-1} B, T upper triangular m x m (unblocked).
template <class T>
void left_upper_unblocked(Diag diag, int m, int n, const T* t, int ldt, T* b,
                          int ldb) {
  for (int j = 0; j < n; ++j) {
    T* bj = b + static_cast<std::size_t>(j) * ldb;
    for (int i = m - 1; i >= 0; --i) {
      T s = bj[i];
      const T* ti = t + i;
      for (int p = i + 1; p < m; ++p)
        s -= ti[static_cast<std::size_t>(p) * ldt] * bj[p];
      bj[i] = s / diag_val(t, ldt, diag, i);
    }
  }
}

// B := B T^{-1}, T upper triangular n x n (unblocked).
template <class T>
void right_upper_unblocked(Diag diag, int m, int n, const T* t, int ldt, T* b,
                           int ldb) {
  for (int j = 0; j < n; ++j) {
    T* bj = b + static_cast<std::size_t>(j) * ldb;
    for (int p = 0; p < j; ++p) {
      const T tpj = t[p + static_cast<std::size_t>(j) * ldt];
      if (tpj == T(0)) continue;
      const T* bp = b + static_cast<std::size_t>(p) * ldb;
      for (int i = 0; i < m; ++i) bj[i] -= bp[i] * tpj;
    }
    const T d = diag_val(t, ldt, diag, j);
    if (d != T(1))
      for (int i = 0; i < m; ++i) bj[i] /= d;
  }
}

// B := B T^{-1}, T lower triangular n x n (unblocked).
template <class T>
void right_lower_unblocked(Diag diag, int m, int n, const T* t, int ldt, T* b,
                           int ldb) {
  for (int j = n - 1; j >= 0; --j) {
    T* bj = b + static_cast<std::size_t>(j) * ldb;
    for (int p = j + 1; p < n; ++p) {
      const T tpj = t[p + static_cast<std::size_t>(j) * ldt];
      if (tpj == T(0)) continue;
      const T* bp = b + static_cast<std::size_t>(p) * ldb;
      for (int i = 0; i < m; ++i) bj[i] -= bp[i] * tpj;
    }
    const T d = diag_val(t, ldt, diag, j);
    if (d != T(1))
      for (int i = 0; i < m; ++i) bj[i] /= d;
  }
}

template <class T>
void trsm_impl(Side side, UpLo uplo, Trans trans, Diag diag, int m, int n,
               T alpha, const T* t, int ldt, T* b, int ldb) {
  assert(m >= 0 && n >= 0);
  if (m == 0 || n == 0) return;
  if (alpha != T(1)) {
    for (int j = 0; j < n; ++j) {
      T* bj = b + static_cast<std::size_t>(j) * ldb;
      for (int i = 0; i < m; ++i) bj[i] *= alpha;
    }
  }
  // op(T)^{-1} with op = transpose solves the flipped-triangle system on
  // the same storage: (T^T)^{-1} for T lower == solving an upper system
  // whose (i,j) entry is T(j,i).
  const bool fast_case = trans == Trans::No || uplo == UpLo::Lower;
  const int rhs = side == Side::Left ? n : m;
  if (fast_case && rhs >= kInvMinRhs) {
    solve_rec(side, uplo, trans, diag, m, n, t, ldt, b, ldb);
    return;
  }
  if (trans == Trans::Yes && uplo == UpLo::Lower && side == Side::Right) {
    // B := B * (T^T)^{-1}, T^T upper: left-to-right block solve.
    for (int j = 0; j < n; j += kNB) {
      const int jb = std::min(kNB, n - j);
      // Unblocked solve against the transposed diagonal block (packed
      // contiguous; it is swept once per RHS column).
      const T* dk = pack_diag(t + j + static_cast<std::size_t>(j) * ldt, ldt,
                              jb, UpLo::Lower, diag);
      for (int jj = j; jj < j + jb; ++jj) {
        T* bj = b + static_cast<std::size_t>(jj) * ldb;
        for (int p = j; p < jj; ++p) {
          const T tpj = dk[(jj - j) + static_cast<std::size_t>(p - j) * jb];
          if (tpj == T(0)) continue;
          const T* bp = b + static_cast<std::size_t>(p) * ldb;
          for (int i = 0; i < m; ++i) bj[i] -= bp[i] * tpj;
        }
        const T d = diag_val(dk, jb, diag, jj - j);
        if (d != T(1))
          for (int i = 0; i < m; ++i) bj[i] /= d;
      }
      // Eliminate this block column from the columns to its right:
      // B(:, j+jb:) -= B(:, j:j+jb) * T(j+jb:, j:j+jb)^T.
      if (j + jb < n)
        gemm(Trans::No, Trans::Yes, m, n - j - jb, jb, T(-1),
             b + static_cast<std::size_t>(j) * ldb, ldb,
             t + (j + jb) + static_cast<std::size_t>(j) * ldt, ldt, T(1),
             b + static_cast<std::size_t>(j + jb) * ldb, ldb);
    }
    return;
  }
  if (trans == Trans::Yes && uplo == UpLo::Lower && side == Side::Left) {
    // B := (T^T)^{-1} B, T^T upper: bottom-up block substitution.
    for (int i = m; i > 0; i -= kNB) {
      const int ib = std::min(kNB, i);
      const int i0 = i - ib;
      const T* dk = pack_diag(t + i0 + static_cast<std::size_t>(i0) * ldt, ldt,
                              ib, UpLo::Lower, diag);
      for (int j = 0; j < n; ++j) {
        T* bj = b + static_cast<std::size_t>(j) * ldb;
        for (int r = i - 1; r >= i0; --r) {
          T s = bj[r];
          for (int p = r + 1; p < i; ++p)
            s -= dk[(p - i0) + static_cast<std::size_t>(r - i0) * ib] * bj[p];
          bj[r] = s / diag_val(dk, ib, diag, r - i0);
        }
      }
      // B(0:i0, :) -= T(i0:i, 0:i0)^T * B(i0:i, :).
      if (i0 > 0)
        gemm(Trans::Yes, Trans::No, i0, n, ib, T(-1), t + i0, ldt, b + i0,
             ldb, T(1), b, ldb);
    }
    return;
  }
  if (trans == Trans::Yes) {
    if (side == Side::Left) {
      // Solve op(T) X = B column by column; only Upper arrives here
      // (T^T lower: forward substitution on transposed coefficients).
      for (int j = 0; j < n; ++j) {
        T* bj = b + static_cast<std::size_t>(j) * ldb;
        for (int i = 0; i < m; ++i) {
          T s = bj[i];
          for (int p = 0; p < i; ++p)
            s -= t[p + static_cast<std::size_t>(i) * ldt] * bj[p];
          bj[i] = s / diag_val(t, ldt, diag, i);
        }
      }
    } else {
      // X op(T) = B with T upper => T^T lower => right-to-left.
      for (int jj = n - 1; jj >= 0; --jj) {
        T* bj = b + static_cast<std::size_t>(jj) * ldb;
        for (int p = jj + 1; p < n; ++p) {
          const T tpj = t[jj + static_cast<std::size_t>(p) * ldt];
          if (tpj == T(0)) continue;
          const T* bp = b + static_cast<std::size_t>(p) * ldb;
          for (int i = 0; i < m; ++i) bj[i] -= bp[i] * tpj;
        }
        const T d = diag_val(t, ldt, diag, jj);
        if (d != T(1))
          for (int i = 0; i < m; ++i) bj[i] /= d;
      }
    }
    return;
  }

  if (side == Side::Left && uplo == UpLo::Lower) {
    // Forward block substitution: for each diagonal block, solve then
    // eliminate it from the rows below via gemm.
    for (int i = 0; i < m; i += kNB) {
      const int ib = std::min(kNB, m - i);
      left_lower_unblocked(
          diag, ib, n,
          pack_diag(t + i + static_cast<std::size_t>(i) * ldt, ldt, ib,
                    UpLo::Lower, diag),
          ib,
          b + i, ldb);
      if (i + ib < m)
        gemm(Trans::No, Trans::No, m - i - ib, n, ib, T(-1),
             t + (i + ib) + static_cast<std::size_t>(i) * ldt, ldt, b + i, ldb,
             T(1), b + i + ib, ldb);
    }
  } else if (side == Side::Left && uplo == UpLo::Upper) {
    for (int i = m; i > 0; i -= kNB) {
      const int ib = std::min(kNB, i);
      const int i0 = i - ib;
      left_upper_unblocked(
          diag, ib, n,
          pack_diag(t + i0 + static_cast<std::size_t>(i0) * ldt, ldt, ib,
                    UpLo::Upper, diag),
          ib,
          b + i0, ldb);
      if (i0 > 0)
        gemm(Trans::No, Trans::No, i0, n, ib, T(-1),
             t + static_cast<std::size_t>(i0) * ldt, ldt, b + i0, ldb, T(1), b,
             ldb);
    }
  } else if (side == Side::Right && uplo == UpLo::Upper) {
    // Left-to-right: solve block column, eliminate from the columns right.
    for (int j = 0; j < n; j += kNB) {
      const int jb = std::min(kNB, n - j);
      right_upper_unblocked(
          diag, m, jb,
          pack_diag(t + j + static_cast<std::size_t>(j) * ldt, ldt, jb,
                    UpLo::Upper, diag),
          jb,
          b + static_cast<std::size_t>(j) * ldb, ldb);
      if (j + jb < n)
        gemm(Trans::No, Trans::No, m, n - j - jb, jb, T(-1),
             b + static_cast<std::size_t>(j) * ldb, ldb,
             t + j + static_cast<std::size_t>(j + jb) * ldt, ldt, T(1),
             b + static_cast<std::size_t>(j + jb) * ldb, ldb);
    }
  } else {  // Side::Right, UpLo::Lower
    for (int j = n; j > 0; j -= kNB) {
      const int jb = std::min(kNB, j);
      const int j0 = j - jb;
      right_lower_unblocked(
          diag, m, jb,
          pack_diag(t + j0 + static_cast<std::size_t>(j0) * ldt, ldt, jb,
                    UpLo::Lower, diag),
          jb,
          b + static_cast<std::size_t>(j0) * ldb, ldb);
      if (j0 > 0)
        gemm(Trans::No, Trans::No, m, j0, jb, T(-1),
             b + static_cast<std::size_t>(j0) * ldb, ldb,
             t + j0, ldt, T(1), b, ldb);
    }
  }
}

}  // namespace

void trsm(Side side, UpLo uplo, Trans trans, Diag diag, int m, int n,
          double alpha, const double* t, int ldt, double* b, int ldb) {
  trsm_impl(side, uplo, trans, diag, m, n, alpha, t, ldt, b, ldb);
}

void trsm(Side side, UpLo uplo, Trans trans, Diag diag, int m, int n,
          float alpha, const float* t, int ldt, float* b, int ldb) {
  trsm_impl(side, uplo, trans, diag, m, n, alpha, t, ldt, b, ldb);
}

}  // namespace calu::blas
