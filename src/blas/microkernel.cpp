// microkernel.cpp — the register kernels and the startup dispatch.
//
// Each SIMD gemm kernel always accumulates the full (padded) register
// tile with vector FMAs and only masks the write-back; the edge
// write-back uses scalar std::fma so it rounds exactly like the vector
// path (see the numerical contract in microkernel.h).
//
// The panel kernels have the opposite contract — one multiply and one
// subtract per term, each individually rounded, accumulating directly
// into C (see microkernel.h) — and live in their own translation unit
// (panel_kernels.cpp, compiled with -ffp-contract=off) so that pinning
// their rounding never taxes the kernels here, which want contraction.
//
// Two dispatch tables live here, one per precision, with the same
// variant names in the same order; a single atomic index selects the
// active variant for BOTH so a CALU_KERNEL pin or select_kernel() call
// governs float and double alike.  The float kernels double the lanes of
// the same silicon: 24x8 doubles -> 48x8 floats on avx512, 8x6 -> 16x6
// on avx2.  The float trsm leaves are written once against avx2+fma and
// shared by the avx512 float entry — every avx512f CPU has avx2+fma, and
// an 8x8 float leaf fits a ymm column exactly, so a zmm version would
// only waste half its lanes.
#include "src/blas/microkernel.h"

#include "src/blas/panel_kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define CALU_X86 1
#include <immintrin.h>
#else
#define CALU_X86 0
#endif

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace calu::blas {
namespace {

// ------------------------------------------------------ generic kernel ---

template <class T, int MR, int NR>
void kernel_c(int kc, T alpha, const T* ap, const T* bp, T* c, int ldc,
              int mr, int nr) {
  T acc[MR * NR] = {};
  for (int p = 0; p < kc; ++p) {
    const T* a = ap + static_cast<std::size_t>(p) * MR;
    const T* b = bp + static_cast<std::size_t>(p) * NR;
    for (int j = 0; j < NR; ++j) {
      const T bj = b[j];
      T* accj = acc + j * MR;
      for (int i = 0; i < MR; ++i) accj[i] += a[i] * bj;
    }
  }
  for (int j = 0; j < nr; ++j) {
    T* cj = c + static_cast<std::size_t>(j) * ldc;
    const T* accj = acc + j * MR;
    for (int i = 0; i < mr; ++i) cj[i] += alpha * accj[i];
  }
}

// ---------------------------------------------- generic trsm leaves ---

template <class T>
void trsm_leaf_left_c(int kb, int n, const T* inv, T* b, int ldb) {
  T x[16];
  for (int j = 0; j < n; ++j) {
    T* bj = b + static_cast<std::size_t>(j) * ldb;
    for (int i = 0; i < kb; ++i) {
      T s = T(0);
      for (int p = 0; p < kb; ++p)
        s += inv[i + static_cast<std::size_t>(p) * kb] * bj[p];
      x[i] = s;
    }
    for (int i = 0; i < kb; ++i) bj[i] = x[i];
  }
}

template <class T>
void trsm_leaf_right_c(int m, int kb, const T* inv, T* b, int ldb) {
  T x[16];
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < kb; ++j) {
      T s = T(0);
      for (int p = 0; p < kb; ++p)
        s += b[i + static_cast<std::size_t>(p) * ldb] *
             inv[p + static_cast<std::size_t>(j) * kb];
      x[j] = s;
    }
    for (int j = 0; j < kb; ++j)
      b[i + static_cast<std::size_t>(j) * ldb] = x[j];
  }
}

// ----------------------------------------------- generic fma update ---
// panel_update's (j, p, i) loop nest without the zero skip; contracted
// into FMAs wherever the baseline ISA has them.

template <class T>
void panel_fma_c(int m, int n, int kb, const T* l, int ldl, const T* u,
                 int ldu, T* c, int ldc) {
  for (int j = 0; j < n; ++j) {
    T* cj = c + static_cast<std::size_t>(j) * ldc;
    for (int p = 0; p < kb; ++p) {
      const T up = u[p + static_cast<std::size_t>(j) * ldu];
      const T* lp = l + static_cast<std::size_t>(p) * ldl;
      for (int i = 0; i < m; ++i) cj[i] -= lp[i] * up;
    }
  }
}

#if CALU_X86

// ------------------------------------------------- fma update kernels ---
// C -= L U, one fused multiply-add per term, straight into C: NC columns
// of C stay in accumulators while the p loop streams two vectors of L,
// then the last rows (masked on avx512, scalar on avx2).  One body per
// ISA serves both precisions through the overloads below (lanes =
// vector bytes / sizeof(T)); the column loop takes as many columns at a
// time as the register file holds.

__attribute__((target("avx512f"))) inline __m512d ld512(const double* p) {
  return _mm512_loadu_pd(p);
}
__attribute__((target("avx512f"))) inline __m512 ld512(const float* p) {
  return _mm512_loadu_ps(p);
}
__attribute__((target("avx512f"))) inline __m512d ld512(const double* p,
                                                        int n) {
  return _mm512_maskz_loadu_pd(static_cast<__mmask8>((1u << n) - 1u), p);
}
__attribute__((target("avx512f"))) inline __m512 ld512(const float* p,
                                                       int n) {
  return _mm512_maskz_loadu_ps(static_cast<__mmask16>((1u << n) - 1u), p);
}
__attribute__((target("avx512f"))) inline void st512(double* p, __m512d v) {
  _mm512_storeu_pd(p, v);
}
__attribute__((target("avx512f"))) inline void st512(float* p, __m512 v) {
  _mm512_storeu_ps(p, v);
}
__attribute__((target("avx512f"))) inline void st512(double* p, __m512d v,
                                                     int n) {
  _mm512_mask_storeu_pd(p, static_cast<__mmask8>((1u << n) - 1u), v);
}
__attribute__((target("avx512f"))) inline void st512(float* p, __m512 v,
                                                     int n) {
  _mm512_mask_storeu_ps(p, static_cast<__mmask16>((1u << n) - 1u), v);
}
__attribute__((target("avx512f"))) inline __m512d fnm512(__m512d l, double u,
                                                         __m512d c) {
  return _mm512_fnmadd_pd(l, _mm512_set1_pd(u), c);
}
__attribute__((target("avx512f"))) inline __m512 fnm512(__m512 l, float u,
                                                        __m512 c) {
  return _mm512_fnmadd_ps(l, _mm512_set1_ps(u), c);
}

template <class T, int NC>
__attribute__((target("avx512f"))) void fma_cols_avx512(int m, int kb,
                                                        const T* l, int ldl,
                                                        const T* u, int ldu,
                                                        T* c, int ldc) {
  using V = decltype(ld512(l));
  constexpr int W = 64 / sizeof(T);
  int i = 0;
  for (; i + 2 * W <= m; i += 2 * W) {
    V acc[NC][2];
    for (int q = 0; q < NC; ++q) {
      const T* cq = c + static_cast<std::size_t>(q) * ldc + i;
      acc[q][0] = ld512(cq);
      acc[q][1] = ld512(cq + W);
    }
    for (int p = 0; p < kb; ++p) {
      const T* lp = l + static_cast<std::size_t>(p) * ldl + i;
      const V l0 = ld512(lp), l1 = ld512(lp + W);
      for (int q = 0; q < NC; ++q) {
        const T uq = u[p + static_cast<std::size_t>(q) * ldu];
        acc[q][0] = fnm512(l0, uq, acc[q][0]);
        acc[q][1] = fnm512(l1, uq, acc[q][1]);
      }
    }
    for (int q = 0; q < NC; ++q) {
      T* cq = c + static_cast<std::size_t>(q) * ldc + i;
      st512(cq, acc[q][0]);
      st512(cq + W, acc[q][1]);
    }
  }
  for (; i < m; i += W) {
    const int rows = std::min(W, m - i);
    V acc[NC];
    for (int q = 0; q < NC; ++q)
      acc[q] = ld512(c + static_cast<std::size_t>(q) * ldc + i, rows);
    for (int p = 0; p < kb; ++p) {
      const V lp = ld512(l + static_cast<std::size_t>(p) * ldl + i, rows);
      for (int q = 0; q < NC; ++q)
        acc[q] = fnm512(lp, u[p + static_cast<std::size_t>(q) * ldu], acc[q]);
    }
    for (int q = 0; q < NC; ++q)
      st512(c + static_cast<std::size_t>(q) * ldc + i, acc[q], rows);
  }
}

template <class T>
__attribute__((target("avx512f"))) void panel_fma_avx512(int m, int n, int kb,
                                                         const T* l, int ldl,
                                                         const T* u, int ldu,
                                                         T* c, int ldc) {
  int j = 0;
  for (; j + 8 <= n; j += 8)
    fma_cols_avx512<T, 8>(m, kb, l, ldl, u + static_cast<std::size_t>(j) * ldu,
                          ldu, c + static_cast<std::size_t>(j) * ldc, ldc);
  // The last 1-7 columns in one pass: the in-block updates of the
  // getrf_recursive leaf are all this narrow.
  const T* uj = u + static_cast<std::size_t>(j) * ldu;
  T* cj = c + static_cast<std::size_t>(j) * ldc;
  switch (n - j) {
    case 7: return fma_cols_avx512<T, 7>(m, kb, l, ldl, uj, ldu, cj, ldc);
    case 6: return fma_cols_avx512<T, 6>(m, kb, l, ldl, uj, ldu, cj, ldc);
    case 5: return fma_cols_avx512<T, 5>(m, kb, l, ldl, uj, ldu, cj, ldc);
    case 4: return fma_cols_avx512<T, 4>(m, kb, l, ldl, uj, ldu, cj, ldc);
    case 3: return fma_cols_avx512<T, 3>(m, kb, l, ldl, uj, ldu, cj, ldc);
    case 2: return fma_cols_avx512<T, 2>(m, kb, l, ldl, uj, ldu, cj, ldc);
    case 1: return fma_cols_avx512<T, 1>(m, kb, l, ldl, uj, ldu, cj, ldc);
    default: return;
  }
}

__attribute__((target("avx2,fma"))) inline __m256d ld256(const double* p) {
  return _mm256_loadu_pd(p);
}
__attribute__((target("avx2,fma"))) inline __m256 ld256(const float* p) {
  return _mm256_loadu_ps(p);
}
__attribute__((target("avx2,fma"))) inline void st256(double* p, __m256d v) {
  _mm256_storeu_pd(p, v);
}
__attribute__((target("avx2,fma"))) inline void st256(float* p, __m256 v) {
  _mm256_storeu_ps(p, v);
}
__attribute__((target("avx2,fma"))) inline __m256d fnm256(__m256d l, double u,
                                                          __m256d c) {
  return _mm256_fnmadd_pd(l, _mm256_set1_pd(u), c);
}
__attribute__((target("avx2,fma"))) inline __m256 fnm256(__m256 l, float u,
                                                         __m256 c) {
  return _mm256_fnmadd_ps(l, _mm256_set1_ps(u), c);
}

template <class T, int NC>
__attribute__((target("avx2,fma"))) void fma_cols_avx2(int m, int kb,
                                                       const T* l, int ldl,
                                                       const T* u, int ldu,
                                                       T* c, int ldc) {
  using V = decltype(ld256(l));
  constexpr int W = 32 / sizeof(T);
  int i = 0;
  for (; i + 2 * W <= m; i += 2 * W) {
    V acc[NC][2];
    for (int q = 0; q < NC; ++q) {
      const T* cq = c + static_cast<std::size_t>(q) * ldc + i;
      acc[q][0] = ld256(cq);
      acc[q][1] = ld256(cq + W);
    }
    for (int p = 0; p < kb; ++p) {
      const T* lp = l + static_cast<std::size_t>(p) * ldl + i;
      const V l0 = ld256(lp), l1 = ld256(lp + W);
      for (int q = 0; q < NC; ++q) {
        const T uq = u[p + static_cast<std::size_t>(q) * ldu];
        acc[q][0] = fnm256(l0, uq, acc[q][0]);
        acc[q][1] = fnm256(l1, uq, acc[q][1]);
      }
    }
    for (int q = 0; q < NC; ++q) {
      T* cq = c + static_cast<std::size_t>(q) * ldc + i;
      st256(cq, acc[q][0]);
      st256(cq + W, acc[q][1]);
    }
  }
  // Scalar row tail; std::fma compiles to the FMA instruction here.
  for (; i < m; ++i)
    for (int q = 0; q < NC; ++q) {
      T v = c[i + static_cast<std::size_t>(q) * ldc];
      for (int p = 0; p < kb; ++p)
        v = std::fma(-l[i + static_cast<std::size_t>(p) * ldl],
                     u[p + static_cast<std::size_t>(q) * ldu], v);
      c[i + static_cast<std::size_t>(q) * ldc] = v;
    }
}

template <class T>
__attribute__((target("avx2,fma"))) void panel_fma_avx2(int m, int n, int kb,
                                                        const T* l, int ldl,
                                                        const T* u, int ldu,
                                                        T* c, int ldc) {
  int j = 0;
  for (; j + 4 <= n; j += 4)
    fma_cols_avx2<T, 4>(m, kb, l, ldl, u + static_cast<std::size_t>(j) * ldu,
                        ldu, c + static_cast<std::size_t>(j) * ldc, ldc);
  const T* uj = u + static_cast<std::size_t>(j) * ldu;
  T* cj = c + static_cast<std::size_t>(j) * ldc;
  switch (n - j) {
    case 3: return fma_cols_avx2<T, 3>(m, kb, l, ldl, uj, ldu, cj, ldc);
    case 2: return fma_cols_avx2<T, 2>(m, kb, l, ldl, uj, ldu, cj, ldc);
    case 1: return fma_cols_avx2<T, 1>(m, kb, l, ldl, uj, ldu, cj, ldc);
    default: return;
  }
}

// ------------------------------------------------- avx2 trsm leaves ---
// kb == kTrsmLeafNB (8) specialization; anything else (the one ragged
// leaf of a non-multiple triangle) falls back to the scalar version.
// In-place safety: each column's (row block's) inputs are consumed as
// broadcasts (register loads) before its outputs are stored.

__attribute__((target("avx2,fma"))) void trsm_leaf_left_avx2(
    int kb, int n, const double* inv, double* b, int ldb) {
  if (kb != 8) {
    trsm_leaf_left_c(kb, n, inv, b, ldb);
    return;
  }
  int j = 0;
  for (; j + 2 <= n; j += 2) {
    double* b0 = b + static_cast<std::size_t>(j) * ldb;
    double* b1 = b0 + ldb;
    __m256d a00 = _mm256_setzero_pd(), a01 = a00, a10 = a00, a11 = a00;
    for (int p = 0; p < 8; ++p) {
      const __m256d l0 = _mm256_loadu_pd(inv + p * 8);
      const __m256d l1 = _mm256_loadu_pd(inv + p * 8 + 4);
      const __m256d u0 = _mm256_set1_pd(b0[p]);
      const __m256d u1 = _mm256_set1_pd(b1[p]);
      a00 = _mm256_fmadd_pd(l0, u0, a00);
      a01 = _mm256_fmadd_pd(l1, u0, a01);
      a10 = _mm256_fmadd_pd(l0, u1, a10);
      a11 = _mm256_fmadd_pd(l1, u1, a11);
    }
    _mm256_storeu_pd(b0, a00);
    _mm256_storeu_pd(b0 + 4, a01);
    _mm256_storeu_pd(b1, a10);
    _mm256_storeu_pd(b1 + 4, a11);
  }
  for (; j < n; ++j) {
    double* bj = b + static_cast<std::size_t>(j) * ldb;
    __m256d a0 = _mm256_setzero_pd(), a1 = a0;
    for (int p = 0; p < 8; ++p) {
      const __m256d u = _mm256_set1_pd(bj[p]);
      a0 = _mm256_fmadd_pd(_mm256_loadu_pd(inv + p * 8), u, a0);
      a1 = _mm256_fmadd_pd(_mm256_loadu_pd(inv + p * 8 + 4), u, a1);
    }
    _mm256_storeu_pd(bj, a0);
    _mm256_storeu_pd(bj + 4, a1);
  }
}

__attribute__((target("avx2,fma"))) void trsm_leaf_right_avx2(
    int m, int kb, const double* inv, double* b, int ldb) {
  if (kb != 8) {
    trsm_leaf_right_c(m, kb, inv, b, ldb);
    return;
  }
  int i = 0;
  for (; i + 4 <= m; i += 4) {
    __m256d in[8];
    for (int p = 0; p < 8; ++p)
      in[p] = _mm256_loadu_pd(b + i + static_cast<std::size_t>(p) * ldb);
    for (int j = 0; j < 8; ++j) {
      const double* cj = inv + j * 8;
      __m256d acc = _mm256_mul_pd(in[0], _mm256_set1_pd(cj[0]));
      for (int p = 1; p < 8; ++p)
        acc = _mm256_fmadd_pd(in[p], _mm256_set1_pd(cj[p]), acc);
      _mm256_storeu_pd(b + i + static_cast<std::size_t>(j) * ldb, acc);
    }
  }
  if (i < m) trsm_leaf_right_c(m - i, 8, inv, b + i, ldb);
}

// -------------------------------------------- float trsm leaves (avx2) ---
// An 8x8 float leaf column is exactly one ymm vector, so avx2+fma is the
// natural width at both dispatch tiers; the avx512 float table entry
// reuses these (avx512f hardware always has avx2+fma).

__attribute__((target("avx2,fma"))) void trsm_leaf_left_avx2(
    int kb, int n, const float* inv, float* b, int ldb) {
  if (kb != 8) {
    trsm_leaf_left_c(kb, n, inv, b, ldb);
    return;
  }
  __m256 ic[8];
  for (int p = 0; p < 8; ++p)
    ic[p] = _mm256_loadu_ps(inv + p * 8);
  int j = 0;
  for (; j + 4 <= n; j += 4) {
    float* b0 = b + static_cast<std::size_t>(j) * ldb;
    float* b1 = b0 + ldb;
    float* b2 = b1 + ldb;
    float* b3 = b2 + ldb;
    __m256 a0 = _mm256_mul_ps(ic[0], _mm256_set1_ps(b0[0]));
    __m256 a1 = _mm256_mul_ps(ic[0], _mm256_set1_ps(b1[0]));
    __m256 a2 = _mm256_mul_ps(ic[0], _mm256_set1_ps(b2[0]));
    __m256 a3 = _mm256_mul_ps(ic[0], _mm256_set1_ps(b3[0]));
    for (int p = 1; p < 8; ++p) {
      a0 = _mm256_fmadd_ps(ic[p], _mm256_set1_ps(b0[p]), a0);
      a1 = _mm256_fmadd_ps(ic[p], _mm256_set1_ps(b1[p]), a1);
      a2 = _mm256_fmadd_ps(ic[p], _mm256_set1_ps(b2[p]), a2);
      a3 = _mm256_fmadd_ps(ic[p], _mm256_set1_ps(b3[p]), a3);
    }
    _mm256_storeu_ps(b0, a0);
    _mm256_storeu_ps(b1, a1);
    _mm256_storeu_ps(b2, a2);
    _mm256_storeu_ps(b3, a3);
  }
  for (; j < n; ++j) {
    float* bj = b + static_cast<std::size_t>(j) * ldb;
    __m256 a = _mm256_mul_ps(ic[0], _mm256_set1_ps(bj[0]));
    for (int p = 1; p < 8; ++p)
      a = _mm256_fmadd_ps(ic[p], _mm256_set1_ps(bj[p]), a);
    _mm256_storeu_ps(bj, a);
  }
}

__attribute__((target("avx2,fma"))) void trsm_leaf_right_avx2(
    int m, int kb, const float* inv, float* b, int ldb) {
  if (kb != 8) {
    trsm_leaf_right_c(m, kb, inv, b, ldb);
    return;
  }
  int i = 0;
  for (; i + 8 <= m; i += 8) {
    __m256 in[8];
    for (int p = 0; p < 8; ++p)
      in[p] = _mm256_loadu_ps(b + i + static_cast<std::size_t>(p) * ldb);
    for (int j = 0; j < 8; ++j) {
      const float* cj = inv + j * 8;
      __m256 acc = _mm256_mul_ps(in[0], _mm256_set1_ps(cj[0]));
      for (int p = 1; p < 8; ++p)
        acc = _mm256_fmadd_ps(in[p], _mm256_set1_ps(cj[p]), acc);
      _mm256_storeu_ps(b + i + static_cast<std::size_t>(j) * ldb, acc);
    }
  }
  if (i < m) trsm_leaf_right_c(m - i, 8, inv, b + i, ldb);
}

// ----------------------------------------------- avx512 trsm leaves ---

__attribute__((target("avx512f"))) void trsm_leaf_left_avx512(
    int kb, int n, const double* inv, double* b, int ldb) {
  if (kb != 8) {
    trsm_leaf_left_c(kb, n, inv, b, ldb);
    return;
  }
  __m512d ic[8];
  for (int p = 0; p < 8; ++p) ic[p] = _mm512_loadu_pd(inv + p * 8);
  int j = 0;
  for (; j + 4 <= n; j += 4) {
    double* b0 = b + static_cast<std::size_t>(j) * ldb;
    double* b1 = b0 + ldb;
    double* b2 = b1 + ldb;
    double* b3 = b2 + ldb;
    __m512d a0 = _mm512_mul_pd(ic[0], _mm512_set1_pd(b0[0]));
    __m512d a1 = _mm512_mul_pd(ic[0], _mm512_set1_pd(b1[0]));
    __m512d a2 = _mm512_mul_pd(ic[0], _mm512_set1_pd(b2[0]));
    __m512d a3 = _mm512_mul_pd(ic[0], _mm512_set1_pd(b3[0]));
    for (int p = 1; p < 8; ++p) {
      a0 = _mm512_fmadd_pd(ic[p], _mm512_set1_pd(b0[p]), a0);
      a1 = _mm512_fmadd_pd(ic[p], _mm512_set1_pd(b1[p]), a1);
      a2 = _mm512_fmadd_pd(ic[p], _mm512_set1_pd(b2[p]), a2);
      a3 = _mm512_fmadd_pd(ic[p], _mm512_set1_pd(b3[p]), a3);
    }
    _mm512_storeu_pd(b0, a0);
    _mm512_storeu_pd(b1, a1);
    _mm512_storeu_pd(b2, a2);
    _mm512_storeu_pd(b3, a3);
  }
  for (; j < n; ++j) {
    double* bj = b + static_cast<std::size_t>(j) * ldb;
    __m512d a = _mm512_mul_pd(ic[0], _mm512_set1_pd(bj[0]));
    for (int p = 1; p < 8; ++p)
      a = _mm512_fmadd_pd(ic[p], _mm512_set1_pd(bj[p]), a);
    _mm512_storeu_pd(bj, a);
  }
}

__attribute__((target("avx512f"))) void trsm_leaf_right_avx512(
    int m, int kb, const double* inv, double* b, int ldb) {
  if (kb != 8) {
    trsm_leaf_right_c(m, kb, inv, b, ldb);
    return;
  }
  int i = 0;
  for (; i + 8 <= m; i += 8) {
    __m512d in[8];
    for (int p = 0; p < 8; ++p)
      in[p] = _mm512_loadu_pd(b + i + static_cast<std::size_t>(p) * ldb);
    for (int j = 0; j < 8; ++j) {
      const double* cj = inv + j * 8;
      __m512d acc = _mm512_mul_pd(in[0], _mm512_set1_pd(cj[0]));
      for (int p = 1; p < 8; ++p)
        acc = _mm512_fmadd_pd(in[p], _mm512_set1_pd(cj[p]), acc);
      _mm512_storeu_pd(b + i + static_cast<std::size_t>(j) * ldb, acc);
    }
  }
  if (i < m) trsm_leaf_right_c(m - i, 8, inv, b + i, ldb);
}

// --------------------------------------------------------- avx2 kernel ---
// 8x6: 12 ymm accumulators + 2 A vectors + 1 broadcast = 15 of 16 regs.

__attribute__((target("avx2,fma"))) void kernel_avx2(
    int kc, double alpha, const double* ap, const double* bp, double* c,
    int ldc, int mr, int nr) {
  __m256d acc0[6], acc1[6];
  for (int j = 0; j < 6; ++j) acc0[j] = acc1[j] = _mm256_setzero_pd();
  for (int p = 0; p < kc; ++p) {
    const __m256d a0 = _mm256_loadu_pd(ap);
    const __m256d a1 = _mm256_loadu_pd(ap + 4);
    ap += 8;
    for (int j = 0; j < 6; ++j) {
      const __m256d b = _mm256_set1_pd(bp[j]);
      acc0[j] = _mm256_fmadd_pd(a0, b, acc0[j]);
      acc1[j] = _mm256_fmadd_pd(a1, b, acc1[j]);
    }
    bp += 6;
  }
  if (mr == 8 && nr == 6) {
    const __m256d av = _mm256_set1_pd(alpha);
    for (int j = 0; j < 6; ++j) {
      double* cj = c + static_cast<std::size_t>(j) * ldc;
      _mm256_storeu_pd(cj,
                       _mm256_fmadd_pd(av, acc0[j], _mm256_loadu_pd(cj)));
      _mm256_storeu_pd(
          cj + 4, _mm256_fmadd_pd(av, acc1[j], _mm256_loadu_pd(cj + 4)));
    }
    return;
  }
  double tmp[8 * 6];
  for (int j = 0; j < 6; ++j) {
    _mm256_storeu_pd(tmp + j * 8, acc0[j]);
    _mm256_storeu_pd(tmp + j * 8 + 4, acc1[j]);
  }
  for (int j = 0; j < nr; ++j) {
    double* cj = c + static_cast<std::size_t>(j) * ldc;
    for (int i = 0; i < mr; ++i) cj[i] = std::fma(alpha, tmp[j * 8 + i], cj[i]);
  }
}

// --------------------------------------------------- avx2 float kernel ---
// 16x6: the double kernel's shape at doubled lanes (two ymm of 8 floats).

__attribute__((target("avx2,fma"))) void kernel_avx2_f(
    int kc, float alpha, const float* ap, const float* bp, float* c, int ldc,
    int mr, int nr) {
  __m256 acc0[6], acc1[6];
  for (int j = 0; j < 6; ++j) acc0[j] = acc1[j] = _mm256_setzero_ps();
  for (int p = 0; p < kc; ++p) {
    const __m256 a0 = _mm256_loadu_ps(ap);
    const __m256 a1 = _mm256_loadu_ps(ap + 8);
    ap += 16;
    for (int j = 0; j < 6; ++j) {
      const __m256 b = _mm256_set1_ps(bp[j]);
      acc0[j] = _mm256_fmadd_ps(a0, b, acc0[j]);
      acc1[j] = _mm256_fmadd_ps(a1, b, acc1[j]);
    }
    bp += 6;
  }
  if (mr == 16 && nr == 6) {
    const __m256 av = _mm256_set1_ps(alpha);
    for (int j = 0; j < 6; ++j) {
      float* cj = c + static_cast<std::size_t>(j) * ldc;
      _mm256_storeu_ps(cj,
                       _mm256_fmadd_ps(av, acc0[j], _mm256_loadu_ps(cj)));
      _mm256_storeu_ps(
          cj + 8, _mm256_fmadd_ps(av, acc1[j], _mm256_loadu_ps(cj + 8)));
    }
    return;
  }
  float tmp[16 * 6];
  for (int j = 0; j < 6; ++j) {
    _mm256_storeu_ps(tmp + j * 16, acc0[j]);
    _mm256_storeu_ps(tmp + j * 16 + 8, acc1[j]);
  }
  for (int j = 0; j < nr; ++j) {
    float* cj = c + static_cast<std::size_t>(j) * ldc;
    for (int i = 0; i < mr; ++i)
      cj[i] = std::fma(alpha, tmp[j * 16 + i], cj[i]);
  }
}

// ------------------------------------------------------- avx512 kernel ---
// 24x8: 24 zmm accumulators + 3 A vectors + 1 broadcast = 28 of 32 regs
// (the BLIS Skylake shape).

__attribute__((target("avx512f"))) void kernel_avx512(
    int kc, double alpha, const double* ap, const double* bp, double* c,
    int ldc, int mr, int nr) {
  __m512d acc0[8], acc1[8], acc2[8];
  for (int j = 0; j < 8; ++j) acc0[j] = acc1[j] = acc2[j] = _mm512_setzero_pd();
  for (int p = 0; p < kc; ++p) {
    const __m512d a0 = _mm512_loadu_pd(ap);
    const __m512d a1 = _mm512_loadu_pd(ap + 8);
    const __m512d a2 = _mm512_loadu_pd(ap + 16);
    ap += 24;
    for (int j = 0; j < 8; ++j) {
      const __m512d b = _mm512_set1_pd(bp[j]);
      acc0[j] = _mm512_fmadd_pd(a0, b, acc0[j]);
      acc1[j] = _mm512_fmadd_pd(a1, b, acc1[j]);
      acc2[j] = _mm512_fmadd_pd(a2, b, acc2[j]);
    }
    bp += 8;
  }
  if (mr == 24 && nr == 8) {
    const __m512d av = _mm512_set1_pd(alpha);
    for (int j = 0; j < 8; ++j) {
      double* cj = c + static_cast<std::size_t>(j) * ldc;
      _mm512_storeu_pd(cj,
                       _mm512_fmadd_pd(av, acc0[j], _mm512_loadu_pd(cj)));
      _mm512_storeu_pd(
          cj + 8, _mm512_fmadd_pd(av, acc1[j], _mm512_loadu_pd(cj + 8)));
      _mm512_storeu_pd(
          cj + 16, _mm512_fmadd_pd(av, acc2[j], _mm512_loadu_pd(cj + 16)));
    }
    return;
  }
  double tmp[24 * 8];
  for (int j = 0; j < 8; ++j) {
    _mm512_storeu_pd(tmp + j * 24, acc0[j]);
    _mm512_storeu_pd(tmp + j * 24 + 8, acc1[j]);
    _mm512_storeu_pd(tmp + j * 24 + 16, acc2[j]);
  }
  for (int j = 0; j < nr; ++j) {
    double* cj = c + static_cast<std::size_t>(j) * ldc;
    for (int i = 0; i < mr; ++i)
      cj[i] = std::fma(alpha, tmp[j * 24 + i], cj[i]);
  }
}

// ------------------------------------------------- avx512 float kernel ---
// 48x8: the 24x8 double shape at doubled lanes — three zmm of 16 floats,
// 24 accumulators + 3 A vectors + 1 broadcast = 28 of 32 regs.

__attribute__((target("avx512f"))) void kernel_avx512_f(
    int kc, float alpha, const float* ap, const float* bp, float* c, int ldc,
    int mr, int nr) {
  __m512 acc0[8], acc1[8], acc2[8];
  for (int j = 0; j < 8; ++j) acc0[j] = acc1[j] = acc2[j] = _mm512_setzero_ps();
  for (int p = 0; p < kc; ++p) {
    const __m512 a0 = _mm512_loadu_ps(ap);
    const __m512 a1 = _mm512_loadu_ps(ap + 16);
    const __m512 a2 = _mm512_loadu_ps(ap + 32);
    ap += 48;
    for (int j = 0; j < 8; ++j) {
      const __m512 b = _mm512_set1_ps(bp[j]);
      acc0[j] = _mm512_fmadd_ps(a0, b, acc0[j]);
      acc1[j] = _mm512_fmadd_ps(a1, b, acc1[j]);
      acc2[j] = _mm512_fmadd_ps(a2, b, acc2[j]);
    }
    bp += 8;
  }
  if (mr == 48 && nr == 8) {
    const __m512 av = _mm512_set1_ps(alpha);
    for (int j = 0; j < 8; ++j) {
      float* cj = c + static_cast<std::size_t>(j) * ldc;
      _mm512_storeu_ps(cj,
                       _mm512_fmadd_ps(av, acc0[j], _mm512_loadu_ps(cj)));
      _mm512_storeu_ps(
          cj + 16, _mm512_fmadd_ps(av, acc1[j], _mm512_loadu_ps(cj + 16)));
      _mm512_storeu_ps(
          cj + 32, _mm512_fmadd_ps(av, acc2[j], _mm512_loadu_ps(cj + 32)));
    }
    return;
  }
  float tmp[48 * 8];
  for (int j = 0; j < 8; ++j) {
    _mm512_storeu_ps(tmp + j * 48, acc0[j]);
    _mm512_storeu_ps(tmp + j * 48 + 16, acc1[j]);
    _mm512_storeu_ps(tmp + j * 48 + 32, acc2[j]);
  }
  for (int j = 0; j < nr; ++j) {
    float* cj = c + static_cast<std::size_t>(j) * ldc;
    for (int i = 0; i < mr; ++i)
      cj[i] = std::fma(alpha, tmp[j * 48 + i], cj[i]);
  }
}

#endif  // CALU_X86

// --------------------------------------------- cache-derived blocking ---

long cache_level_size(int level) {
#if defined(_SC_LEVEL1_DCACHE_SIZE)
  const int names[] = {_SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE,
                       _SC_LEVEL3_CACHE_SIZE};
  const long v = sysconf(names[level - 1]);
  if (v > 0) return v;
#endif
  const long defaults[] = {32L << 10, 512L << 10, 8L << 20};
  return defaults[level - 1];
}

// Clamp to [lo, hi], then round down to a multiple of `unit` (never below
// `unit`).  The unit rounding comes last: mc/nc MUST end up multiples of
// the register strip or the pack would write a padded partial strip past
// the mc x kc / kc x nc scratch sizing.
int round_block(long v, int unit, long lo, long hi) {
  long r = v < lo ? lo : (v > hi ? hi : v);
  r = r / unit * unit;
  if (r < unit) r = unit;
  return static_cast<int>(r);
}

/// Classic Goto sizing: the kc-deep A and B register strips together stay
/// resident in L1, an mc x kc packed A block in ~half of L2, a kc x nc
/// packed B panel in ~half of L3 — all in bytes of the kernel's scalar
/// type, so the float tables get deeper/wider blocks from the same caches.
template <class T>
void derive_blocking(MicroKernelT<T>& k, const CacheInfo& ci) {
  const long es = static_cast<long>(sizeof(T));
  const long kc = ci.l1 / (es * (k.mr + k.nr));
  k.kc = round_block(kc, 8, 128, 512);
  k.mc = round_block(ci.l2 / (2L * es * k.kc), k.mr, 4L * k.mr, 1536);
  k.nc = round_block(ci.l3 / (2L * es * k.kc), k.nr, 16L * k.nr, 8192);
}

// ------------------------------------------------------------ dispatch ---
// Both precision tables hold the same variant names in the same order;
// one atomic index selects the active entry of each.

std::vector<MicroKernel> build_table() {
  const CacheInfo ci = cache_info();
  std::vector<MicroKernel> t;
#if CALU_X86
  if (__builtin_cpu_supports("avx512f")) {
    MicroKernel k;
    k.name = "avx512";
    k.mr = 24;
    k.nr = 8;
    k.fn = kernel_avx512;
    k.panel_update = panelk::panel_update_avx512;
    k.panel_fma = panel_fma_avx512<double>;
    k.rank1_iamax = panelk::rank1_iamax_avx512;
    k.iamax = panelk::iamax_avx512;
    k.trsm_leaf_left = trsm_leaf_left_avx512;
    k.trsm_leaf_right = trsm_leaf_right_avx512;
    derive_blocking(k, ci);
    t.push_back(k);
  }
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    MicroKernel k;
    k.name = "avx2";
    k.mr = 8;
    k.nr = 6;
    k.fn = kernel_avx2;
    k.panel_update = panelk::panel_update_avx2;
    k.panel_fma = panel_fma_avx2<double>;
    k.rank1_iamax = panelk::rank1_iamax_avx2;
    k.iamax = panelk::iamax_avx2;
    k.trsm_leaf_left = trsm_leaf_left_avx2;
    k.trsm_leaf_right = trsm_leaf_right_avx2;
    derive_blocking(k, ci);
    t.push_back(k);
  }
#endif
  MicroKernel k;
  k.name = "generic";
  k.mr = 8;
  k.nr = 4;
  k.fn = kernel_c<double, 8, 4>;
  k.panel_update = panelk::panel_update_c<double>;
  k.panel_fma = panel_fma_c<double>;
  k.rank1_iamax = panelk::rank1_iamax_c<double>;
  k.iamax = panelk::iamax_c<double>;
  k.trsm_leaf_left = trsm_leaf_left_c<double>;
  k.trsm_leaf_right = trsm_leaf_right_c<double>;
  derive_blocking(k, ci);
  t.push_back(k);
  return t;
}

std::vector<MicroKernelT<float>> build_table_f() {
  const CacheInfo ci = cache_info();
  std::vector<MicroKernelT<float>> t;
#if CALU_X86
  if (__builtin_cpu_supports("avx512f")) {
    MicroKernelT<float> k;
    k.name = "avx512";
    k.mr = 48;
    k.nr = 8;
    k.fn = kernel_avx512_f;
    k.panel_update = panelk::panel_update_avx512;
    k.panel_fma = panel_fma_avx512<float>;
    k.rank1_iamax = panelk::rank1_iamax_avx512;
    k.iamax = panelk::iamax_avx512;
    k.trsm_leaf_left = trsm_leaf_left_avx2;  // ymm-exact 8x8 float leaf
    k.trsm_leaf_right = trsm_leaf_right_avx2;
    derive_blocking(k, ci);
    t.push_back(k);
  }
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    MicroKernelT<float> k;
    k.name = "avx2";
    k.mr = 16;
    k.nr = 6;
    k.fn = kernel_avx2_f;
    k.panel_update = panelk::panel_update_avx2;
    k.panel_fma = panel_fma_avx2<float>;
    k.rank1_iamax = panelk::rank1_iamax_avx2;
    k.iamax = panelk::iamax_avx2;
    k.trsm_leaf_left = trsm_leaf_left_avx2;
    k.trsm_leaf_right = trsm_leaf_right_avx2;
    derive_blocking(k, ci);
    t.push_back(k);
  }
#endif
  MicroKernelT<float> k;
  k.name = "generic";
  // Same 8x4 shape as the double generic kernel: a 16-row float
  // accumulator is exactly the 16 XMM registers, so GCC spills it every
  // iteration (measured ~4x slower than 8x4 at -O3 baseline ISA).
  k.mr = 8;
  k.nr = 4;
  k.fn = kernel_c<float, 8, 4>;
  k.panel_update = panelk::panel_update_c<float>;
  k.panel_fma = panel_fma_c<float>;
  k.rank1_iamax = panelk::rank1_iamax_c<float>;
  k.iamax = panelk::iamax_c<float>;
  k.trsm_leaf_left = trsm_leaf_left_c<float>;
  k.trsm_leaf_right = trsm_leaf_right_c<float>;
  derive_blocking(k, ci);
  t.push_back(k);
  return t;
}

const std::vector<MicroKernel>& kernel_table() {
  static const std::vector<MicroKernel> table = build_table();
  return table;
}

const std::vector<MicroKernelT<float>>& kernel_table_f() {
  static const std::vector<MicroKernelT<float>> table = build_table_f();
  return table;
}

int auto_pick() {
  const std::vector<MicroKernel>& t = kernel_table();
  if (const char* env = std::getenv("CALU_KERNEL")) {
    for (std::size_t i = 0; i < t.size(); ++i)
      if (std::strcmp(t[i].name, env) == 0) return static_cast<int>(i);
    // A typo'd pin silently running the best SIMD kernel would defeat
    // e.g. CI's generic-path conformance run — fail loudly instead.
    std::fprintf(stderr,
                 "calu: CALU_KERNEL=%s is unknown/unsupported here "
                 "(have:", env);
    for (const MicroKernel& k : t) std::fprintf(stderr, " %s", k.name);
    std::fprintf(stderr, "); aborting\n");
    std::abort();
  }
  return 0;  // best supported first
}

std::atomic<int> g_active{-1};

int active_index() {
  int idx = g_active.load(std::memory_order_acquire);
  if (idx < 0) {
    // Benign race: concurrent first callers compute the same answer.
    idx = auto_pick();
    g_active.store(idx, std::memory_order_release);
  }
  return idx;
}

}  // namespace

const MicroKernel& active_kernel() { return kernel_table()[active_index()]; }

template <>
const MicroKernelT<double>& active_kernel_t<double>() {
  return kernel_table()[active_index()];
}

template <>
const MicroKernelT<float>& active_kernel_t<float>() {
  return kernel_table_f()[active_index()];
}

bool select_kernel(const char* name) {
  if (name == nullptr || name[0] == '\0') {
    g_active.store(auto_pick(), std::memory_order_release);
    return true;
  }
  const std::vector<MicroKernel>& t = kernel_table();
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (std::strcmp(t[i].name, name) == 0) {
      g_active.store(static_cast<int>(i), std::memory_order_release);
      return true;
    }
  }
  return false;
}

std::vector<std::string> available_kernels() {
  std::vector<std::string> names;
  for (const MicroKernel& k : kernel_table()) names.emplace_back(k.name);
  return names;
}

CacheInfo cache_info() {
  CacheInfo ci;
  ci.l1 = cache_level_size(1);
  ci.l2 = cache_level_size(2);
  ci.l3 = cache_level_size(3);
  return ci;
}

}  // namespace calu::blas
