// panel_kernels.cpp — the panel-factorization register kernels.
//
// Numerical contract (microkernel.h): every C element goes through
// exactly the chain of roundings of the classic column-at-a-time
// elimination — one multiply and one subtract per term, in ascending
// update order, and NO update at all for a term whose U entry is exactly
// zero (the unblocked algorithm's `if (ujj == 0.0) continue;`, which
// matters when the panel holds non-finite values: NaN * 0.0 would
// otherwise poison columns the reference leaves untouched, changing
// pivot sequences).  This TU is compiled with -ffp-contract=off
// (CMakeLists.txt) so nothing here can be re-fused into FMAs — GCC's
// default -ffp-contract=fast would otherwise fuse the explicit
// _mm512_mul/_mm512_sub intrinsic pairs inside the target("avx512f")
// functions (AVX-512F implies FMA), and the scalar _c kernels on any
// architecture whose baseline ISA has FMA, silently changing pivot
// decisions.
// The gemm and trsm-leaf kernels live in microkernel.cpp, outside the
// flag's reach, because they want contraction.
//
// Both precisions live here: the float kernels are lane-doubled mirrors
// of the double ones (8->16 rows per avx2 block, 16->32 per avx512
// block) with the identical skip/NaN semantics, so the float panel
// factorization is bit-identical to float unblocked elimination too.
#include "src/blas/panel_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#if defined(__x86_64__) || defined(__i386__)
#define CALU_X86 1
#include <immintrin.h>
#else
#define CALU_X86 0
#endif

namespace calu::blas::panelk {

// ----------------------------------------------- generic panel kernels ---
//
// The (j, p, i) loop order streams the rank-1 updates in ascending p with
// the row loop innermost: auto-vectorizable, and every element's chain is
// exactly that of unblocked elimination (mul-then-sub is pinned by this
// TU's -ffp-contract=off).

template <class T>
void panel_update_c(int m, int n, int kb, const T* l, int ldl, const T* u,
                    int ldu, T* c, int ldc) {
  for (int j = 0; j < n; ++j) {
    T* cj = c + static_cast<std::size_t>(j) * ldc;
    const T* uj = u + static_cast<std::size_t>(j) * ldu;
    for (int p = 0; p < kb; ++p) {
      const T up = uj[p];
      if (up == T(0)) continue;
      const T* lp = l + static_cast<std::size_t>(p) * ldl;
      for (int i = 0; i < m; ++i) cj[i] -= lp[i] * up;
    }
  }
}

template <class T>
int iamax_c(int m, const T* x) {
  int piv = 0;
  T best = std::fabs(x[0]);
  for (int i = 1; i < m; ++i) {
    const T v = std::fabs(x[i]);
    if (v > best) {
      best = v;
      piv = i;
    }
  }
  return piv;
}

template <class T>
int rank1_iamax_c(int m, const T* l, T u, T* c) {
  // A zero multiplier means the unblocked algorithm skipped the update
  // entirely; the fused form then degenerates to the plain pivot scan.
  if (u == T(0)) return iamax_c(m, c);
  for (int i = 0; i < m; ++i) c[i] -= l[i] * u;
  return iamax_c(m, c);
}

template void panel_update_c<double>(int, int, int, const double*, int,
                                     const double*, int, double*, int);
template int rank1_iamax_c<double>(int, const double*, double, double*);
template int iamax_c<double>(int, const double*);
template void panel_update_c<float>(int, int, int, const float*, int,
                                    const float*, int, float*, int);
template int rank1_iamax_c<float>(int, const float*, float, float*);
template int iamax_c<float>(int, const float*);

#if CALU_X86

// -------------------------------------------------- avx2 panel kernels ---
// Register blocking: NC columns of C resident in ymm accumulators while
// the p loop streams L — C is loaded and stored once per (row-block,
// column-quad) instead of once per rank-1.  Templating on NC lets the
// 1..3-column tail reuse the same body (lambdas must be avoided: they do
// not inherit the enclosing function's target attribute).

template <int NC>
__attribute__((target("avx2"))) void panel_cols_avx2(int m, int kb,
                                                     const double* l, int ldl,
                                                     const double* u, int ldu,
                                                     double* c, int ldc) {
  int i = 0;
  for (; i + 8 <= m; i += 8) {
    __m256d acc[NC][2];
    for (int q = 0; q < NC; ++q) {
      double* cq = c + static_cast<std::size_t>(q) * ldc + i;
      acc[q][0] = _mm256_loadu_pd(cq);
      acc[q][1] = _mm256_loadu_pd(cq + 4);
    }
    for (int p = 0; p < kb; ++p) {
      const double* lp = l + static_cast<std::size_t>(p) * ldl + i;
      const __m256d l0 = _mm256_loadu_pd(lp);
      const __m256d l1 = _mm256_loadu_pd(lp + 4);
      for (int q = 0; q < NC; ++q) {
        const double us = u[p + static_cast<std::size_t>(q) * ldu];
        if (us == 0.0) continue;  // the unblocked algorithm's skip
        const __m256d b = _mm256_set1_pd(us);
        acc[q][0] = _mm256_sub_pd(acc[q][0], _mm256_mul_pd(l0, b));
        acc[q][1] = _mm256_sub_pd(acc[q][1], _mm256_mul_pd(l1, b));
      }
    }
    for (int q = 0; q < NC; ++q) {
      double* cq = c + static_cast<std::size_t>(q) * ldc + i;
      _mm256_storeu_pd(cq, acc[q][0]);
      _mm256_storeu_pd(cq + 4, acc[q][1]);
    }
  }
  // Scalar row tail; mul-then-sub (this TU's -ffp-contract=off, and the
  // avx2-only target has no scalar FMA to contract into anyway).
  for (; i < m; ++i)
    for (int q = 0; q < NC; ++q) {
      double v = c[i + static_cast<std::size_t>(q) * ldc];
      for (int p = 0; p < kb; ++p) {
        const double us = u[p + static_cast<std::size_t>(q) * ldu];
        if (us == 0.0) continue;
        v -= l[i + static_cast<std::size_t>(p) * ldl] * us;
      }
      c[i + static_cast<std::size_t>(q) * ldc] = v;
    }
}

__attribute__((target("avx2"))) void panel_update_avx2(
    int m, int n, int kb, const double* l, int ldl, const double* u, int ldu,
    double* c, int ldc) {
  int j = 0;
  for (; j + 4 <= n; j += 4)
    panel_cols_avx2<4>(m, kb, l, ldl, u + static_cast<std::size_t>(j) * ldu,
                       ldu, c + static_cast<std::size_t>(j) * ldc, ldc);
  for (; j < n; ++j)
    panel_cols_avx2<1>(m, kb, l, ldl, u + static_cast<std::size_t>(j) * ldu,
                       ldu, c + static_cast<std::size_t>(j) * ldc, ldc);
}

__attribute__((target("avx2"))) inline __m256d abs256(__m256d v) {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), v);
}

__attribute__((target("avx2"))) inline __m256 abs256f(__m256 v) {
  return _mm256_andnot_ps(_mm256_set1_ps(-0.0f), v);
}

// Shared max-then-find-first tail: |values| are exact, so locating the
// smallest index equal to the running maximum reproduces the ascending
// strictly-greater scan of unblocked getf2 exactly — for finite data.
// The vector max reductions drop or propagate NaNs differently per ISA
// (x86 max_pd returns its second operand on unordered), so every SIMD
// search below tracks whether it saw a NaN and, if so, redoes the scan
// with the scalar reference semantics (NaN never selected, best seeded
// from element 0) — all dispatch variants then agree even on garbage.
namespace {
template <class T>
int find_first_absmax(int m, const T* x, T best) {
  for (int i = 0; i < m; ++i)
    if (std::fabs(x[i]) == best) return i;
  return 0;
}

// The iamax kernels search in one pass instead: lane q of the vector loop
// keeps the first maximum among its elements and that element's index.
// The overall first maximum is the smallest index among the lanes that
// hold the largest value, then the scalar tail x[i..m) (all later
// indices) can only replace it when strictly greater.  A NaN in the
// tail sends the search to the scalar reference like one in the vectors.
template <class T, class I>
int first_absmax_tail(int m, const T* x, int i, const T* vals, const I* idx,
                      int lanes) {
  T best = vals[0];
  int piv = static_cast<int>(idx[0]);
  for (int q = 1; q < lanes; ++q)
    if (vals[q] > best || (vals[q] == best && idx[q] < piv)) {
      best = vals[q];
      piv = static_cast<int>(idx[q]);
    }
  for (; i < m; ++i) {
    const T v = std::fabs(x[i]);
    if (std::isnan(v)) return iamax_c(m, x);
    if (v > best) {
      best = v;
      piv = i;
    }
  }
  return piv;
}
}  // namespace

__attribute__((target("avx2"))) int rank1_iamax_avx2(int m, const double* l,
                                                     double u, double* c) {
  if (u == 0.0) return iamax_avx2(m, c);
  const __m256d b = _mm256_set1_pd(u);
  __m256d vmax = _mm256_setzero_pd();
  __m256d unord = _mm256_setzero_pd();
  int i = 0;
  for (; i + 4 <= m; i += 4) {
    const __m256d v =
        _mm256_sub_pd(_mm256_loadu_pd(c + i),
                      _mm256_mul_pd(_mm256_loadu_pd(l + i), b));
    _mm256_storeu_pd(c + i, v);
    unord = _mm256_or_pd(unord, _mm256_cmp_pd(v, v, _CMP_UNORD_Q));
    vmax = _mm256_max_pd(vmax, abs256(v));
  }
  bool saw_nan = _mm256_movemask_pd(unord) != 0;
  double tmp[4];
  _mm256_storeu_pd(tmp, vmax);
  double best = std::max(std::max(tmp[0], tmp[1]), std::max(tmp[2], tmp[3]));
  for (; i < m; ++i) {
    c[i] -= l[i] * u;
    saw_nan = saw_nan || std::isnan(c[i]);
    best = std::max(best, std::fabs(c[i]));
  }
  if (saw_nan) return iamax_c(m, c);
  return find_first_absmax(m, c, best);
}

__attribute__((target("avx2"))) int iamax_avx2(int m, const double* x) {
  if (m < 4) return iamax_c(m, x);
  // Lane q keeps the first maximum of x[q], x[q+4], ... and its index
  // (indices as doubles, exact below 2^53).
  __m256d vmax = abs256(_mm256_loadu_pd(x));
  __m256d unord = _mm256_cmp_pd(vmax, vmax, _CMP_UNORD_Q);
  __m256d cur = _mm256_setr_pd(0.0, 1.0, 2.0, 3.0), vidx = cur;
  int i = 4;
  for (; i + 4 <= m; i += 4) {
    const __m256d v = abs256(_mm256_loadu_pd(x + i));
    cur = _mm256_add_pd(cur, _mm256_set1_pd(4.0));
    unord = _mm256_or_pd(unord, _mm256_cmp_pd(v, v, _CMP_UNORD_Q));
    const __m256d gt = _mm256_cmp_pd(v, vmax, _CMP_GT_OQ);
    vmax = _mm256_blendv_pd(vmax, v, gt);
    vidx = _mm256_blendv_pd(vidx, cur, gt);
  }
  if (_mm256_movemask_pd(unord) != 0) return iamax_c(m, x);
  double vals[4], idx[4];
  _mm256_storeu_pd(vals, vmax);
  _mm256_storeu_pd(idx, vidx);
  return first_absmax_tail(m, x, i, vals, idx, 4);
}

// ------------------------------------------- avx2 float panel kernels ---
// Lane-doubled mirror of the double kernels: 16 rows per ymm block pair.

template <int NC>
__attribute__((target("avx2"))) void panel_cols_avx2f(int m, int kb,
                                                      const float* l, int ldl,
                                                      const float* u, int ldu,
                                                      float* c, int ldc) {
  int i = 0;
  for (; i + 16 <= m; i += 16) {
    __m256 acc[NC][2];
    for (int q = 0; q < NC; ++q) {
      float* cq = c + static_cast<std::size_t>(q) * ldc + i;
      acc[q][0] = _mm256_loadu_ps(cq);
      acc[q][1] = _mm256_loadu_ps(cq + 8);
    }
    for (int p = 0; p < kb; ++p) {
      const float* lp = l + static_cast<std::size_t>(p) * ldl + i;
      const __m256 l0 = _mm256_loadu_ps(lp);
      const __m256 l1 = _mm256_loadu_ps(lp + 8);
      for (int q = 0; q < NC; ++q) {
        const float us = u[p + static_cast<std::size_t>(q) * ldu];
        if (us == 0.0f) continue;  // the unblocked algorithm's skip
        const __m256 b = _mm256_set1_ps(us);
        acc[q][0] = _mm256_sub_ps(acc[q][0], _mm256_mul_ps(l0, b));
        acc[q][1] = _mm256_sub_ps(acc[q][1], _mm256_mul_ps(l1, b));
      }
    }
    for (int q = 0; q < NC; ++q) {
      float* cq = c + static_cast<std::size_t>(q) * ldc + i;
      _mm256_storeu_ps(cq, acc[q][0]);
      _mm256_storeu_ps(cq + 8, acc[q][1]);
    }
  }
  for (; i < m; ++i)
    for (int q = 0; q < NC; ++q) {
      float v = c[i + static_cast<std::size_t>(q) * ldc];
      for (int p = 0; p < kb; ++p) {
        const float us = u[p + static_cast<std::size_t>(q) * ldu];
        if (us == 0.0f) continue;
        v -= l[i + static_cast<std::size_t>(p) * ldl] * us;
      }
      c[i + static_cast<std::size_t>(q) * ldc] = v;
    }
}

__attribute__((target("avx2"))) void panel_update_avx2(
    int m, int n, int kb, const float* l, int ldl, const float* u, int ldu,
    float* c, int ldc) {
  int j = 0;
  for (; j + 4 <= n; j += 4)
    panel_cols_avx2f<4>(m, kb, l, ldl, u + static_cast<std::size_t>(j) * ldu,
                        ldu, c + static_cast<std::size_t>(j) * ldc, ldc);
  for (; j < n; ++j)
    panel_cols_avx2f<1>(m, kb, l, ldl, u + static_cast<std::size_t>(j) * ldu,
                        ldu, c + static_cast<std::size_t>(j) * ldc, ldc);
}

__attribute__((target("avx2"))) int rank1_iamax_avx2(int m, const float* l,
                                                     float u, float* c) {
  if (u == 0.0f) return iamax_avx2(m, c);
  const __m256 b = _mm256_set1_ps(u);
  __m256 vmax = _mm256_setzero_ps();
  __m256 unord = _mm256_setzero_ps();
  int i = 0;
  for (; i + 8 <= m; i += 8) {
    const __m256 v = _mm256_sub_ps(_mm256_loadu_ps(c + i),
                                   _mm256_mul_ps(_mm256_loadu_ps(l + i), b));
    _mm256_storeu_ps(c + i, v);
    unord = _mm256_or_ps(unord, _mm256_cmp_ps(v, v, _CMP_UNORD_Q));
    vmax = _mm256_max_ps(vmax, abs256f(v));
  }
  bool saw_nan = _mm256_movemask_ps(unord) != 0;
  float tmp[8];
  _mm256_storeu_ps(tmp, vmax);
  float best = tmp[0];
  for (int q = 1; q < 8; ++q) best = std::max(best, tmp[q]);
  for (; i < m; ++i) {
    c[i] -= l[i] * u;
    saw_nan = saw_nan || std::isnan(c[i]);
    best = std::max(best, std::fabs(c[i]));
  }
  if (saw_nan) return iamax_c(m, c);
  return find_first_absmax(m, c, best);
}

__attribute__((target("avx2"))) int iamax_avx2(int m, const float* x) {
  if (m < 8) return iamax_c(m, x);
  __m256 vmax = abs256f(_mm256_loadu_ps(x));
  __m256 unord = _mm256_cmp_ps(vmax, vmax, _CMP_UNORD_Q);
  __m256i cur = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7), vidx = cur;
  int i = 8;
  for (; i + 8 <= m; i += 8) {
    const __m256 v = abs256f(_mm256_loadu_ps(x + i));
    cur = _mm256_add_epi32(cur, _mm256_set1_epi32(8));
    unord = _mm256_or_ps(unord, _mm256_cmp_ps(v, v, _CMP_UNORD_Q));
    const __m256 gt = _mm256_cmp_ps(v, vmax, _CMP_GT_OQ);
    vmax = _mm256_blendv_ps(vmax, v, gt);
    vidx = _mm256_blendv_epi8(vidx, cur, _mm256_castps_si256(gt));
  }
  if (_mm256_movemask_ps(unord) != 0) return iamax_c(m, x);
  float vals[8];
  int idx[8];
  _mm256_storeu_ps(vals, vmax);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(idx), vidx);
  return first_absmax_tail(m, x, i, vals, idx, 8);
}

// ------------------------------------------------ avx512 panel kernels ---

template <int NC>
__attribute__((target("avx512f"))) void panel_cols_avx512(
    int m, int kb, const double* l, int ldl, const double* u, int ldu,
    double* c, int ldc) {
  int i = 0;
  for (; i + 16 <= m; i += 16) {
    __m512d acc[NC][2];
    for (int q = 0; q < NC; ++q) {
      double* cq = c + static_cast<std::size_t>(q) * ldc + i;
      acc[q][0] = _mm512_loadu_pd(cq);
      acc[q][1] = _mm512_loadu_pd(cq + 8);
    }
    for (int p = 0; p < kb; ++p) {
      const double* lp = l + static_cast<std::size_t>(p) * ldl + i;
      const __m512d l0 = _mm512_loadu_pd(lp);
      const __m512d l1 = _mm512_loadu_pd(lp + 8);
      for (int q = 0; q < NC; ++q) {
        const double us = u[p + static_cast<std::size_t>(q) * ldu];
        if (us == 0.0) continue;  // the unblocked algorithm's skip
        const __m512d b = _mm512_set1_pd(us);
        acc[q][0] = _mm512_sub_pd(acc[q][0], _mm512_mul_pd(l0, b));
        acc[q][1] = _mm512_sub_pd(acc[q][1], _mm512_mul_pd(l1, b));
      }
    }
    for (int q = 0; q < NC; ++q) {
      double* cq = c + static_cast<std::size_t>(q) * ldc + i;
      _mm512_storeu_pd(cq, acc[q][0]);
      _mm512_storeu_pd(cq + 8, acc[q][1]);
    }
  }
  // Masked row tail, 8 lanes at a time.
  for (; i < m; i += 8) {
    const int rem = m - i < 8 ? m - i : 8;
    const __mmask8 k = static_cast<__mmask8>((1u << rem) - 1u);
    const __m512d zero = _mm512_setzero_pd();
    __m512d acc[NC];
    for (int q = 0; q < NC; ++q)
      acc[q] = _mm512_mask_loadu_pd(
          zero, k, c + static_cast<std::size_t>(q) * ldc + i);
    for (int p = 0; p < kb; ++p) {
      const __m512d l0 = _mm512_mask_loadu_pd(
          zero, k, l + static_cast<std::size_t>(p) * ldl + i);
      for (int q = 0; q < NC; ++q) {
        const double us = u[p + static_cast<std::size_t>(q) * ldu];
        if (us == 0.0) continue;
        const __m512d b = _mm512_set1_pd(us);
        acc[q] = _mm512_sub_pd(acc[q], _mm512_mul_pd(l0, b));
      }
    }
    for (int q = 0; q < NC; ++q)
      _mm512_mask_storeu_pd(c + static_cast<std::size_t>(q) * ldc + i, k,
                            acc[q]);
  }
}

__attribute__((target("avx512f"))) void panel_update_avx512(
    int m, int n, int kb, const double* l, int ldl, const double* u, int ldu,
    double* c, int ldc) {
  int j = 0;
  for (; j + 4 <= n; j += 4)
    panel_cols_avx512<4>(m, kb, l, ldl, u + static_cast<std::size_t>(j) * ldu,
                         ldu, c + static_cast<std::size_t>(j) * ldc, ldc);
  for (; j < n; ++j)
    panel_cols_avx512<1>(m, kb, l, ldl, u + static_cast<std::size_t>(j) * ldu,
                         ldu, c + static_cast<std::size_t>(j) * ldc, ldc);
}

__attribute__((target("avx512f"))) int rank1_iamax_avx512(int m,
                                                          const double* l,
                                                          double u,
                                                          double* c) {
  if (u == 0.0) return iamax_avx512(m, c);
  const __m512d b = _mm512_set1_pd(u);
  __m512d vmax = _mm512_setzero_pd();
  __mmask8 unord = 0;
  int i = 0;
  for (; i + 8 <= m; i += 8) {
    const __m512d v =
        _mm512_sub_pd(_mm512_loadu_pd(c + i),
                      _mm512_mul_pd(_mm512_loadu_pd(l + i), b));
    _mm512_storeu_pd(c + i, v);
    unord |= _mm512_cmp_pd_mask(v, v, _CMP_UNORD_Q);
    // masked form with explicit src: GCC-12's unmasked wrapper warns on
    // its internal undefined passthru
    vmax = _mm512_mask_max_pd(vmax, 0xFF, vmax, _mm512_abs_pd(v));
  }
  bool saw_nan = unord != 0;
  double tmp[8];
  _mm512_storeu_pd(tmp, vmax);
  double best = tmp[0];
  for (int q = 1; q < 8; ++q) best = std::max(best, tmp[q]);
  for (; i < m; ++i) {
    c[i] -= l[i] * u;
    saw_nan = saw_nan || std::isnan(c[i]);
    best = std::max(best, std::fabs(c[i]));
  }
  if (saw_nan) return iamax_c(m, c);
  return find_first_absmax(m, c, best);
}

__attribute__((target("avx512f"))) int iamax_avx512(int m, const double* x) {
  if (m < 8) return iamax_c(m, x);
  __m512d vmax = _mm512_abs_pd(_mm512_loadu_pd(x));
  __mmask8 unord = _mm512_cmp_pd_mask(vmax, vmax, _CMP_UNORD_Q);
  __m512i cur = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7), vidx = cur;
  int i = 8;
  for (; i + 8 <= m; i += 8) {
    const __m512d v = _mm512_abs_pd(_mm512_loadu_pd(x + i));
    cur = _mm512_add_epi64(cur, _mm512_set1_epi64(8));
    unord |= _mm512_cmp_pd_mask(v, v, _CMP_UNORD_Q);
    const __mmask8 gt = _mm512_cmp_pd_mask(v, vmax, _CMP_GT_OQ);
    vmax = _mm512_mask_mov_pd(vmax, gt, v);
    vidx = _mm512_mask_mov_epi64(vidx, gt, cur);
  }
  if (unord != 0) return iamax_c(m, x);
  double vals[8];
  long long idx[8];
  _mm512_storeu_pd(vals, vmax);
  _mm512_storeu_si512(idx, vidx);
  return first_absmax_tail(m, x, i, vals, idx, 8);
}

// ---------------------------------------- avx512 float panel kernels ---
// 32 rows per zmm block pair, masked 16-lane tail.

template <int NC>
__attribute__((target("avx512f"))) void panel_cols_avx512f(
    int m, int kb, const float* l, int ldl, const float* u, int ldu, float* c,
    int ldc) {
  int i = 0;
  for (; i + 32 <= m; i += 32) {
    __m512 acc[NC][2];
    for (int q = 0; q < NC; ++q) {
      float* cq = c + static_cast<std::size_t>(q) * ldc + i;
      acc[q][0] = _mm512_loadu_ps(cq);
      acc[q][1] = _mm512_loadu_ps(cq + 16);
    }
    for (int p = 0; p < kb; ++p) {
      const float* lp = l + static_cast<std::size_t>(p) * ldl + i;
      const __m512 l0 = _mm512_loadu_ps(lp);
      const __m512 l1 = _mm512_loadu_ps(lp + 16);
      for (int q = 0; q < NC; ++q) {
        const float us = u[p + static_cast<std::size_t>(q) * ldu];
        if (us == 0.0f) continue;  // the unblocked algorithm's skip
        const __m512 b = _mm512_set1_ps(us);
        acc[q][0] = _mm512_sub_ps(acc[q][0], _mm512_mul_ps(l0, b));
        acc[q][1] = _mm512_sub_ps(acc[q][1], _mm512_mul_ps(l1, b));
      }
    }
    for (int q = 0; q < NC; ++q) {
      float* cq = c + static_cast<std::size_t>(q) * ldc + i;
      _mm512_storeu_ps(cq, acc[q][0]);
      _mm512_storeu_ps(cq + 16, acc[q][1]);
    }
  }
  // Masked row tail, 16 lanes at a time.
  for (; i < m; i += 16) {
    const int rem = m - i < 16 ? m - i : 16;
    const __mmask16 k = static_cast<__mmask16>((1u << rem) - 1u);
    const __m512 zero = _mm512_setzero_ps();
    __m512 acc[NC];
    for (int q = 0; q < NC; ++q)
      acc[q] = _mm512_mask_loadu_ps(
          zero, k, c + static_cast<std::size_t>(q) * ldc + i);
    for (int p = 0; p < kb; ++p) {
      const __m512 l0 = _mm512_mask_loadu_ps(
          zero, k, l + static_cast<std::size_t>(p) * ldl + i);
      for (int q = 0; q < NC; ++q) {
        const float us = u[p + static_cast<std::size_t>(q) * ldu];
        if (us == 0.0f) continue;
        const __m512 b = _mm512_set1_ps(us);
        acc[q] = _mm512_sub_ps(acc[q], _mm512_mul_ps(l0, b));
      }
    }
    for (int q = 0; q < NC; ++q)
      _mm512_mask_storeu_ps(c + static_cast<std::size_t>(q) * ldc + i, k,
                            acc[q]);
  }
}

__attribute__((target("avx512f"))) void panel_update_avx512(
    int m, int n, int kb, const float* l, int ldl, const float* u, int ldu,
    float* c, int ldc) {
  int j = 0;
  for (; j + 4 <= n; j += 4)
    panel_cols_avx512f<4>(m, kb, l, ldl,
                          u + static_cast<std::size_t>(j) * ldu, ldu,
                          c + static_cast<std::size_t>(j) * ldc, ldc);
  for (; j < n; ++j)
    panel_cols_avx512f<1>(m, kb, l, ldl,
                          u + static_cast<std::size_t>(j) * ldu, ldu,
                          c + static_cast<std::size_t>(j) * ldc, ldc);
}

__attribute__((target("avx512f"))) int rank1_iamax_avx512(int m,
                                                          const float* l,
                                                          float u, float* c) {
  if (u == 0.0f) return iamax_avx512(m, c);
  const __m512 b = _mm512_set1_ps(u);
  __m512 vmax = _mm512_setzero_ps();
  __mmask16 unord = 0;
  int i = 0;
  for (; i + 16 <= m; i += 16) {
    const __m512 v = _mm512_sub_ps(_mm512_loadu_ps(c + i),
                                   _mm512_mul_ps(_mm512_loadu_ps(l + i), b));
    _mm512_storeu_ps(c + i, v);
    unord |= _mm512_cmp_ps_mask(v, v, _CMP_UNORD_Q);
    // masked form with explicit src: GCC-12's unmasked wrapper warns on
    // its internal undefined passthru
    vmax = _mm512_mask_max_ps(vmax, 0xFFFF, vmax, _mm512_abs_ps(v));
  }
  bool saw_nan = unord != 0;
  float tmp[16];
  _mm512_storeu_ps(tmp, vmax);
  float best = tmp[0];
  for (int q = 1; q < 16; ++q) best = std::max(best, tmp[q]);
  for (; i < m; ++i) {
    c[i] -= l[i] * u;
    saw_nan = saw_nan || std::isnan(c[i]);
    best = std::max(best, std::fabs(c[i]));
  }
  if (saw_nan) return iamax_c(m, c);
  return find_first_absmax(m, c, best);
}

__attribute__((target("avx512f"))) int iamax_avx512(int m, const float* x) {
  if (m < 16) return iamax_c(m, x);
  __m512 vmax = _mm512_abs_ps(_mm512_loadu_ps(x));
  __mmask16 unord = _mm512_cmp_ps_mask(vmax, vmax, _CMP_UNORD_Q);
  __m512i cur = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                  13, 14, 15),
          vidx = cur;
  int i = 16;
  for (; i + 16 <= m; i += 16) {
    const __m512 v = _mm512_abs_ps(_mm512_loadu_ps(x + i));
    cur = _mm512_add_epi32(cur, _mm512_set1_epi32(16));
    unord |= _mm512_cmp_ps_mask(v, v, _CMP_UNORD_Q);
    const __mmask16 gt = _mm512_cmp_ps_mask(v, vmax, _CMP_GT_OQ);
    vmax = _mm512_mask_mov_ps(vmax, gt, v);
    vidx = _mm512_mask_mov_epi32(vidx, gt, cur);
  }
  if (unord != 0) return iamax_c(m, x);
  float vals[16];
  int idx[16];
  _mm512_storeu_ps(vals, vmax);
  _mm512_storeu_si512(idx, vidx);
  return first_absmax_tail(m, x, i, vals, idx, 16);
}

#endif  // CALU_X86

}  // namespace calu::blas::panelk
