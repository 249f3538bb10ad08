// blas_conformance_test.cpp — exhaustive gemm, trsm and panel_fma
// conformance sweeps of every dispatched micro-kernel variant against
// naive references.
//
// The dispatch table (microkernel.h) is exercised variant by variant via
// select_kernel(), so a single run on AVX-512 hardware covers the
// avx512, avx2 and generic kernels; on older hardware the unavailable
// variants simply are not in the table.  CI additionally runs this binary
// with CALU_KERNEL=generic to pin the portable path.
//
// Sizes stress every edge in the blocked decomposition: all ragged sizes
// 1..9, the register-strip boundaries mr-1/mr/mr+1, and the cache-block
// boundaries mc+-1 / kc+-1 / nc+-1 (one dimension at a time — the full
// cross at cache-block scale would be minutes of naive-loop time for no
// extra coverage).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/blas/blas.h"
#include "src/blas/microkernel.h"
#include "src/layout/matrix.h"
#include "tests/test_util.h"

namespace calu {
namespace {

using blas::Trans;
using layout::Matrix;

// Reference: the textbook triple loop, kept independent of the kernel
// under test.
void ref_gemm(Trans ta, Trans tb, int m, int n, int k, double alpha,
              const Matrix& a, const Matrix& b, double beta, Matrix& c) {
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) {
      double s = 0.0;
      for (int p = 0; p < k; ++p) {
        const double av = ta == Trans::No ? a(i, p) : a(p, i);
        const double bv = tb == Trans::No ? b(p, j) : b(j, p);
        s += av * bv;
      }
      c(i, j) = alpha * s + beta * c(i, j);
    }
}

struct TransCase {
  Trans ta, tb;
};
const TransCase kTrans[] = {
    {Trans::No, Trans::No}, {Trans::No, Trans::Yes}, {Trans::Yes, Trans::No}};
const double kScalars[] = {0.0, 1.0, -0.5};

// One gemm-vs-reference check for the currently selected kernel.  Two
// paths are checked against the reference: the gemm() front end (which
// may legitimately take its naive-fallback shortcut for tiny problems)
// and pack + gemm_packed, which drives the register kernel — including
// its partial mr/nr edge write-backs — at EVERY size, below the fallback
// threshold too.
void check_case(Trans ta, Trans tb, int m, int n, int k, double alpha,
                double beta, std::uint64_t seed) {
  const Matrix a = ta == Trans::No ? Matrix::random(m, k, seed)
                                   : Matrix::random(k, m, seed);
  const Matrix b = tb == Trans::No ? Matrix::random(k, n, seed + 1)
                                   : Matrix::random(n, k, seed + 1);
  const Matrix c0 = Matrix::random(m, n, seed + 2);
  Matrix want = c0;
  ref_gemm(ta, tb, m, n, k, alpha, a, b, beta, want);
  // Entries are in [-1,1]: |result| <= |alpha| k + |beta|, and each of the
  // O(k) roundings is at most eps relative.
  const double tol = 1e-15 * (std::abs(alpha) * k + 1.0) * (k + 4);
  const auto check = [&](const Matrix& got, const char* path) {
    double worst = 0.0;
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < m; ++i)
        worst = std::max(worst, std::abs(got(i, j) - want(i, j)));
    ASSERT_LE(worst, tol) << path << " m=" << m << " n=" << n << " k=" << k
                          << " alpha=" << alpha << " beta=" << beta
                          << " ta=" << (ta == Trans::Yes) << " tb="
                          << (tb == Trans::Yes) << " kernel="
                          << blas::active_kernel().name;
  };

  Matrix c = c0;
  blas::gemm(ta, tb, m, n, k, alpha, a.data(), a.ld(), b.data(), b.ld(),
             beta, c.data(), c.ld());
  check(c, "gemm");

  c = c0;
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) c(i, j) *= beta;
  std::vector<double> ap(blas::packed_a_size(m, k));
  std::vector<double> bp(blas::packed_b_size(k, n));
  blas::gemm_pack_a(ta, m, k, a.data(), a.ld(), ap.data());
  blas::gemm_pack_b(tb, k, n, b.data(), b.ld(), bp.data());
  blas::gemm_packed(m, n, k, alpha, ap.data(), bp.data(), c.data(), c.ld());
  check(c, "gemm_packed");
}

class KernelConformance : public test::KernelVariantTest {};

TEST_P(KernelConformance, RaggedAndStripBoundarySweep) {
  const blas::MicroKernel& mk = blas::active_kernel();
  std::vector<int> sizes;
  for (int v = 1; v <= 9; ++v) sizes.push_back(v);
  for (int v : {mk.mr - 1, mk.mr, mk.mr + 1, mk.nr - 1, mk.nr, mk.nr + 1})
    if (v >= 1) sizes.push_back(v);
  std::sort(sizes.begin(), sizes.end());
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());

  std::uint64_t seed = 100;
  for (const TransCase& tc : kTrans)
    for (int m : sizes)
      for (int n : sizes)
        for (int k : sizes)
          for (double alpha : kScalars)
            for (double beta : kScalars)
              check_case(tc.ta, tc.tb, m, n, k, alpha, beta, ++seed);
}

TEST_P(KernelConformance, CacheBlockBoundaries) {
  const blas::MicroKernel& mk = blas::active_kernel();
  std::uint64_t seed = 9000;
  // mc boundary (A row-panel split) and kc boundary (depth split) —
  // m x k at the corners of the first cache block, n one strip wide.
  for (int m : {mk.mc - 1, mk.mc, mk.mc + 1})
    for (int k : {mk.kc - 1, mk.kc + 1})
      for (const TransCase& tc : kTrans)
        check_case(tc.ta, tc.tb, m, 2 * mk.nr, k, -0.5, 1.0, ++seed);
  // nc boundary (B column-panel split), kept cheap with tiny m and k.
  for (int n : {mk.nc - 1, mk.nc + 1})
    for (const TransCase& tc : kTrans)
      check_case(tc.ta, tc.tb, 9, n, 9, 1.0, -0.5, ++seed);
  // kc boundary through the pre-packed entry points used by the S path.
  for (int k : {mk.kc - 1, mk.kc, mk.kc + 1, 2 * mk.kc + 3}) {
    const int m = 3 * mk.mr + 1, n = 2 * mk.nr + 1;
    const Matrix a = Matrix::random(m, k, ++seed);
    const Matrix b = Matrix::random(k, n, ++seed);
    Matrix c = Matrix::random(m, n, ++seed);
    Matrix want = c;
    ref_gemm(Trans::No, Trans::No, m, n, k, -1.0, a, b, 1.0, want);
    std::vector<double> ap(blas::packed_a_size(m, k));
    std::vector<double> bp(blas::packed_b_size(k, n));
    blas::gemm_pack_a(Trans::No, m, k, a.data(), a.ld(), ap.data());
    blas::gemm_pack_b(Trans::No, k, n, b.data(), b.ld(), bp.data());
    blas::gemm_packed(m, n, k, -1.0, ap.data(), bp.data(), c.data(), c.ld());
    const double tol = 1e-15 * (k + 1.0) * (k + 4);
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < m; ++i)
        ASSERT_NEAR(c(i, j), want(i, j), tol) << "k=" << k;
  }
}

// ---------------------------------------------------------------- TRSM ---
//
// The blocked trsm recasts its diagonal-block solves as multiplies by
// inverted leaf blocks and its couplings as panel_fma/gemm calls, per
// dispatch variant.  Sweep all 16 side/uplo/trans/diag combinations at
// the structural boundary sizes — the inverted-leaf width (kTrsmLeafNB),
// the substitution/inverse threshold (32 right-hand sides), and the
// substitution-path block (kTrsmBlock) — against a naive dense
// substitution reference.  Off-diagonals are scaled by 0.5/d so every
// triangle (unit ones included) stays well conditioned: the sweep then
// compares SOLUTIONS elementwise, which pins the blocked decomposition
// itself instead of hiding indexing bugs behind a loose residual.

using blas::Diag;
using blas::Side;
using blas::UpLo;

void ref_trsm(Side side, UpLo uplo, Trans trans, Diag diag, int m, int n,
              double alpha, const double* t, int ldt, double* b, int ldb) {
  const int d = side == Side::Left ? m : n;
  // Densify op(T), unit diagonal applied.
  std::vector<double> tf(static_cast<std::size_t>(d) * d, 0.0);
  for (int j = 0; j < d; ++j)
    for (int i = 0; i < d; ++i) {
      const bool in_tri = uplo == UpLo::Lower ? i >= j : i <= j;
      if (!in_tri) continue;
      double v = t[i + static_cast<std::size_t>(j) * ldt];
      if (i == j && diag == Diag::Unit) v = 1.0;
      if (trans == Trans::Yes)
        tf[j + static_cast<std::size_t>(i) * d] = v;
      else
        tf[i + static_cast<std::size_t>(j) * d] = v;
    }
  const bool lower = (uplo == UpLo::Lower) != (trans == Trans::Yes);
  for (int j = 0; j < n; ++j) {
    double* bj = b + static_cast<std::size_t>(j) * ldb;
    for (int i = 0; i < m; ++i) bj[i] *= alpha;
  }
  if (side == Side::Left) {
    for (int j = 0; j < n; ++j) {
      double* bj = b + static_cast<std::size_t>(j) * ldb;
      if (lower) {
        for (int i = 0; i < d; ++i) {
          double s = bj[i];
          for (int p = 0; p < i; ++p)
            s -= tf[i + static_cast<std::size_t>(p) * d] * bj[p];
          bj[i] = s / tf[i + static_cast<std::size_t>(i) * d];
        }
      } else {
        for (int i = d - 1; i >= 0; --i) {
          double s = bj[i];
          for (int p = i + 1; p < d; ++p)
            s -= tf[i + static_cast<std::size_t>(p) * d] * bj[p];
          bj[i] = s / tf[i + static_cast<std::size_t>(i) * d];
        }
      }
    }
  } else {
    // X * TF = B: columns of X resolve left-to-right for upper TF,
    // right-to-left for lower.
    const int j0 = lower ? d - 1 : 0;
    const int j1 = lower ? -1 : d;
    const int step = lower ? -1 : 1;
    for (int j = j0; j != j1; j += step) {
      double* bj = b + static_cast<std::size_t>(j) * ldb;
      for (int p = j0; p != j; p += step) {
        const double tpj = tf[p + static_cast<std::size_t>(j) * d];
        if (tpj == 0.0) continue;
        const double* bp = b + static_cast<std::size_t>(p) * ldb;
        for (int i = 0; i < m; ++i) bj[i] -= bp[i] * tpj;
      }
      const double dd = tf[j + static_cast<std::size_t>(j) * d];
      for (int i = 0; i < m; ++i) bj[i] /= dd;
    }
  }
}

TEST_P(KernelConformance, TrsmAllCasesBoundarySweep) {
  const int kLeaf = blas::kTrsmLeafNB;
  const int kBlk = blas::kTrsmBlock;
  const std::vector<int> tri_sizes = {1,  kLeaf - 1, kLeaf,    kLeaf + 1,
                                      31, 33,        kBlk - 1, kBlk,
                                      kBlk + 1,      257};
  // Right-hand-side counts straddling the substitution/inverse threshold.
  const std::vector<int> rhs_sizes = {1, 31, 64};
  std::uint64_t seed = 50000;
  for (Side side : {Side::Left, Side::Right})
    for (UpLo uplo : {UpLo::Lower, UpLo::Upper})
      for (Trans trans : {Trans::No, Trans::Yes})
        for (Diag diag : {Diag::Unit, Diag::NonUnit})
          for (int d : tri_sizes)
            for (int nrhs : rhs_sizes) {
              const int m = side == Side::Left ? d : nrhs;
              const int n = side == Side::Left ? nrhs : d;
              const double alpha = (d + nrhs) % 2 ? 1.0 : -0.5;
              const Matrix t0 = Matrix::random(d, d, ++seed);
              Matrix t = t0;
              for (int j = 0; j < d; ++j)
                for (int i = 0; i < d; ++i) t(i, j) = t0(i, j) * 0.5 / d;
              for (int i = 0; i < d; ++i) t(i, i) = 3.0 + i % 5;
              const Matrix b0 = Matrix::random(m, n, ++seed);
              Matrix x = b0;
              blas::trsm(side, uplo, trans, diag, m, n, alpha, t.data(),
                         t.ld(), x.data(), x.ld());
              Matrix want = b0;
              ref_trsm(side, uplo, trans, diag, m, n, alpha, t.data(),
                       t.ld(), want.data(), want.ld());
              double diff = 0.0, xmax = 0.0;
              for (int j = 0; j < n; ++j)
                for (int i = 0; i < m; ++i) {
                  diff = std::max(diff, std::abs(x(i, j) - want(i, j)));
                  xmax = std::max(xmax, std::abs(want(i, j)));
                }
              ASSERT_LE(diff, 1e-11 * d * (1.0 + xmax))
                  << "side=" << (side == Side::Right) << " uplo="
                  << (uplo == UpLo::Upper) << " trans="
                  << (trans == Trans::Yes) << " diag="
                  << (diag == Diag::NonUnit) << " d=" << d << " nrhs="
                  << nrhs << " kernel=" << blas::active_kernel().name;
            }
}

// ------------------------------------------------------------- float32 ---
//
// The same sweeps against the float kernel table (mixed-precision layer).
// select_kernel() pins both precisions together, so the fixture's variant
// parameter governs these too.  References are computed in DOUBLE on the
// float inputs — the float kernels are then held to forward-error bounds
// scaled by eps_f instead of eps_d.  The double sweeps above are
// untouched: float coverage is additive.

/// Column-major float matrix seeded from Matrix::random (exact
/// double -> float rounding of the same deterministic values).
struct FMat {
  int rows = 0, cols = 0;
  std::vector<float> v;
  FMat() = default;
  FMat(int m, int n) : rows(m), cols(n), v(static_cast<std::size_t>(m) * n) {}
  static FMat random(int m, int n, std::uint64_t seed) {
    const Matrix d = Matrix::random(m, n, seed);
    FMat f(m, n);
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < m; ++i) f(i, j) = static_cast<float>(d(i, j));
    return f;
  }
  float& operator()(int i, int j) {
    return v[i + static_cast<std::size_t>(j) * rows];
  }
  float operator()(int i, int j) const {
    return v[i + static_cast<std::size_t>(j) * rows];
  }
  float* data() { return v.data(); }
  const float* data() const { return v.data(); }
  int ld() const { return rows; }
};

void ref_gemm_f(Trans ta, Trans tb, int m, int n, int k, float alpha,
                const FMat& a, const FMat& b, float beta, FMat& c) {
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) {
      double s = 0.0;
      for (int p = 0; p < k; ++p) {
        const double av = ta == Trans::No ? a(i, p) : a(p, i);
        const double bv = tb == Trans::No ? b(p, j) : b(j, p);
        s += av * bv;
      }
      c(i, j) = static_cast<float>(alpha * s + double(beta) * c(i, j));
    }
}

void check_case_f(Trans ta, Trans tb, int m, int n, int k, float alpha,
                  float beta, std::uint64_t seed) {
  const FMat a = ta == Trans::No ? FMat::random(m, k, seed)
                                 : FMat::random(k, m, seed);
  const FMat b = tb == Trans::No ? FMat::random(k, n, seed + 1)
                                 : FMat::random(n, k, seed + 1);
  const FMat c0 = FMat::random(m, n, seed + 2);
  FMat want = c0;
  ref_gemm_f(ta, tb, m, n, k, alpha, a, b, beta, want);
  // Same error model as the double sweep with eps_f in place of eps_d.
  const double tol = 1.2e-7 * (std::abs(double(alpha)) * k + 1.0) * (k + 4);
  const auto check = [&](const FMat& got, const char* path) {
    double worst = 0.0;
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < m; ++i)
        worst = std::max(worst, std::abs(double(got(i, j)) - want(i, j)));
    ASSERT_LE(worst, tol) << path << " m=" << m << " n=" << n << " k=" << k
                          << " alpha=" << alpha << " beta=" << beta
                          << " ta=" << (ta == Trans::Yes) << " tb="
                          << (tb == Trans::Yes) << " kernel="
                          << blas::active_kernel().name << " (float)";
  };

  FMat c = c0;
  blas::gemm(ta, tb, m, n, k, alpha, a.data(), a.ld(), b.data(), b.ld(),
             beta, c.data(), c.ld());
  check(c, "gemm");

  c = c0;
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) c(i, j) *= beta;
  std::vector<float> ap(blas::packed_a_size<float>(m, k));
  std::vector<float> bp(blas::packed_b_size<float>(k, n));
  blas::gemm_pack_a(ta, m, k, a.data(), a.ld(), ap.data());
  blas::gemm_pack_b(tb, k, n, b.data(), b.ld(), bp.data());
  blas::gemm_packed(m, n, k, alpha, ap.data(), bp.data(), c.data(), c.ld());
  check(c, "gemm_packed");
}

TEST_P(KernelConformance, FloatRaggedAndStripBoundarySweep) {
  const blas::MicroKernelT<float>& mk = blas::active_kernel_t<float>();
  std::vector<int> sizes;
  for (int v = 1; v <= 9; ++v) sizes.push_back(v);
  for (int v : {mk.mr - 1, mk.mr, mk.mr + 1, mk.nr - 1, mk.nr, mk.nr + 1})
    if (v >= 1) sizes.push_back(v);
  std::sort(sizes.begin(), sizes.end());
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());

  std::uint64_t seed = 700;
  for (const TransCase& tc : kTrans)
    for (int m : sizes)
      for (int n : sizes)
        for (int k : sizes)
          for (double alpha : kScalars)
            for (double beta : kScalars)
              check_case_f(tc.ta, tc.tb, m, n, k, static_cast<float>(alpha),
                           static_cast<float>(beta), ++seed);
}

TEST_P(KernelConformance, FloatCacheBlockBoundaries) {
  const blas::MicroKernelT<float>& mk = blas::active_kernel_t<float>();
  std::uint64_t seed = 19000;
  for (int m : {mk.mc - 1, mk.mc, mk.mc + 1})
    for (int k : {mk.kc - 1, mk.kc + 1})
      for (const TransCase& tc : kTrans)
        check_case_f(tc.ta, tc.tb, m, 2 * mk.nr, k, -0.5f, 1.0f, ++seed);
  for (int n : {mk.nc - 1, mk.nc + 1})
    for (const TransCase& tc : kTrans)
      check_case_f(tc.ta, tc.tb, 9, n, 9, 1.0f, -0.5f, ++seed);
}

TEST_P(KernelConformance, FloatTrsmAllCasesBoundarySweep) {
  const int kLeaf = blas::kTrsmLeafNB;
  const int kBlk = blas::kTrsmBlock;
  const std::vector<int> tri_sizes = {1,  kLeaf - 1, kLeaf,    kLeaf + 1,
                                      31, 33,        kBlk - 1, kBlk,
                                      kBlk + 1,      257};
  const std::vector<int> rhs_sizes = {1, 31, 64};
  std::uint64_t seed = 150000;
  for (Side side : {Side::Left, Side::Right})
    for (UpLo uplo : {UpLo::Lower, UpLo::Upper})
      for (Trans trans : {Trans::No, Trans::Yes})
        for (Diag diag : {Diag::Unit, Diag::NonUnit})
          for (int d : tri_sizes)
            for (int nrhs : rhs_sizes) {
              const int m = side == Side::Left ? d : nrhs;
              const int n = side == Side::Left ? nrhs : d;
              const float alpha = (d + nrhs) % 2 ? 1.0f : -0.5f;
              const FMat t0 = FMat::random(d, d, ++seed);
              FMat t = t0;
              for (int j = 0; j < d; ++j)
                for (int i = 0; i < d; ++i)
                  t(i, j) = t0(i, j) * 0.5f / static_cast<float>(d);
              for (int i = 0; i < d; ++i)
                t(i, i) = static_cast<float>(3.0 + i % 5);
              const FMat b0 = FMat::random(m, n, ++seed);
              FMat x = b0;
              blas::trsm(side, uplo, trans, diag, m, n, alpha, t.data(),
                         t.ld(), x.data(), x.ld());
              // Double reference on the double-promoted inputs: the float
              // solve is held to a forward-error bound in eps_f.
              Matrix td(d, d), bd(m, n);
              for (int j = 0; j < d; ++j)
                for (int i = 0; i < d; ++i) td(i, j) = t(i, j);
              for (int j = 0; j < n; ++j)
                for (int i = 0; i < m; ++i) bd(i, j) = b0(i, j);
              ref_trsm(side, uplo, trans, diag, m, n, alpha, td.data(),
                       td.ld(), bd.data(), bd.ld());
              double diff = 0.0, xmax = 0.0;
              for (int j = 0; j < n; ++j)
                for (int i = 0; i < m; ++i) {
                  diff = std::max(diff, std::abs(double(x(i, j)) - bd(i, j)));
                  xmax = std::max(xmax, std::abs(bd(i, j)));
                }
              ASSERT_LE(diff, 1e-4 * d * (1.0 + xmax))
                  << "side=" << (side == Side::Right) << " uplo="
                  << (uplo == UpLo::Upper) << " trans="
                  << (trans == Trans::Yes) << " diag="
                  << (diag == Diag::NonUnit) << " d=" << d << " nrhs="
                  << nrhs << " kernel=" << blas::active_kernel().name
                  << " (float)";
            }
}

// ----------------------------------------------------------- panel_fma ---
//
// The FMA update entry (C -= L U straight into C, no packing) against the
// textbook loop in double, at both precisions: the gemm sweep's ragged
// and register-strip sizes for m and n (plus the edges of the kernel's
// two-vector row blocks), and inner dimensions from the leaf's rank-1
// and rank-8 updates up to a solve tile.  Leading dimensions exceed the
// row counts so a kernel that assumes packed columns fails.

template <class T>
void check_panel_fma(int m, int n, int kb, std::uint64_t seed, double eps) {
  const int ldl = m + 3, ldu = kb + 2, ldc = m + 5;
  const auto fill = [](int rows, int cols, int ld, std::uint64_t s) {
    const Matrix d = Matrix::random(rows, cols, s);
    std::vector<T> v(static_cast<std::size_t>(ld) * cols, T(0));
    for (int j = 0; j < cols; ++j)
      for (int i = 0; i < rows; ++i)
        v[i + static_cast<std::size_t>(j) * ld] = static_cast<T>(d(i, j));
    return v;
  };
  const std::vector<T> l = fill(m, kb, ldl, seed);
  const std::vector<T> u = fill(kb, n, ldu, seed + 1);
  std::vector<T> c = fill(m, n, ldc, seed + 2);
  const std::vector<T> c0 = c;
  blas::active_kernel_t<T>().panel_fma(m, n, kb, l.data(), ldl, u.data(), ldu,
                                       c.data(), ldc);
  const double tol = eps * (kb + 1.0) * (kb + 4);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) {
      double want = c0[i + static_cast<std::size_t>(j) * ldc];
      for (int p = 0; p < kb; ++p)
        want -= double(l[i + static_cast<std::size_t>(p) * ldl]) *
                double(u[p + static_cast<std::size_t>(j) * ldu]);
      ASSERT_LE(std::abs(double(c[i + static_cast<std::size_t>(j) * ldc]) -
                         want),
                tol)
          << "m=" << m << " n=" << n << " kb=" << kb << " i=" << i
          << " j=" << j << " kernel=" << blas::active_kernel().name
          << (sizeof(T) == 4 ? " (float)" : "");
    }
  // Rows past m in each column are padding the kernel must not touch.
  for (int j = 0; j < n; ++j)
    for (int i = m; i < ldc; ++i)
      ASSERT_EQ(c[i + static_cast<std::size_t>(j) * ldc],
                c0[i + static_cast<std::size_t>(j) * ldc])
          << "m=" << m << " n=" << n << " kb=" << kb << " row " << i;
}

template <class T>
void panel_fma_sweep(std::uint64_t seed, double eps) {
  const blas::MicroKernelT<T>& mk = blas::active_kernel_t<T>();
  const int lanes = 64 / static_cast<int>(sizeof(T));
  std::vector<int> sizes;
  for (int v = 1; v <= 9; ++v) sizes.push_back(v);
  for (int v : {mk.mr - 1, mk.mr, mk.mr + 1, mk.nr - 1, mk.nr, mk.nr + 1,
                lanes - 1, lanes + 1, 2 * lanes - 1, 2 * lanes + 1})
    if (v >= 1) sizes.push_back(v);
  std::sort(sizes.begin(), sizes.end());
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
  for (int m : sizes)
    for (int n : sizes)
      for (int kb : {1, 8, 64, 128}) check_panel_fma<T>(m, n, kb, ++seed, eps);
}

TEST_P(KernelConformance, PanelFmaSweep) {
  panel_fma_sweep<double>(60000, 1e-15);
}

TEST_P(KernelConformance, FloatPanelFmaSweep) {
  panel_fma_sweep<float>(160000, 1.2e-7);
}

TEST_P(KernelConformance, FloatAndDoubleTablesShareVariantNames) {
  const blas::MicroKernel& d = blas::active_kernel();
  const blas::MicroKernelT<float>& f = blas::active_kernel_t<float>();
  EXPECT_STREQ(d.name, f.name);
  // Float strips must also tile the float cache blocks exactly.
  EXPECT_EQ(f.mc % f.mr, 0);
  EXPECT_EQ(f.nc % f.nr, 0);
  EXPECT_GE(f.kc, 128);
}

INSTANTIATE_TEST_SUITE_P(Dispatched, KernelConformance,
                         ::testing::ValuesIn(blas::available_kernels()),
                         test::kernel_param_name);

TEST(KernelDispatch, TableAndSelection) {
  const std::vector<std::string> names = blas::available_kernels();
  ASSERT_FALSE(names.empty());
  // The portable kernel is always present and always last (fallback).
  EXPECT_EQ(names.back(), "generic");
  EXPECT_FALSE(blas::select_kernel("no-such-kernel"));
  for (const std::string& n : names) {
    EXPECT_TRUE(blas::select_kernel(n.c_str()));
    const blas::MicroKernel& mk = blas::active_kernel();
    EXPECT_STREQ(mk.name, n.c_str());
    // Blocking must be strip-aligned or the blocked and whole-panel
    // traversals would tile differently.
    EXPECT_EQ(mk.mc % mk.mr, 0);
    EXPECT_EQ(mk.nc % mk.nr, 0);
    EXPECT_GE(mk.kc, 128);
  }
  EXPECT_TRUE(blas::select_kernel(nullptr));
}

TEST(KernelDispatch, CacheInfoSane) {
  const blas::CacheInfo ci = blas::cache_info();
  EXPECT_GT(ci.l1, 0);
  EXPECT_GT(ci.l2, 0);
  EXPECT_GT(ci.l3, 0);
}

}  // namespace
}  // namespace calu
