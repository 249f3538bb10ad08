// panel_test.cpp — the blocked panel factorization's exactness contract.
//
// The TSLU tournament replays pivot DECISIONS, so the blocked getf2
// (delayed microkernel rank-ib updates, fused pivot search) must
// reproduce the classic column-at-a-time elimination exactly: same pivot
// sequence, same factor values, under every dispatched kernel variant.
// The reference below is the pre-overhaul unblocked algorithm with its
// elementary operation pinned to mul-then-sub (blas::mul_then_sub), the
// rounding the panel kernels implement regardless of the compiler's
// fp-contract default (see the panel contract in microkernel.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/blas/blas.h"
#include "src/blas/microkernel.h"
#include "src/layout/matrix.h"
#include "tests/test_util.h"

namespace calu {
namespace {

using layout::Matrix;

// The pre-overhaul unblocked Gaussian elimination with partial pivoting,
// kept verbatim except that the rank-1 update goes through mul_then_sub.
int ref_getf2(int m, int n, double* a, int lda, int* ipiv) {
  const int kmin = std::min(m, n);
  int info = 0;
  for (int j = 0; j < kmin; ++j) {
    double* col = a + static_cast<std::size_t>(j) * lda;
    int piv = j;
    double best = std::fabs(col[j]);
    for (int i = j + 1; i < m; ++i) {
      const double v = std::fabs(col[i]);
      if (v > best) {
        best = v;
        piv = i;
      }
    }
    ipiv[j] = piv;
    if (best == 0.0) {
      if (info == 0) info = j + 1;
      continue;
    }
    if (piv != j) blas::swap_rows(n, a, lda, j, piv);
    const double inv = 1.0 / col[j];
    for (int i = j + 1; i < m; ++i) col[i] *= inv;
    for (int jj = j + 1; jj < n; ++jj) {
      double* cjj = a + static_cast<std::size_t>(jj) * lda;
      const double ujj = cjj[j];
      if (ujj == 0.0) continue;
      for (int i = j + 1; i < m; ++i)
        cjj[i] = blas::mul_then_sub(cjj[i], col[i], ujj);
    }
  }
  return info;
}

// Shapes crossing every structural edge of the blocked kernels: getf2's
// 16-wide panel-block boundary, the 8-column blocks of getrf_recursive's
// leaf and the leaf width itself (both sides of each), strip boundaries
// of the SIMD row loops, wide matrices (trailing columns past kmin), and
// tall TSLU-leaf panels.
const std::pair<int, int> kShapes[] = {
    {1, 1},    {2, 2},     {5, 3},    {8, 8},     {15, 15},   {16, 16},
    {17, 17},  {16, 33},   {33, 16},  {33, 29},   {64, 64},   {100, 100},
    {129, 64}, {64, 129},  {257, 64}, {64, 257},  {96, 96},   {200, 128},
    {513, 48}, {1024, 32}, {7, 7},    {9, 9},     {63, 63},   {65, 65},
    {72, 9},   {9, 72},    {130, 66}, {127, 127}, {129, 129}, {300, 97},
};

class PanelExactness : public test::KernelVariantTest {};

TEST_P(PanelExactness, Getf2BitIdenticalToUnblocked) {
  std::uint64_t seed = 7;
  for (const auto& [m, n] : kShapes) {
    Matrix a = Matrix::random(m, n, ++seed);
    Matrix b = a;
    std::vector<int> ipa(std::min(m, n)), ipb(std::min(m, n));
    const int info_a = blas::getf2(m, n, a.data(), a.ld(), ipa.data());
    const int info_b = ref_getf2(m, n, b.data(), b.ld(), ipb.data());
    EXPECT_EQ(info_a, info_b) << m << "x" << n;
    EXPECT_EQ(ipa, ipb) << m << "x" << n;
    EXPECT_EQ(test::max_abs_diff(a, b), 0.0) << m << "x" << n;
  }
}

TEST_P(PanelExactness, ZeroPivotColumnsMatchReference) {
  // A singular panel: zero columns below the diagonal must leave the
  // factors and info identical — zero pivots skip scale and update
  // WHOLESALE in the reference, so the delayed epilogue must exclude
  // those steps too.  The Inf planted in a trailing column at a
  // zero-pivot row would otherwise become 0 * Inf = NaN there.
  const int m = 40, n = 24;
  Matrix a = Matrix::random(m, n, 99);
  for (int i = 0; i < m; ++i) a(i, 5) = 0.0;
  for (int i = 0; i < m; ++i) a(i, 17) = 0.0;
  a(5, 20) = std::numeric_limits<double>::infinity();
  Matrix b = a;
  std::vector<int> ipa(n), ipb(n);
  const int info_a = blas::getf2(m, n, a.data(), a.ld(), ipa.data());
  const int info_b = ref_getf2(m, n, b.data(), b.ld(), ipb.data());
  EXPECT_EQ(info_a, info_b);
  EXPECT_GT(info_a, 0);
  EXPECT_EQ(ipa, ipb);
  // Elementwise equality that tolerates the surviving Inf (a diff-based
  // comparison would compute Inf - Inf = NaN).
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i)
      EXPECT_TRUE(a(i, j) == b(i, j) ||
                  (std::isnan(a(i, j)) && std::isnan(b(i, j))))
          << i << "," << j << ": " << a(i, j) << " vs " << b(i, j);
}

TEST_P(PanelExactness, NonFinitePanelKeepsReferencePivots) {
  // NaN times an exactly-zero U entry must not poison columns the
  // unblocked algorithm leaves untouched (its `if (ujj == 0.0)
  // continue;` skip): with col0 = [1, NaN, 0.5] and col1 = [0, -0, 2],
  // the reference pivots are [0, 2] and col1 stays finite.  The panel
  // kernels implement the same skip, and their SIMD pivot searches fall
  // back to the scalar scan when a NaN is present, so pivot sequences
  // stay deterministic across dispatch variants even on garbage input.
  const double nan = std::nan("");
  Matrix a(3, 2);
  a(0, 0) = 1.0;
  a(1, 0) = nan;
  a(2, 0) = 0.5;
  a(0, 1) = 0.0;
  a(1, 1) = -0.0;
  a(2, 1) = 2.0;
  Matrix b = a;
  std::vector<int> ipa(2), ipb(2);
  const int info_a = blas::getf2(3, 2, a.data(), a.ld(), ipa.data());
  const int info_b = ref_getf2(3, 2, b.data(), b.ld(), ipb.data());
  EXPECT_EQ(info_a, info_b);
  EXPECT_EQ(ipa, ipb);
  EXPECT_EQ(ipa, (std::vector<int>{0, 2}));
  // Column 1 must have stayed finite on both sides.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(std::isfinite(a(i, 1))) << i;
    EXPECT_EQ(a(i, 1), b(i, 1)) << i;
  }
}

TEST_P(PanelExactness, RecursivePivotsMatchReference) {
  // getrf_recursive routes most flops through trsm/gemm, so factors only
  // agree to rounding — but on generic matrices the pivot SEQUENCE (what
  // the tournament replays) must match the unblocked elimination.
  std::uint64_t seed = 1000;
  for (const auto& [m, n] : kShapes) {
    Matrix a = Matrix::random(m, n, ++seed);
    Matrix b = a;
    std::vector<int> ipa(std::min(m, n)), ipb(std::min(m, n));
    blas::getrf_recursive(m, n, a.data(), a.ld(), ipa.data());
    ref_getf2(m, n, b.data(), b.ld(), ipb.data());
    EXPECT_EQ(ipa, ipb) << m << "x" << n;
    EXPECT_LT(test::max_abs_diff(a, b), 1e-11) << m << "x" << n;
  }
}

TEST_P(PanelExactness, RecursiveZeroColumnsMatchReferenceInfo) {
  // Exactly zero columns in the first, a middle and the last 8-column
  // block, on shapes the leaf factors whole and on shapes the recursion
  // splits first: getrf_recursive must report the reference's info (the
  // first zero pivot), complete the factorization and keep every factor
  // finite.
  std::uint64_t seed = 2000;
  for (const auto& [m, n] : {std::pair{40, 40}, {64, 64}, {90, 70},
                             {200, 160}, {300, 300}}) {
    Matrix a = Matrix::random(m, n, ++seed);
    const int k = std::min(m, n);
    for (int z : {2, k / 2 + 3, k - 1})
      for (int i = 0; i < m; ++i) a(i, z) = 0.0;
    Matrix b = a;
    std::vector<int> ipa(k), ipb(k);
    const int info_a =
        blas::getrf_recursive(m, n, a.data(), a.ld(), ipa.data());
    const int info_b = ref_getf2(m, n, b.data(), b.ld(), ipb.data());
    EXPECT_EQ(info_a, info_b) << m << "x" << n;
    EXPECT_EQ(info_a, 3) << m << "x" << n;
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < m; ++i)
        ASSERT_TRUE(std::isfinite(a(i, j)))
            << m << "x" << n << " at " << i << "," << j;
  }
}

// ------------------------------------------------------------- float32 ---
//
// The panel contract holds PER PRECISION (microkernel.h): the float
// kernels must chain float roundings exactly as unblocked float
// elimination would.  Same reference algorithm, float arithmetic, float
// mul_then_sub — and the same bit-identity bar, not a tolerance.  The
// double tests above are untouched.

int ref_getf2_f(int m, int n, float* a, int lda, int* ipiv) {
  const int kmin = std::min(m, n);
  int info = 0;
  for (int j = 0; j < kmin; ++j) {
    float* col = a + static_cast<std::size_t>(j) * lda;
    int piv = j;
    float best = std::fabs(col[j]);
    for (int i = j + 1; i < m; ++i) {
      const float v = std::fabs(col[i]);
      if (v > best) {
        best = v;
        piv = i;
      }
    }
    ipiv[j] = piv;
    if (best == 0.0f) {
      if (info == 0) info = j + 1;
      continue;
    }
    if (piv != j) blas::swap_rows(n, a, lda, j, piv);
    const float inv = 1.0f / col[j];
    for (int i = j + 1; i < m; ++i) col[i] *= inv;
    for (int jj = j + 1; jj < n; ++jj) {
      float* cjj = a + static_cast<std::size_t>(jj) * lda;
      const float ujj = cjj[j];
      if (ujj == 0.0f) continue;
      for (int i = j + 1; i < m; ++i)
        cjj[i] = blas::mul_then_sub(cjj[i], col[i], ujj);
    }
  }
  return info;
}

std::vector<float> random_f(int m, int n, std::uint64_t seed) {
  const Matrix d = Matrix::random(m, n, seed);
  std::vector<float> f(static_cast<std::size_t>(m) * n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i)
      f[i + static_cast<std::size_t>(j) * m] = static_cast<float>(d(i, j));
  return f;
}

TEST_P(PanelExactness, FloatGetf2BitIdenticalToUnblocked) {
  std::uint64_t seed = 77;
  for (const auto& [m, n] : kShapes) {
    std::vector<float> a = random_f(m, n, ++seed);
    std::vector<float> b = a;
    std::vector<int> ipa(std::min(m, n)), ipb(std::min(m, n));
    const int info_a = blas::getf2(m, n, a.data(), m, ipa.data());
    const int info_b = ref_getf2_f(m, n, b.data(), m, ipb.data());
    EXPECT_EQ(info_a, info_b) << m << "x" << n;
    EXPECT_EQ(ipa, ipb) << m << "x" << n;
    EXPECT_EQ(a, b) << m << "x" << n;  // element-wise bit equality
  }
}

TEST_P(PanelExactness, FloatRecursivePivotsMatchReference) {
  std::uint64_t seed = 1700;
  for (const auto& [m, n] : kShapes) {
    std::vector<float> a = random_f(m, n, ++seed);
    std::vector<float> b = a;
    std::vector<int> ipa(std::min(m, n)), ipb(std::min(m, n));
    blas::getrf_recursive(m, n, a.data(), m, ipa.data());
    ref_getf2_f(m, n, b.data(), m, ipb.data());
    EXPECT_EQ(ipa, ipb) << m << "x" << n;
    double worst = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
      worst = std::max(worst, std::abs(double(a[i]) - double(b[i])));
    EXPECT_LT(worst, 1e-3) << m << "x" << n;  // rounding-level, eps_f scale
  }
}

INSTANTIATE_TEST_SUITE_P(Dispatched, PanelExactness,
                         ::testing::ValuesIn(blas::available_kernels()),
                         test::kernel_param_name);

TEST(PanelCrossVariant, FloatIdenticalAcrossDispatchedKernels) {
  // The cross-variant bitwise contract, float table: a tournament whose
  // tasks dispatch differently must still replay identical float pivots.
  const std::vector<std::string> names = blas::available_kernels();
  for (const auto& [m, n] :
       {std::pair{64, 64}, {200, 128}, {257, 48}, {48, 257}}) {
    const std::vector<float> base = random_f(m, n, 4343);
    std::vector<float> first;
    std::vector<int> ip_first;
    for (std::size_t k = 0; k < names.size(); ++k) {
      ASSERT_TRUE(blas::select_kernel(names[k].c_str()));
      std::vector<float> a = base;
      std::vector<int> ipiv(std::min(m, n));
      blas::getf2(m, n, a.data(), m, ipiv.data());
      if (k == 0) {
        first = a;
        ip_first = ipiv;
      } else {
        EXPECT_EQ(ipiv, ip_first) << names[k] << " " << m << "x" << n;
        EXPECT_EQ(a, first) << names[k] << " " << m << "x" << n;
      }
    }
    blas::select_kernel(nullptr);
  }
}

TEST(PanelCrossVariant, IdenticalAcrossDispatchedKernels) {
  // All dispatch variants implement the same rounding chains, so the
  // factorization must agree BITWISE across them — a factorization
  // started under one variant and resumed under another (or a TSLU
  // tournament whose tasks land on differently-dispatched processes)
  // must replay the same pivots.
  const std::vector<std::string> names = blas::available_kernels();
  for (const auto& [m, n] :
       {std::pair{64, 64}, {200, 128}, {257, 48}, {48, 257}}) {
    Matrix base = Matrix::random(m, n, 4242);
    Matrix first;
    std::vector<int> ip_first;
    for (std::size_t k = 0; k < names.size(); ++k) {
      ASSERT_TRUE(blas::select_kernel(names[k].c_str()));
      Matrix a = base;
      std::vector<int> ipiv(std::min(m, n));
      blas::getf2(m, n, a.data(), a.ld(), ipiv.data());
      if (k == 0) {
        first = a;
        ip_first = ipiv;
      } else {
        EXPECT_EQ(ipiv, ip_first) << names[k] << " " << m << "x" << n;
        EXPECT_EQ(test::max_abs_diff(a, first), 0.0)
            << names[k] << " " << m << "x" << n;
      }
    }
    blas::select_kernel(nullptr);
  }
}

}  // namespace
}  // namespace calu
