// solve_test.cpp — getrs, residual metric, gesv with refinement.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "src/blas/blas.h"
#include "src/core/calu.h"
#include "src/core/solve.h"
#include "src/layout/matrix.h"
#include "tests/test_util.h"

namespace calu {
namespace {

using core::Options;
using layout::Matrix;

Options small_opts(int max_refine = 2) {
  Options o;
  o.b = 16;
  o.threads = 4;
  o.pin_threads = false;
  o.max_refine = max_refine;
  return o;
}

TEST(Getrs, RecoversKnownSolution) {
  const int n = 64;
  Matrix a = Matrix::random(n, n, 301);
  Matrix x_true = Matrix::random(n, 4, 302);
  Matrix b(n, 4);
  blas::gemm(blas::Trans::No, blas::Trans::No, n, 4, n, 1.0, a.data(), a.ld(),
             x_true.data(), x_true.ld(), 0.0, b.data(), b.ld());
  auto f = core::getrf(a, small_opts());  // a := [L\U]
  core::getrs(a, f.ipiv, b);
  EXPECT_LT(test::max_abs_diff(b, x_true), 1e-9);
}

TEST(Getrs, IdentityIsNoOp) {
  const int n = 32;
  Matrix a = Matrix::identity(n);
  Matrix b = Matrix::random(n, 2, 303);
  Matrix b0 = b;
  auto f = core::getrf(a, small_opts());
  core::getrs(a, f.ipiv, b);
  EXPECT_LT(test::max_abs_diff(b, b0), 1e-14);
}

TEST(SolveResidual, ZeroForExactSolution) {
  const int n = 16;
  Matrix a = Matrix::identity(n);
  Matrix x = Matrix::random(n, 1, 304);
  Matrix b = x;
  EXPECT_LT(core::solve_residual(a, x, b), 1e-16);
}

TEST(SolveResidual, LargeForWrongSolution) {
  const int n = 16;
  Matrix a = Matrix::diag_dominant(n, 305);
  Matrix x = Matrix::random(n, 1, 306);
  Matrix b(n, 1);  // zeros: Ax != b
  EXPECT_GT(core::solve_residual(a, x, b), 0.1);
}

TEST(Gesv, ResidualTinyAndRefinementConverges) {
  const int n = 360;
  Matrix a = Matrix::random(n, n, 307);
  Matrix b = Matrix::random(n, 2, 308);
  Options o = small_opts(3);
  o.b = 48;
  auto res = core::gesv(a, b, o);
  test::expect_tiled(res.factorization.stats);
  EXPECT_LT(res.residual, 1e-14);
  EXPECT_LE(res.refine_steps, 3);
}

TEST(Gesv, MultipleRightHandSides) {
  const int n = 80, nrhs = 7;
  Matrix a = Matrix::random(n, n, 309);
  Matrix x_true = Matrix::random(n, nrhs, 310);
  Matrix b(n, nrhs);
  blas::gemm(blas::Trans::No, blas::Trans::No, n, nrhs, n, 1.0, a.data(),
             a.ld(), x_true.data(), x_true.ld(), 0.0, b.data(), b.ld());
  auto res = core::gesv(a, b, small_opts());
  EXPECT_LT(test::max_abs_diff(res.x, x_true), 1e-8);
}

TEST(Gesv, IllConditionedStillBackwardStable) {
  // Hilbert-like: terrible forward error, but the *residual* must stay at
  // machine level (backward stability of GEPP-class pivoting).
  const int n = 24;
  Matrix a(n, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) a(i, j) = 1.0 / (1.0 + i + j);
  Matrix b = Matrix::random(n, 1, 311);
  auto res = core::gesv(a, b, small_opts(5));
  EXPECT_LT(res.residual, 1e-10);
}

TEST(Gesv, ZeroRhsGivesExactZeroWithoutRefinement) {
  // b = 0 ⇒ x = 0 exactly (swaps and triangular solves of zeros stay
  // zero), the residual is 0/0-guarded to 0, and refinement never runs.
  const int n = 48;
  Matrix a = Matrix::random(n, n, 314);
  Matrix b(n, 2);  // zeros
  auto res = core::gesv(a, b, small_opts(3));
  EXPECT_EQ(res.refine_steps, 0);
  EXPECT_EQ(res.residual, 0.0);
  for (int j = 0; j < 2; ++j)
    for (int i = 0; i < n; ++i) EXPECT_EQ(res.x(i, j), 0.0);
}

TEST(Gesv, MaxRefineZeroSkipsRefinementButStillSolves) {
  const int n = 288;
  Matrix a = Matrix::random(n, n, 315);
  Matrix b = Matrix::random(n, 1, 316);
  Options o = small_opts(/*max_refine=*/0);
  o.b = 48;
  auto res = core::gesv(a, b, o);
  test::expect_tiled(res.factorization.stats);
  EXPECT_EQ(res.refine_steps, 0);
  EXPECT_LT(res.residual, 1e-12);  // GEPP-class accuracy without refinement
}

TEST(Gesv, SingularPivotDoesNotCrashOrClaimConvergence) {
  // All columns equal: after the first elimination step the trailing
  // matrix is exactly zero (subtraction of equal values is exact), so
  // the factorization hits exact zero pivots and the triangular solve
  // divides by zero, poisoning x with inf/NaN.  The contract is
  // IEEE-graceful degradation: no crash, no hang, refinement runs to its
  // cap, and the reported residual is NaN — never a tiny value claiming
  // convergence (max-based norms skip NaN compares, which used to make
  // exactly this case report residual 0).
  const int n = 48;
  Matrix a(n, n);
  const Matrix v = Matrix::random(n, 1, 317);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) a(i, j) = v(i, 0);
  Matrix b = Matrix::random(n, 1, 318);
  auto res = core::gesv(a, b, small_opts(2));
  EXPECT_TRUE(std::isnan(res.residual));
  EXPECT_FALSE(res.residual < 1e-12);  // the convergence test must fail
  EXPECT_EQ(res.refine_steps, 2);
}

TEST(Gesv, ZeroMatrixReportsNaNResidual) {
  const int n = 32;
  Matrix a(n, n);  // zeros: every pivot is zero
  Matrix b = Matrix::random(n, 1, 319);
  auto res = core::gesv(a, b, small_opts(1));
  EXPECT_TRUE(std::isnan(res.residual));
  EXPECT_EQ(res.refine_steps, 1);
}

TEST(GesvMixed, WellConditionedReachesDoubleAccuracy) {
  // The headline contract: float32 factorization + double refinement ends
  // at the same residual level as full-double gesv, without fallback.
  const int n = 360;
  Matrix a = Matrix::random(n, n, 307);
  Matrix b = Matrix::random(n, 2, 308);
  Options o = small_opts(/*max_refine=*/8);
  o.b = 48;
  auto res = core::gesv_mixed(a, b, o);
  test::expect_tiled(res.factorization.stats);
  EXPECT_LT(res.residual, 1e-14);
  EXPECT_FALSE(res.used_fallback);
  // Float factors carry ~eps_f error, so at least one step was needed.
  EXPECT_GE(res.refine_steps, 1);
  EXPECT_EQ(res.factorization.stats.precision, core::Precision::Float32);
  EXPECT_FALSE(res.factorization.stats.kernel.empty());
}

TEST(GesvMixed, MaxRefineZeroAcceptsFloatAccuracy) {
  // max_refine = 0 means "give me the float-accuracy solution": no
  // refinement, no accuracy-based fallback.  The residual must sit at
  // float backward-error level — far above double, far below garbage.
  const int n = 288;
  Matrix a = Matrix::random(n, n, 315);
  Matrix b = Matrix::random(n, 1, 316);
  Options o = small_opts(/*max_refine=*/0);
  o.b = 48;
  auto res = core::gesv_mixed(a, b, o);
  test::expect_tiled(res.factorization.stats);
  EXPECT_EQ(res.refine_steps, 0);
  EXPECT_FALSE(res.used_fallback);
  EXPECT_LT(res.residual, 1e-4);
  EXPECT_GT(res.residual, 1e-12);  // genuinely float, not double
}

TEST(GesvMixed, ZeroRhsGivesExactZeroWithoutRefinement) {
  // Zeros survive float conversion and triangular solves exactly, so the
  // mixed path must report the same exact-zero contract as gesv.
  const int n = 48;
  Matrix a = Matrix::random(n, n, 314);
  Matrix b(n, 2);  // zeros
  auto res = core::gesv_mixed(a, b, small_opts(3));
  EXPECT_EQ(res.refine_steps, 0);
  EXPECT_EQ(res.residual, 0.0);
  EXPECT_FALSE(res.used_fallback);
  for (int j = 0; j < 2; ++j)
    for (int i = 0; i < n; ++i) EXPECT_EQ(res.x(i, j), 0.0);
}

TEST(GesvMixed, SingularFallsBackAndStillReportsNaN) {
  // Exactly singular input: the float solve produces non-finite values,
  // refinement cannot help, and the full-double fallback runs — which
  // must preserve the NaN-residual contract (never claim convergence).
  const int n = 48;
  Matrix a(n, n);
  const Matrix v = Matrix::random(n, 1, 317);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) a(i, j) = v(i, 0);
  Matrix b = Matrix::random(n, 1, 318);
  auto res = core::gesv_mixed(a, b, small_opts(2));
  EXPECT_TRUE(res.used_fallback);
  EXPECT_TRUE(std::isnan(res.residual));
  EXPECT_FALSE(res.residual < 1e-12);
  // The fallback really ran in double.
  EXPECT_EQ(res.factorization.stats.precision, core::Precision::Double);
}

TEST(GesvMixed, IllConditionedFallsBackToFullDouble) {
  // Hilbert-like, cond >> 1/eps_f: the float factors are finite but
  // useless, refinement stalls, and the double fallback restores the
  // backward-stable result gesv would give.
  const int n = 24;
  Matrix a(n, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) a(i, j) = 1.0 / (1.0 + i + j);
  Matrix b = Matrix::random(n, 1, 311);
  auto res = core::gesv_mixed(a, b, small_opts(5));
  EXPECT_TRUE(res.used_fallback);
  EXPECT_LT(res.residual, 1e-10);  // same bar as the double gesv test
  EXPECT_EQ(res.factorization.stats.precision, core::Precision::Double);
}

/// ‖A X − B‖∞ / (‖A‖∞ ‖X‖∞ + ‖B‖∞), computed here so a broken library
/// residual cannot vouch for itself.
double backward_error(const Matrix& a, const Matrix& x, const Matrix& b) {
  const int n = a.rows();
  double rmax = 0.0, amax = 0.0, xmax = 0.0, bmax = 0.0;
  for (int i = 0; i < n; ++i) {
    double arow = 0.0;
    for (int j = 0; j < n; ++j) arow += std::fabs(a(i, j));
    amax = std::max(amax, arow);
    double rrow = 0.0, xrow = 0.0, brow = 0.0;
    for (int c = 0; c < b.cols(); ++c) {
      double r = -b(i, c);
      for (int j = 0; j < n; ++j) r += a(i, j) * x(j, c);
      if (!std::isfinite(r)) return std::numeric_limits<double>::quiet_NaN();
      rrow += std::fabs(r);
      xrow += std::fabs(x(i, c));
      brow += std::fabs(b(i, c));
    }
    rmax = std::max(rmax, rrow);
    xmax = std::max(xmax, xrow);
    bmax = std::max(bmax, brow);
  }
  const double denom = amax * xmax + bmax;
  return denom > 0.0 ? rmax / denom : rmax;
}

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(double) * a.rows() * a.cols()) == 0;
}

TEST(Gesv, WorksAcrossSchedulesAndLayouts) {
  // gesv and gesv_mixed solve on the packed factors as the engine leaves
  // them.  n = 64 is a whole-job plan (LAPACK-form factors); 288, 300
  // and 257 run the tiled DAG in its deferred form, the last two with
  // ragged edge tiles.  Every case must meet the benchmark's backward-error
  // bound, pivot exactly as getrf does with the same Options, and leave
  // a and b untouched bit for bit.
  const struct {
    int n, b;
    core::PlanKind plan;
  } shapes[] = {{64, 16, core::PlanKind::WholeJob},
                {288, 48, core::PlanKind::Tiled},
                {300, 96, core::PlanKind::Tiled},
                {257, 32, core::PlanKind::Tiled}};
  // Fully static, fully dynamic and the default hybrid split.
  const double dratios[] = {0.0, 1.0, small_opts().dratio};
  int seed = 312;
  for (const auto& shape : shapes)
    for (layout::Layout l : {layout::Layout::BlockCyclic,
                             layout::Layout::TwoLevelBlock,
                             layout::Layout::ColumnMajor})
      for (int threads : {1, 2, 4})
        for (int nrhs : {1, 3}) {
          const double d = dratios[seed % 3];
          SCOPED_TRACE("n=" + std::to_string(shape.n) + " b=" +
                       std::to_string(shape.b) + " " +
                       layout::layout_name(l) + " threads=" +
                       std::to_string(threads) + " nrhs=" +
                       std::to_string(nrhs) + " d=" + std::to_string(d));
          const Matrix a = Matrix::random(shape.n, shape.n, ++seed);
          const Matrix b = Matrix::random(shape.n, nrhs, ++seed);
          const Matrix a0 = a, b0 = b;
          Options o = small_opts();
          o.b = shape.b;
          o.threads = threads;
          o.layout = l;
          o.dratio = d;
          const double bound =
              100.0 * shape.n * std::numeric_limits<double>::epsilon();

          const core::SolveResult res = core::gesv(a, b, o);
          EXPECT_LT(res.residual, 1e-13);
          EXPECT_LE(backward_error(a, res.x, b), bound);
          EXPECT_EQ(res.factorization.stats.plan, shape.plan);
          Matrix lu = a;
          EXPECT_EQ(res.factorization.ipiv, core::getrf(lu, o).ipiv);

          const core::SolveResult mixed = core::gesv_mixed(a, b, o);
          EXPECT_LE(backward_error(a, mixed.x, b), bound);

          EXPECT_TRUE(same_bits(a, a0));
          EXPECT_TRUE(same_bits(b, b0));
        }
}

TEST(Gesv, MalformedInputsThrowAndLeaveInputsUntouched) {
  const Matrix square = Matrix::random(48, 48, 320);
  const Matrix tall = Matrix::random(48, 40, 321);
  const Matrix rhs48 = Matrix::random(48, 1, 322);
  const Matrix rhs40 = Matrix::random(40, 1, 323);
  Options zero_b = small_opts();
  zero_b.b = 0;
  Options negative_b = small_opts();
  negative_b.b = -4;
  Options nan_dratio = small_opts();
  nan_dratio.dratio = std::numeric_limits<double>::quiet_NaN();
  const struct {
    const char* what;
    const Matrix& a;
    const Matrix& b;
    Options opt;
  } cases[] = {{"non-square", tall, rhs48, small_opts()},
               {"rhs row mismatch", square, rhs40, small_opts()},
               {"b = 0", square, rhs48, zero_b},
               {"b < 0", square, rhs48, negative_b},
               {"NaN dratio", square, rhs48, nan_dratio}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    const Matrix a0 = c.a, b0 = c.b;
    EXPECT_THROW(core::gesv(c.a, c.b, c.opt), std::invalid_argument);
    EXPECT_THROW(core::gesv_mixed(c.a, c.b, c.opt), std::invalid_argument);
    EXPECT_TRUE(same_bits(c.a, a0));
    EXPECT_TRUE(same_bits(c.b, b0));
  }

  // getrs takes factors, pivots and a right-hand side from the caller.
  Matrix lu = square;
  const core::Factorization f = core::getrf(lu, small_opts());
  Matrix short_rhs = rhs40;
  EXPECT_THROW(core::getrs(lu, f.ipiv, short_rhs), std::invalid_argument);
  EXPECT_TRUE(same_bits(short_rhs, rhs40));

  // getrf(Matrix&) checks only the Options: a non-square matrix is a
  // valid factorization.
  Matrix a = tall;
  EXPECT_THROW(core::getrf(a, zero_b), std::invalid_argument);
  EXPECT_THROW(core::getrf(a, nan_dratio), std::invalid_argument);
  EXPECT_TRUE(same_bits(a, tall));
  EXPECT_EQ(core::getrf(a, small_opts()).ipiv.size(), 40u);
}

TEST(GesvMixed, RhsOutsideFloatRangeRefinesLikeAScaledOne) {
  // The float substitution scales each column by a power of two, which
  // is exact: a right-hand side 2^±140 times another (outside float
  // range either way) must take the same steps to the same residual,
  // with x scaled by the same power, bit for bit, and no fallback.
  const int n = 288;
  const Matrix a = Matrix::random(n, n, 325);
  const Matrix b = Matrix::random(n, 2, 326);
  Options o = small_opts(8);
  o.b = 48;
  const core::SolveResult ref = core::gesv_mixed(a, b, o);
  EXPECT_FALSE(ref.used_fallback);
  for (int e : {-140, 140}) {
    SCOPED_TRACE("2^" + std::to_string(e));
    Matrix bs = b, xs = ref.x;
    for (int j = 0; j < b.cols(); ++j)
      for (int i = 0; i < n; ++i) {
        bs(i, j) = std::ldexp(b(i, j), e);
        xs(i, j) = std::ldexp(ref.x(i, j), e);
      }
    const core::SolveResult res = core::gesv_mixed(a, bs, o);
    EXPECT_FALSE(res.used_fallback);
    EXPECT_EQ(res.refine_steps, ref.refine_steps);
    EXPECT_EQ(res.residual, ref.residual);
    EXPECT_TRUE(same_bits(res.x, xs));
  }
}

TEST(GesvMixed, PivotGrowthFallsBack) {
  // Wilkinson's growth matrix: unit diagonal, -1 below it, 1 in the last
  // column.  Partial pivoting never swaps, and the last column doubles at
  // every step, so max|U| = 2^(n-1) ~ 5.5e11 at n = 40 while max|A| = 1.
  // The float factors stay finite, so the growth check alone must reject
  // them, at max_refine 0 as at 2, and the result is gesv's bit for bit.
  const int n = 40;
  Matrix a(n, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i)
      a(i, j) = i == j || j == n - 1 ? 1.0 : i > j ? -1.0 : 0.0;
  const Matrix b = Matrix::random(n, 1, 324);
  for (int max_refine : {0, 2}) {
    SCOPED_TRACE("max_refine=" + std::to_string(max_refine));
    const core::SolveResult res =
        core::gesv_mixed(a, b, small_opts(max_refine));
    EXPECT_TRUE(res.used_fallback);
    EXPECT_EQ(res.factorization.stats.precision, core::Precision::Double);
    const core::SolveResult ref = core::gesv(a, b, small_opts(max_refine));
    EXPECT_TRUE(same_bits(res.x, ref.x));
    EXPECT_EQ(res.residual, ref.residual);
    EXPECT_EQ(res.refine_steps, ref.refine_steps);
  }
}

}  // namespace
}  // namespace calu
