// cholesky_test.cpp — the Section-9 extension: hybrid-scheduled tiled
// Cholesky, plus the syrk/potrf kernels underneath it.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "src/blas/blas.h"
#include "src/core/cholesky.h"
#include "src/layout/matrix.h"
#include "tests/test_util.h"

namespace calu {
namespace {

using core::Options;
using core::Schedule;
using layout::Layout;
using layout::Matrix;

// ------------------------------------------------------------ kernels ---

TEST(SyrkLower, MatchesGemmOnLowerTriangle) {
  const int n = 70, k = 33;
  Matrix a = Matrix::random(n, k, 401);
  Matrix c = Matrix::random(n, n, 402);
  Matrix ref = c;
  blas::syrk_lower(n, k, -1.0, a.data(), a.ld(), 1.0, c.data(), c.ld());
  // Reference: full gemm, compare lower triangle only.
  blas::gemm(blas::Trans::No, blas::Trans::Yes, n, n, k, -1.0, a.data(),
             a.ld(), a.data(), a.ld(), 1.0, ref.data(), ref.ld());
  for (int j = 0; j < n; ++j) {
    for (int i = j; i < n; ++i)
      EXPECT_NEAR(c(i, j), ref(i, j), 1e-11) << i << "," << j;
    for (int i = 0; i < j; ++i)
      EXPECT_EQ(c(i, j), (i < j ? c(i, j) : 0.0));  // upper untouched
  }
}

TEST(SyrkLower, UpperTriangleUntouched) {
  const int n = 40, k = 10;
  Matrix a = Matrix::random(n, k, 403);
  Matrix c(n, n);
  c.fill(7.5);
  blas::syrk_lower(n, k, 1.0, a.data(), a.ld(), 0.0, c.data(), c.ld());
  for (int j = 1; j < n; ++j)
    for (int i = 0; i < j; ++i) EXPECT_EQ(c(i, j), 7.5);
}

TEST(SyrkLower, BetaZeroOverwrites) {
  const int n = 8, k = 4;
  Matrix a = Matrix::random(n, k, 404);
  Matrix c(n, n);
  c.fill(std::nan(""));
  blas::syrk_lower(n, k, 1.0, a.data(), a.ld(), 0.0, c.data(), c.ld());
  for (int j = 0; j < n; ++j)
    for (int i = j; i < n; ++i) EXPECT_FALSE(std::isnan(c(i, j)));
}

class PotrfKernelTest : public ::testing::TestWithParam<int> {};

TEST_P(PotrfKernelTest, FactorsSpd) {
  const int n = GetParam();
  Matrix a = core::spd_matrix(n, 405);
  Matrix a0 = a;
  EXPECT_EQ(blas::potrf_recursive(n, a.data(), a.ld()), 0);
  EXPECT_LT(core::cholesky_residual(a0, a), 60.0);
}

TEST_P(PotrfKernelTest, Potf2MatchesRecursive) {
  const int n = GetParam();
  Matrix a = core::spd_matrix(n, 406);
  Matrix b = a;
  blas::potf2(n, a.data(), a.ld());
  blas::potrf_recursive(n, b.data(), b.ld());
  // Same factorization (no pivoting): compare lower triangles.
  for (int j = 0; j < n; ++j)
    for (int i = j; i < n; ++i) EXPECT_NEAR(a(i, j), b(i, j), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PotrfKernelTest,
                         ::testing::Values(1, 2, 7, 16, 33, 64, 100, 129));

TEST(PotrfKernel, RejectsIndefinite) {
  Matrix a = Matrix::identity(4);
  a(2, 2) = -1.0;
  EXPECT_EQ(blas::potf2(4, a.data(), a.ld()), 3);
}

// --------------------------------------------------- tiled, scheduled ---

struct CholCase {
  Schedule sched;
  Layout layout;
  int n, b, threads;
  double dratio;
  const char* engine = "";  // empty: the default ("hybrid")
};

class CholSweep : public ::testing::TestWithParam<CholCase> {};

TEST_P(CholSweep, ResidualBounded) {
  const CholCase c = GetParam();
  Matrix a = core::spd_matrix(c.n, 407);
  Matrix a0 = a;
  Options opt;
  opt.b = c.b;
  opt.threads = c.threads;
  opt.schedule = c.sched;
  opt.dratio = c.dratio;
  opt.layout = c.layout;
  opt.engine = c.engine;
  opt.pin_threads = false;
  core::Factorization f = core::potrf(a, opt);
  EXPECT_LT(core::cholesky_residual(a0, a), 100.0);
  EXPECT_GT(f.stats.tasks, 0);
}

std::vector<CholCase> chol_cases() {
  std::vector<CholCase> cases;
  // The three d-ratio shortcuts, plus the work-stealing engine at d = 0.2.
  const std::pair<Schedule, const char*> scheds[] = {
      {Schedule::Static, ""},
      {Schedule::Dynamic, ""},
      {Schedule::Hybrid, ""},
      {Schedule::Hybrid, "work-stealing"}};
  for (auto [s, engine] : scheds)
    for (Layout l : {Layout::BlockCyclic, Layout::TwoLevelBlock,
                     Layout::ColumnMajor})
      cases.push_back({s, l, 96, 16, 4, 0.2, engine});
  for (int n : {17, 37, 64, 130})
    cases.push_back({Schedule::Hybrid, Layout::BlockCyclic, n, 16, 4, 0.25});
  for (double d : {0.0, 0.5, 1.0})
    cases.push_back({Schedule::Hybrid, Layout::TwoLevelBlock, 120, 16, 8, d});
  // Work stealing, fully dynamic and at a hybrid split.
  cases.push_back({Schedule::Dynamic, Layout::BlockCyclic, 128, 16, 4, 1.0,
                   "work-stealing"});
  cases.push_back({Schedule::Hybrid, Layout::TwoLevelBlock, 128, 16, 8, 0.3,
                   "work-stealing"});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(DesignSpace, CholSweep,
                         ::testing::ValuesIn(chol_cases()));

TEST(Cholesky, DeterministicAcrossSchedules) {
  const int n = 120;
  Matrix a0 = core::spd_matrix(n, 408);
  Options o;
  o.b = 16;
  o.threads = 4;
  o.pin_threads = false;
  Matrix l_static, l_dyn, l_ws;
  {
    Matrix a = a0;
    o.schedule = Schedule::Static;
    core::potrf(a, o);
    l_static = a;
  }
  {
    Matrix a = a0;
    o.schedule = Schedule::Dynamic;
    core::potrf(a, o);
    l_dyn = a;
  }
  {
    Matrix a = a0;
    o.schedule = Schedule::Dynamic;
    o.engine = "work-stealing";
    core::potrf(a, o);
    l_ws = a;
  }
  EXPECT_EQ(test::max_abs_diff(l_static, l_dyn), 0.0);
  EXPECT_EQ(test::max_abs_diff(l_static, l_ws), 0.0);
}

TEST(Cholesky, SolveRoundTrip) {
  const int n = 100;
  Matrix a = core::spd_matrix(n, 409);
  Matrix a0 = a;
  Matrix x_true = Matrix::random(n, 3, 410);
  Matrix b(n, 3);
  blas::gemm(blas::Trans::No, blas::Trans::No, n, 3, n, 1.0, a0.data(),
             a0.ld(), x_true.data(), x_true.ld(), 0.0, b.data(), b.ld());
  Options o;
  o.b = 16;
  o.threads = 4;
  o.pin_threads = false;
  core::potrf(a, o);
  core::potrs(a, b);
  EXPECT_LT(test::max_abs_diff(b, x_true), 1e-9);
}

TEST(Cholesky, NoiseRobustAndDeterministic) {
  const int n = 96;
  Matrix a0 = core::spd_matrix(n, 411);
  Options o;
  o.b = 16;
  o.threads = 4;
  o.pin_threads = false;
  Matrix clean = a0, noisy = a0;
  core::potrf(clean, o);
  o.noise.prob = 0.4;
  o.noise.mean_us = 30.0;
  core::potrf(noisy, o);
  EXPECT_EQ(test::max_abs_diff(clean, noisy), 0.0);
}

TEST(Cholesky, TaskCountIsClosedForm) {
  // nt POTRF + nt(nt-1)/2 TRSM + nt(nt-1)/2 SYRK + sum_{k} C(nt-k-1, 2)
  // GEMM.
  const int n = 128, b = 16;  // nt = 8
  Matrix a = core::spd_matrix(n, 412);
  Options o;
  o.b = b;
  o.threads = 2;
  o.pin_threads = false;
  core::Factorization f = core::potrf(a, o);
  const int nt = 8;
  int expected = nt + nt * (nt - 1);  // POTRF + TRSM + SYRK
  for (int k = 0; k < nt; ++k) {
    const int r = nt - k - 1;
    expected += r * (r - 1) / 2;
  }
  EXPECT_EQ(f.stats.tasks, expected);
}

}  // namespace
}  // namespace calu
