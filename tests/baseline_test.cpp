// baseline_test.cpp — the MKL stand-in (getrf_pp) and the PLASMA stand-in
// (incremental-pivoting tiled LU).
#include <gtest/gtest.h>

#include "src/blas/blas.h"
#include "src/core/getrf_pp.h"
#include "src/core/incpiv.h"
#include "src/core/solve.h"
#include "src/layout/matrix.h"
#include "src/layout/packed.h"
#include "tests/test_util.h"

namespace calu {
namespace {

using layout::Grid;
using layout::Layout;
using layout::Matrix;
using layout::PackedMatrix;

// ---------------------------------------------------------- getrf_pp ---

class GetrfPpTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(GetrfPpTest, Residual) {
  const auto [m, n, b, threads] = GetParam();
  Matrix a = Matrix::random(m, n, 201);
  Matrix a0 = a;
  sched::ThreadTeam team(threads, false);
  auto f = core::getrf_pp(a, b, team);
  EXPECT_LT(blas::lu_residual(m, n, a0.data(), a0.ld(), a.data(), a.ld(),
                              f.ipiv.data(),
                              static_cast<int>(f.ipiv.size())),
            100.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GetrfPpTest,
    ::testing::Values(std::tuple{64, 64, 16, 1}, std::tuple{64, 64, 16, 4},
                      std::tuple{100, 100, 16, 4},
                      std::tuple{130, 70, 32, 2}, std::tuple{70, 130, 32, 2},
                      std::tuple{96, 96, 96, 4},   // single panel
                      std::tuple{33, 33, 8, 3}));

TEST(GetrfPp, MatchesUnblockedGepp) {
  // Blocked GEPP must produce identical pivots & factors to getf2 —
  // partial pivoting is deterministic.
  const int n = 90, b = 16;
  Matrix a = Matrix::random(n, n, 202);
  Matrix ref = a;
  sched::ThreadTeam team(4, false);
  auto f = core::getrf_pp(a, b, team);
  std::vector<int> ipiv(n);
  blas::getf2(n, n, ref.data(), ref.ld(), ipiv.data());
  EXPECT_EQ(f.ipiv, ipiv);
  EXPECT_LT(test::max_abs_diff(a, ref), 1e-11);
}

TEST(GetrfPp, SolveRoundTrip) {
  const int n = 80;
  Matrix a = Matrix::random(n, n, 203);
  Matrix a0 = a;
  Matrix x_true = Matrix::random(n, 2, 204);
  Matrix b(n, 2);
  blas::gemm(blas::Trans::No, blas::Trans::No, n, 2, n, 1.0, a.data(), a.ld(),
             x_true.data(), x_true.ld(), 0.0, b.data(), b.ld());
  sched::ThreadTeam team(2, false);
  auto f = core::getrf_pp(a, 16, team);
  core::getrs(a, f.ipiv, b);
  EXPECT_LT(test::max_abs_diff(b, x_true), 1e-8);
}

// ------------------------------------------------------------- incpiv ---

class IncpivTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(IncpivTest, SolveResidualSmall) {
  const auto [n, b, threads] = GetParam();
  Matrix a = Matrix::random(n, n, 205);
  PackedMatrix p =
      PackedMatrix::pack(a, Layout::ColumnMajor, b, Grid::best(threads));
  sched::Session session(sched::SessionOptions{threads, false});
  auto f = core::getrf_incpiv(p, core::Options{}, session);
  Matrix x = Matrix::random(n, 3, 206);
  Matrix rhs(n, 3);
  blas::gemm(blas::Trans::No, blas::Trans::No, n, 3, n, 1.0, a.data(), a.ld(),
             x.data(), x.ld(), 0.0, rhs.data(), rhs.ld());
  f.solve(rhs);
  // Incremental pivoting is less stable than GEPP (the paper's caveat);
  // allow a looser, but still tight, tolerance.
  EXPECT_LT(test::max_abs_diff(rhs, x), 1e-7) << "n=" << n << " b=" << b;
}

INSTANTIATE_TEST_SUITE_P(Sweep, IncpivTest,
                         ::testing::Values(std::tuple{32, 8, 1},
                                           std::tuple{64, 16, 4},
                                           std::tuple{100, 20, 4},
                                           std::tuple{100, 100, 2},
                                           std::tuple{96, 16, 8},
                                           std::tuple{50, 16, 4}));

TEST(Incpiv, WorksOnTiledLayouts) {
  const int n = 64, b = 16;
  Matrix a = Matrix::random(n, n, 207);
  for (Layout l : {Layout::BlockCyclic, Layout::TwoLevelBlock}) {
    PackedMatrix p = PackedMatrix::pack(a, l, b, Grid{2, 2});
    sched::Session session(sched::SessionOptions{4, false});
    auto f = core::getrf_incpiv(p, core::Options{}, session);
    Matrix x = Matrix::random(n, 1, 208);
    Matrix rhs(n, 1);
    blas::gemm(blas::Trans::No, blas::Trans::No, n, 1, n, 1.0, a.data(),
               a.ld(), x.data(), x.ld(), 0.0, rhs.data(), rhs.ld());
    f.solve(rhs);
    EXPECT_LT(test::max_abs_diff(rhs, x), 1e-7)
        << "layout " << layout_name(l);
  }
}

TEST(Incpiv, DiagonallyDominantStaysPivotFree) {
  const int n = 48, b = 16;
  Matrix a = Matrix::diag_dominant(n, 209);
  PackedMatrix p = PackedMatrix::pack(a, Layout::ColumnMajor, b, Grid{2, 2});
  sched::Session session(sched::SessionOptions{4, false});
  auto f = core::getrf_incpiv(p, core::Options{}, session);
  Matrix x = Matrix::random(n, 1, 210);
  Matrix rhs(n, 1);
  blas::gemm(blas::Trans::No, blas::Trans::No, n, 1, n, 1.0, a.data(), a.ld(),
             x.data(), x.ld(), 0.0, rhs.data(), rhs.ld());
  f.solve(rhs);
  EXPECT_LT(test::max_abs_diff(rhs, x), 1e-10);
}

TEST(Incpiv, TaskCountMatchesTiledLu) {
  // nt panels: GETRF(nt) + GESSM/TSTRF (nt(nt-1)/2 each) + SSSSM sum k^2.
  const int n = 80, b = 16;  // nt = 5
  Matrix a = Matrix::random(n, n, 211);
  PackedMatrix p = PackedMatrix::pack(a, Layout::ColumnMajor, b, Grid{1, 1});
  sched::Session session(sched::SessionOptions{2, false});
  auto f = core::getrf_incpiv(p, core::Options{}, session);
  const int nt = 5;
  int expected = nt;                        // GETRF
  expected += nt * (nt - 1);                // GESSM + TSTRF
  for (int k = 0; k < nt; ++k) expected += (nt - 1 - k) * (nt - 1 - k);
  EXPECT_EQ(f.stats.tasks, expected);
}

}  // namespace
}  // namespace calu
