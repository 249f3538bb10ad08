// integration_test.cpp — cross-module behavior: team reuse, concurrent
// library use, randomized configuration fuzzing, packed/dense equivalence.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/calu.h"
#include "tests/test_util.h"

namespace calu {
namespace {

using core::Options;
using layout::Layout;
using layout::Matrix;
using layout::PackedMatrix;

TEST(Integration, TeamReuseAcrossFactorizations) {
  sched::Session session(sched::SessionOptions{4, false});
  // Rounds 0-1 run the whole-job plan, rounds 2-4 the tiled DAG.
  for (int round = 0; round < 5; ++round) {
    const int n = 192 + 48 * round;
    Matrix a = Matrix::random(n, n, 500 + round);
    Matrix a0 = a;
    Options o;
    o.b = 48;
    o.threads = 4;
    o.pin_threads = false;
    PackedMatrix p =
        PackedMatrix::pack(a, o.layout, o.b, o.resolved_grid());
    core::Factorization f = core::getrf(p, o, session);
    if (round >= 2) test::expect_tiled(f.stats);
    p.unpack(a);
    EXPECT_LT(blas::lu_residual(n, n, a0.data(), a0.ld(), a.data(), a.ld(),
                                f.ipiv.data(),
                                static_cast<int>(f.ipiv.size())),
              200.0)
        << "round " << round;
  }
}

TEST(Integration, TeamSharedBetweenLuAndCholesky) {
  sched::Session session(sched::SessionOptions{4, false});
  Options o;
  o.b = 16;
  o.threads = 4;
  o.pin_threads = false;
  Matrix a = Matrix::random(80, 80, 510);
  PackedMatrix pa = PackedMatrix::pack(a, o.layout, o.b, o.resolved_grid());
  core::getrf(pa, o, session);
  Matrix s = core::spd_matrix(80, 511);
  Matrix s0 = s;
  PackedMatrix ps = PackedMatrix::pack(s, o.layout, o.b, o.resolved_grid());
  core::potrf(ps, o, session);
  ps.unpack(s);
  EXPECT_LT(core::cholesky_residual(s0, s), 100.0);
}

TEST(Integration, ConcurrentIndependentFactorizations) {
  // Two library users on separate (unpinned) teams at once: no shared
  // mutable state may leak between them.
  auto worker = [](int seed, double* out_res) {
    const int n = 288;
    Matrix a = Matrix::random(n, n, seed);
    Matrix a0 = a;
    Options o;
    o.b = 48;
    o.threads = 3;
    o.pin_threads = false;
    core::Factorization f = core::getrf(a, o);
    test::expect_tiled(f.stats);
    *out_res = blas::lu_residual(n, n, a0.data(), a0.ld(), a.data(), a.ld(),
                                 f.ipiv.data(),
                                 static_cast<int>(f.ipiv.size()));
  };
  double r1 = 1e300, r2 = 1e300;
  std::thread t1(worker, 520, &r1);
  std::thread t2(worker, 521, &r2);
  t1.join();
  t2.join();
  EXPECT_LT(r1, 200.0);
  EXPECT_LT(r2, 200.0);
}

TEST(Integration, PackedAndMatrixLevelAgree) {
  const int n = 270;
  Options o;
  o.b = 48;
  o.threads = 4;
  o.pin_threads = false;
  o.layout = Layout::TwoLevelBlock;
  Matrix a1 = Matrix::random(n, n, 530);
  Matrix a2 = a1;
  core::Factorization f1 = core::getrf(a1, o);  // Matrix-level convenience
  PackedMatrix p = PackedMatrix::pack(a2, o.layout, o.b, o.resolved_grid());
  core::Factorization f2 = core::getrf(p, o);
  p.unpack(a2);
  test::expect_tiled(f1.stats);
  EXPECT_EQ(f1.ipiv, f2.ipiv);
  EXPECT_EQ(test::max_abs_diff(a1, a2), 0.0);
}

// Randomized configuration fuzz: any sampled point of the design space
// must produce a bounded residual.  This is the property-based sweep over
// the whole public Options surface.
class FuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzTest, RandomConfigIsCorrect) {
  std::mt19937_64 rng(9000 + GetParam());
  auto pick = [&](int lo, int hi) {
    return lo + static_cast<int>(rng() % (hi - lo + 1));
  };
  // Shape and tile size are scaled by 3: a draw keeps its tile grid and
  // gains 27x the flops, so every draw above 0.42 Mflop unscaled lands
  // above the whole-job crossover and runs the tiled DAG.
  const int m = 3 * pick(8, 200);
  const int n = 3 * pick(8, 200);
  Options o;
  o.b = 3 * pick(4, 48);
  o.threads = pick(1, 8);
  o.group_factor = pick(1, 4);
  o.dratio = (rng() % 101) / 100.0;
  o.pin_threads = false;
  const std::vector<std::string> engines = sched::engine_names();
  o.engine = engines[rng() % engines.size()];
  switch (rng() % 3) {  // fully static, fully dynamic or the drawn d
    case 0: o.dratio = 0.0; break;
    case 1: o.dratio = 1.0; break;
  }
  o.layout = static_cast<Layout>(rng() % 3);
  Matrix a = Matrix::random(m, n, rng());
  Matrix a0 = a;
  core::Factorization f = core::getrf(a, o);
  const double res = blas::lu_residual(
      m, n, a0.data(), a0.ld(), a.data(), a.ld(), f.ipiv.data(),
      static_cast<int>(f.ipiv.size()));
  EXPECT_LT(res, 500.0) << "m=" << m << " n=" << n << " b=" << o.b
                        << " t=" << o.threads << " d=" << o.dratio
                        << " engine=" << o.engine
                        << " lay=" << static_cast<int>(o.layout);
}

INSTANTIATE_TEST_SUITE_P(DesignSpace, FuzzTest, ::testing::Range(0, 40));

TEST(Integration, SwapSequenceOnPackedMatchesDense) {
  // Property: an arbitrary swap sequence applied through the tile router
  // equals the same sequence on the dense matrix, for every layout.
  const int m = 53, n = 41, b = 8;
  std::mt19937_64 rng(540);
  for (Layout lay :
       {Layout::ColumnMajor, Layout::BlockCyclic, Layout::TwoLevelBlock}) {
    Matrix dense = Matrix::random(m, n, 541);
    PackedMatrix p = PackedMatrix::pack(dense, lay, b, layout::Grid{3, 2});
    for (int s = 0; s < 60; ++s) {
      const int r1 = static_cast<int>(rng() % m);
      const int r2 = static_cast<int>(rng() % m);
      const int c0 = static_cast<int>(rng() % n);
      const int c1 = c0 + static_cast<int>(rng() % (n - c0)) + 1;
      p.swap_rows_global(c0, std::min(c1, n), r1, r2);
      for (int c = c0; c < std::min(c1, n); ++c)
        std::swap(dense(r1, c), dense(r2, c));
    }
    Matrix out(m, n);
    p.unpack(out);
    EXPECT_EQ(test::max_abs_diff(dense, out), 0.0)
        << layout::layout_name(lay);
  }
}

TEST(Integration, StatsAreConsistent) {
  const int n = 384;
  Matrix a = Matrix::random(n, n, 550);
  Options o;
  o.b = 48;
  o.threads = 4;
  o.pin_threads = false;
  o.dratio = 0.5;
  core::Factorization f = core::getrf(a, o);
  test::expect_tiled(f.stats);
  EXPECT_EQ(f.stats.engine.static_pops + f.stats.engine.dynamic_pops,
            static_cast<std::uint64_t>(f.stats.tasks));
  EXPECT_GT(f.stats.engine.dynamic_pops, 0u);  // half the panels dynamic
  EXPECT_GT(f.stats.engine.static_pops, 0u);
  EXPECT_GT(f.stats.factor_seconds, 0.0);
  EXPECT_GT(f.stats.gflops, 0.0);
  EXPECT_EQ(f.stats.npanels, 8);
  EXPECT_EQ(f.stats.nstatic_panels, 4);
}

TEST(Integration, FullyStaticHasNoDynamicPops) {
  const int n = 288;
  Matrix a = Matrix::random(n, n, 551);
  Options o;
  o.b = 48;
  o.threads = 4;
  o.pin_threads = false;
  o.dratio = 0.0;
  core::Factorization f = core::getrf(a, o);
  test::expect_tiled(f.stats);
  EXPECT_EQ(f.stats.engine.dynamic_pops, 0u);
}

TEST(Integration, FullyDynamicHasNoStaticPops) {
  const int n = 288;
  Matrix a = Matrix::random(n, n, 552);
  Options o;
  o.b = 48;
  o.threads = 4;
  o.pin_threads = false;
  o.dratio = 1.0;
  core::Factorization f = core::getrf(a, o);
  test::expect_tiled(f.stats);
  EXPECT_EQ(f.stats.engine.static_pops, 0u);
}

}  // namespace
}  // namespace calu
