// engine_matrix_test.cpp — the cross-engine conformance matrix: every
// engine × thread counts {1,2,4,8} × pack_panels on/off ×
// {CALU, Cholesky, incremental pivoting}, asserted bit-identical to the
// 1-thread hybrid reference.
//
// With three engines correctness is not spot-checked per engine: this
// matrix is the contract a new engine must pass to land.  It holds
// because the task graph carries every numerical dependency — an engine
// only chooses *order*, never *operands* — so factors and pivot
// sequences must come out bit-for-bit equal no matter which policy
// drained the DAG.  The suite is parameterized over the dispatched
// kernel variants (test_util.h fixture), so the contract is pinned on
// the avx512/avx2/generic paths alike.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/blas/microkernel.h"
#include "src/core/calu.h"
#include "src/core/cholesky.h"
#include "src/core/incpiv.h"
#include "src/layout/matrix.h"
#include "src/layout/packed.h"
#include "src/sched/engine.h"
#include "src/sched/session.h"
#include "tests/test_util.h"

namespace calu {
namespace {

using core::Factorization;
using core::Options;
using layout::Matrix;

using EngineMatrixTest = test::KernelVariantTest;

const int kThreadCounts[] = {1, 2, 4, 8};
const bool kPackModes[] = {true, false};

Options matrix_options(const std::string& engine, int threads, bool pack,
                       int b = 16) {
  Options o;
  o.b = b;
  o.threads = threads;
  o.pack_panels = pack;
  o.pin_threads = false;
  o.engine = engine;
  // The TSLU tournament shape is a function of the process grid, and the
  // auto grid follows the thread count — pin it so the matrix isolates
  // the engine/thread/pack axes and bit-identity across thread counts is
  // the contract being tested, not a grid coincidence.
  o.pr = 2;
  o.pc = 2;
  return o;
}

// ------------------------------------------------------------------ CALU ---

TEST_P(EngineMatrixTest, CaluBitIdenticalAcrossEngines) {
  // Square and tall-skinny (the shape CALU was designed for, with edge
  // tiles) — both must match the single-thread hybrid reference exactly.
  // The two shapes below the whole-job crossover run as one task and
  // must hold the same contract; the others must keep running the DAG.
  const struct {
    int m, n, b;
    std::uint64_t seed;
    core::PlanKind plan;
  } shapes[] = {{288, 288, 36, 913, core::PlanKind::Tiled},
                {450, 180, 48, 914, core::PlanKind::Tiled},
                {64, 64, 16, 920, core::PlanKind::WholeJob},
                {96, 40, 16, 921, core::PlanKind::WholeJob}};
  for (const auto& sh : shapes) {
    Matrix a_ref = Matrix::random(sh.m, sh.n, sh.seed);
    Factorization f_ref =
        core::getrf(a_ref, matrix_options("hybrid", 1, true, sh.b));
    ASSERT_EQ(f_ref.stats.plan, sh.plan) << "m=" << sh.m << " n=" << sh.n;
    for (const std::string& engine : sched::engine_names())
      for (int t : kThreadCounts)
        for (bool pack : kPackModes) {
          SCOPED_TRACE(engine + " threads=" + std::to_string(t) +
                       " pack=" + std::to_string(pack) + " m=" +
                       std::to_string(sh.m) + " n=" + std::to_string(sh.n));
          Matrix a = Matrix::random(sh.m, sh.n, sh.seed);
          Factorization f =
              core::getrf(a, matrix_options(engine, t, pack, sh.b));
          EXPECT_EQ(f.stats.plan, sh.plan);
          EXPECT_EQ(f.ipiv, f_ref.ipiv);
          EXPECT_EQ(test::max_abs_diff(a, a_ref), 0.0);
        }
  }
}

TEST_P(EngineMatrixTest, CaluLookaheadDepthDoesNotChangeResults) {
  // The look-ahead window is pure scheduling: any depth must reproduce
  // the reference factorization bit-for-bit.
  const int n = 360, b = 48;
  Matrix a_ref = Matrix::random(n, n, 915);
  Factorization f_ref =
      core::getrf(a_ref, matrix_options("hybrid", 1, true, b));
  test::expect_tiled(f_ref.stats);
  for (int depth : {1, 2, 8, 64}) {
    SCOPED_TRACE("lookahead_depth=" + std::to_string(depth));
    Options o = matrix_options("priority-lookahead", 4, true, b);
    o.lookahead_depth = depth;
    Matrix a = Matrix::random(n, n, 915);
    Factorization f = core::getrf(a, o);
    EXPECT_EQ(f.ipiv, f_ref.ipiv);
    EXPECT_EQ(test::max_abs_diff(a, a_ref), 0.0);
  }
}

// -------------------------------------------------------------- Cholesky ---

TEST_P(EngineMatrixTest, CholeskyBitIdenticalAcrossEngines) {
  const int n = 112;
  Matrix a0 = core::spd_matrix(n, 916);
  Matrix l_ref = a0;
  core::potrf(l_ref, matrix_options("hybrid", 1, true));
  for (const std::string& engine : sched::engine_names())
    for (int t : kThreadCounts)
      for (bool pack : kPackModes) {
        SCOPED_TRACE(engine + " threads=" + std::to_string(t) +
                     " pack=" + std::to_string(pack));
        Matrix l = a0;
        core::potrf(l, matrix_options(engine, t, pack));
        EXPECT_EQ(test::max_abs_diff(l, l_ref), 0.0);
      }
}

// ----------------------------------------------------- incremental pivot ---

TEST_P(EngineMatrixTest, IncpivBitIdenticalAcrossEngines) {
  // Incpiv has no single P*A = L*U: compare the factored tiles (unpacked)
  // and a replayed solve, both of which cover the recorded pivot
  // sequences bit-exactly.
  const int n = 96, b = 16;
  const Matrix a0 = Matrix::random(n, n, 917);
  const Matrix rhs0 = Matrix::random(n, 2, 918);

  layout::PackedMatrix p_ref = layout::PackedMatrix::pack(
      a0, layout::Layout::TwoLevelBlock, b, layout::Grid{2, 2});
  sched::Session session_ref(sched::SessionOptions{1, false});
  core::IncpivFactor f_ref = core::getrf_incpiv(
      p_ref, matrix_options("hybrid", 1, true), session_ref);
  Matrix lu_ref(n, n);
  p_ref.unpack(lu_ref);
  Matrix x_ref = rhs0;
  f_ref.solve(x_ref);

  for (const std::string& engine : sched::engine_names())
    for (int t : kThreadCounts)
      for (bool pack : kPackModes) {
        SCOPED_TRACE(engine + " threads=" + std::to_string(t) +
                     " pack=" + std::to_string(pack));
        layout::PackedMatrix p = layout::PackedMatrix::pack(
            a0, layout::Layout::TwoLevelBlock, b, layout::Grid{2, 2});
        sched::Session session(sched::SessionOptions{t, false});
        core::IncpivFactor f =
            core::getrf_incpiv(p, matrix_options(engine, t, pack), session);
        Matrix lu(n, n);
        p.unpack(lu);
        EXPECT_EQ(test::max_abs_diff(lu, lu_ref), 0.0);
        Matrix x = rhs0;
        f.solve(x);
        EXPECT_EQ(test::max_abs_diff(x, x_ref), 0.0);
      }
}

// ------------------------------------------------------- stats contracts ---

TEST_P(EngineMatrixTest, PriorityLookaheadPromotesAndAccounts) {
  // The promotion counter must be live on the CALU DAG (panels exist) and
  // the pop counters must cover every task exactly once.
  Options o = matrix_options("priority-lookahead", 4, true, 48);
  Matrix a = Matrix::random(480, 480, 919);
  Factorization f = core::getrf(a, o);
  test::expect_tiled(f.stats);
  EXPECT_GT(f.stats.engine.promotions, 0u);
  EXPECT_EQ(f.stats.engine.static_pops + f.stats.engine.dynamic_pops +
                f.stats.engine.steals,
            static_cast<std::uint64_t>(f.stats.tasks));
}

INSTANTIATE_TEST_SUITE_P(Kernels, EngineMatrixTest,
                         ::testing::ValuesIn(blas::available_kernels()),
                         test::kernel_param_name);

}  // namespace
}  // namespace calu
