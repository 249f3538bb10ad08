// calu_test.cpp — end-to-end CALU factorization across the whole design
// space (Table 1): schedule x layout x shape x threads x dratio.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/blas/blas.h"
#include "src/core/batch.h"
#include "src/core/calu.h"
#include "src/core/calu_dag.h"
#include "src/core/solve.h"
#include "src/layout/matrix.h"
#include "src/model/lu_cost.h"
#include "src/sched/engine.h"
#include "src/sched/session.h"
#include "tests/test_util.h"

namespace calu {
namespace {

using core::Factorization;
using core::Options;
using core::Schedule;
using layout::Layout;
using layout::Matrix;

double factor_and_residual(int m, int n, const Options& opt,
                           std::uint64_t seed, Factorization* out = nullptr,
                           Matrix* lu_out = nullptr) {
  Matrix a = Matrix::random(m, n, seed);
  Matrix a0 = a;
  Factorization f = core::getrf(a, opt);
  const double res = blas::lu_residual(
      m, n, a0.data(), a0.ld(), a.data(), a.ld(), f.ipiv.data(),
      static_cast<int>(f.ipiv.size()));
  if (out) *out = std::move(f);
  if (lu_out) *lu_out = std::move(a);
  return res;
}

// ------------------------------------------------------------ the sweep ---

struct CaluCase {
  Schedule sched;
  Layout layout;
  int m, n, b, threads;
  double dratio;
  const char* engine = "";  // empty: the default ("hybrid")
};

std::string case_name(const ::testing::TestParamInfo<CaluCase>& info) {
  const CaluCase& c = info.param;
  std::string s = *c.engine ? c.engine : core::schedule_name(c.sched);
  s += std::string("_") + layout::layout_name(c.layout) + "_m" +
       std::to_string(c.m) + "n" + std::to_string(c.n) + "b" +
       std::to_string(c.b) + "t" + std::to_string(c.threads) + "d" +
       std::to_string(static_cast<int>(c.dratio * 100));
  for (auto& ch : s)
    if (ch == '-') ch = '_';
  return s;
}

class CaluSweep : public ::testing::TestWithParam<CaluCase> {};

TEST_P(CaluSweep, ResidualBounded) {
  const CaluCase& c = GetParam();
  Options opt;
  opt.schedule = c.sched;
  opt.engine = c.engine;
  opt.layout = c.layout;
  opt.b = c.b;
  opt.threads = c.threads;
  opt.dratio = c.dratio;
  opt.pin_threads = false;  // CI-friendly
  Factorization f;
  const double res = factor_and_residual(c.m, c.n, opt, 1234, &f);
  EXPECT_LT(res, 200.0);
  EXPECT_EQ(static_cast<int>(f.ipiv.size()), std::min(c.m, c.n));
  EXPECT_GT(f.stats.tasks, 0);
  EXPECT_EQ(f.stats.npanels,
            (std::min(c.m, c.n) + c.b - 1) / c.b);
  test::expect_tiled(f.stats);
}

std::vector<CaluCase> sweep_cases() {
  std::vector<CaluCase> cases;
  // The three d-ratio shortcuts, plus the work-stealing engine at d = 0.2.
  const std::vector<std::pair<Schedule, const char*>> scheds = {
      {Schedule::Static, ""},
      {Schedule::Dynamic, ""},
      {Schedule::Hybrid, ""},
      {Schedule::Hybrid, "work-stealing"}};
  const std::vector<Layout> layouts = {Layout::BlockCyclic,
                                       Layout::TwoLevelBlock,
                                       Layout::ColumnMajor};
  // Square, odd-sized square, tall-skinny, wide; every shape is above
  // the whole-job crossover, so each case runs the DAG.
  const std::vector<std::tuple<int, int, int>> shapes = {
      {288, 288, 48}, {300, 300, 48}, {450, 180, 48}, {180, 450, 48},
      {288, 288, 288},                    // single panel
      {299, 299, 75},                     // everything partial
  };
  for (auto [s, engine] : scheds)
    for (Layout l : layouts)
      for (auto [m, n, b] : shapes)
        cases.push_back({s, l, m, n, b, 4, 0.2, engine});
  // Thread-count and dratio variations on one shape.
  for (int t : {1, 2, 3, 8})
    cases.push_back({Schedule::Hybrid, Layout::BlockCyclic, 384, 384, 48, t,
                     0.25});
  for (double d : {0.0, 0.1, 0.5, 0.75, 1.0})
    cases.push_back({Schedule::Hybrid, Layout::TwoLevelBlock, 360, 360, 48,
                     4, d});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(DesignSpace, CaluSweep,
                         ::testing::ValuesIn(sweep_cases()), case_name);

// -------------------------------------------------------- determinism ---

TEST(CaluDeterminism, SchedulesProduceIdenticalFactors) {
  // The tournament shape is fixed by (grid, b), so every schedule must
  // produce bit-identical pivots and factors.
  const int n = 360, b = 48;
  Options base;
  base.b = b;
  base.threads = 4;
  base.pin_threads = false;
  base.layout = Layout::BlockCyclic;

  Factorization fs, fd, fh, fw;
  Matrix ls, ld, lh, lw;
  Options o = base;
  o.schedule = Schedule::Static;
  factor_and_residual(n, n, o, 55, &fs, &ls);
  o.schedule = Schedule::Dynamic;
  factor_and_residual(n, n, o, 55, &fd, &ld);
  o.schedule = Schedule::Hybrid;
  o.dratio = 0.3;
  factor_and_residual(n, n, o, 55, &fh, &lh);
  o.engine = "work-stealing";
  factor_and_residual(n, n, o, 55, &fw, &lw);

  test::expect_tiled(fs.stats);
  EXPECT_EQ(fs.ipiv, fd.ipiv);
  EXPECT_EQ(fs.ipiv, fh.ipiv);
  EXPECT_EQ(fs.ipiv, fw.ipiv);
  EXPECT_EQ(test::max_abs_diff(ls, ld), 0.0);
  EXPECT_EQ(test::max_abs_diff(ls, lh), 0.0);
  EXPECT_EQ(test::max_abs_diff(ls, lw), 0.0);
}

TEST(CaluDeterminism, LayoutsProduceIdenticalFactors) {
  const int n = 330, b = 48;
  Options base;
  base.b = b;
  base.threads = 4;
  base.pin_threads = false;
  base.schedule = Schedule::Hybrid;

  Factorization f1, f2, f3;
  Matrix l1, l2, l3;
  Options o = base;
  o.layout = Layout::BlockCyclic;
  factor_and_residual(n, n, o, 56, &f1, &l1);
  o.layout = Layout::TwoLevelBlock;
  factor_and_residual(n, n, o, 56, &f2, &l2);
  o.layout = Layout::ColumnMajor;
  factor_and_residual(n, n, o, 56, &f3, &l3);
  test::expect_tiled(f1.stats);
  EXPECT_EQ(f1.ipiv, f2.ipiv);
  EXPECT_EQ(f1.ipiv, f3.ipiv);
  EXPECT_EQ(test::max_abs_diff(l1, l2), 0.0);
  EXPECT_EQ(test::max_abs_diff(l1, l3), 0.0);
}

TEST(CaluDeterminism, GroupFactorDoesNotChangeResults) {
  const int n = 390, b = 48;
  Options o;
  o.b = b;
  o.threads = 4;
  o.pin_threads = false;
  o.layout = Layout::BlockCyclic;
  Factorization f1, f3;
  Matrix l1, l3;
  o.group_factor = 1;
  factor_and_residual(n, n, o, 57, &f1, &l1);
  o.group_factor = 3;
  factor_and_residual(n, n, o, 57, &f3, &l3);
  test::expect_tiled(f1.stats);
  EXPECT_EQ(f1.ipiv, f3.ipiv);
  EXPECT_EQ(test::max_abs_diff(l1, l3), 0.0);
}

TEST(CaluDeterminism, RepeatedRunsIdentical) {
  const int n = 300;
  Options o;
  o.b = 48;
  o.threads = 8;
  o.pin_threads = false;
  Factorization f1, f2;
  Matrix l1, l2;
  factor_and_residual(n, n, o, 58, &f1, &l1);
  factor_and_residual(n, n, o, 58, &f2, &l2);
  test::expect_tiled(f1.stats);
  EXPECT_EQ(f1.ipiv, f2.ipiv);
  EXPECT_EQ(test::max_abs_diff(l1, l2), 0.0);
}

// --------------------------------------------------- special matrices ---

TEST(CaluSpecial, Identity) {
  const int n = 64;
  Matrix a = Matrix::identity(n);
  Options o;
  o.b = 16;
  o.threads = 2;
  o.pin_threads = false;
  Factorization f = core::getrf(a, o);
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(f.ipiv[i], i);
    EXPECT_EQ(a(i, i), 1.0);
  }
}

TEST(CaluSpecial, DiagonallyDominantNeedsNoSwaps) {
  const int n = 80;
  Matrix a = Matrix::diag_dominant(n, 3);
  Options o;
  o.b = 16;
  o.threads = 4;
  o.pin_threads = false;
  Factorization f = core::getrf(a, o);
  for (int i = 0; i < n; ++i) EXPECT_EQ(f.ipiv[i], i);
}

TEST(CaluSpecial, Wilkinson) {
  const int n = 32;
  Matrix a = Matrix::wilkinson(n);
  Matrix a0 = a;
  Options o;
  o.b = 8;
  o.threads = 4;
  o.pin_threads = false;
  Factorization f = core::getrf(a, o);
  const double res = blas::lu_residual(n, n, a0.data(), a0.ld(), a.data(),
                                       a.ld(), f.ipiv.data(), n);
  EXPECT_LT(res, 1e9);  // growth-inflated but finite
}

TEST(CaluSpecial, SinglePanelMatrix) {
  // b >= n: the whole matrix is one panel; CALU == TSLU.
  Options o;
  o.b = 64;
  o.threads = 4;
  o.pin_threads = false;
  EXPECT_LT(factor_and_residual(40, 40, o, 60), 100.0);
}

TEST(CaluSpecial, BlockSizeOne) {
  Options o;
  o.b = 1;
  o.threads = 2;
  o.pin_threads = false;
  EXPECT_LT(factor_and_residual(24, 24, o, 61), 100.0);
}

TEST(CaluSpecial, VeryTallPanelMatrix) {
  // The shape CALU was designed for (tall and skinny).
  Options o;
  o.b = 48;
  o.threads = 4;
  o.pin_threads = false;
  Factorization f;
  EXPECT_LT(factor_and_residual(1536, 96, o, 62, &f), 100.0);
  test::expect_tiled(f.stats);
}

// ------------------------------------------------------------- noise ---

TEST(CaluNoise, CorrectUnderInjectedNoise) {
  Options o;
  o.b = 48;
  o.threads = 4;
  o.pin_threads = false;
  o.noise.prob = 0.3;
  o.noise.mean_us = 50.0;
  o.noise.jitter_us = 20.0;
  Factorization f;
  EXPECT_LT(factor_and_residual(384, 384, o, 63, &f), 200.0);
  test::expect_tiled(f.stats);
  EXPECT_GT(f.stats.noise_delta_max, 0.0);
  EXPECT_GE(f.stats.noise_delta_max, f.stats.noise_delta_avg);
}

TEST(CaluNoise, NoiseDoesNotChangeNumerics) {
  Options o;
  o.b = 48;
  o.threads = 4;
  o.pin_threads = false;
  Factorization f1, f2;
  Matrix l1, l2;
  factor_and_residual(288, 288, o, 64, &f1, &l1);
  o.noise.prob = 0.5;
  o.noise.mean_us = 30.0;
  factor_and_residual(288, 288, o, 64, &f2, &l2);
  test::expect_tiled(f1.stats);
  EXPECT_EQ(f1.ipiv, f2.ipiv);
  EXPECT_EQ(test::max_abs_diff(l1, l2), 0.0);
}

// --------------------------------------------------------- plan/DAG ---

TEST(CaluPlan, StaticDynamicSplitFollowsDratio) {
  layout::Tiling t{400, 400, 40};  // 10 panels
  layout::Grid g{2, 2};
  auto plan = core::build_plan(t, g, Layout::BlockCyclic, 0.3, 3);
  EXPECT_EQ(plan.npanels, 10);
  EXPECT_EQ(plan.nstatic, 7);
  auto plan0 = core::build_plan(t, g, Layout::BlockCyclic, 0.0, 3);
  EXPECT_EQ(plan0.nstatic, 10);
  auto plan1 = core::build_plan(t, g, Layout::BlockCyclic, 1.0, 3);
  EXPECT_EQ(plan1.nstatic, 0);
}

TEST(CaluPlan, ResolvedDratioClampsBothEdges) {
  // Regression: out-of-range ratios used to flow into build_plan
  // unclamped (dratio = 1.5 produced a negative static prefix).  The
  // resolver now clamps to [0, 1] and says so once per process.
  Options high;
  high.dratio = 1.5;
  Options low;
  low.dratio = -0.1;
  ::testing::internal::CaptureStderr();
  EXPECT_DOUBLE_EQ(high.resolved_dratio(), 1.0);
  EXPECT_DOUBLE_EQ(low.resolved_dratio(), 0.0);
  const std::string warn = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(warn.find("out of [0, 1]"), std::string::npos);
  // Warn-once: the second out-of-range resolution above (and any later
  // one) must not have printed again.
  EXPECT_EQ(warn.find("out of [0, 1]"),
            warn.rfind("out of [0, 1]"));
  ::testing::internal::CaptureStderr();
  EXPECT_DOUBLE_EQ(high.resolved_dratio(), 1.0);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  // In-range values pass through untouched, including the exact edges.
  Options edge;
  edge.dratio = 1.0;
  EXPECT_DOUBLE_EQ(edge.resolved_dratio(), 1.0);
  edge.dratio = 0.0;
  EXPECT_DOUBLE_EQ(edge.resolved_dratio(), 0.0);
  // Schedule overrides still win over any stored ratio.
  Options forced;
  forced.dratio = 1.5;
  forced.schedule = Schedule::Static;
  EXPECT_DOUBLE_EQ(forced.resolved_dratio(), 0.0);
  forced.schedule = Schedule::Dynamic;
  EXPECT_DOUBLE_EQ(forced.resolved_dratio(), 1.0);
}

TEST(CaluPlan, OwnersMatchSplit) {
  layout::Tiling t{200, 200, 20};  // 10 panels
  layout::Grid g{2, 2};
  auto plan = core::build_plan(t, g, Layout::BlockCyclic, 0.5, 1);
  for (int id = 0; id < plan.graph.num_tasks(); ++id) {
    const sched::Task& task = plan.graph.task(id);
    const int col = task.j;
    if (col < plan.nstatic)
      EXPECT_GE(task.owner, 0) << "task " << id;
    else
      EXPECT_EQ(task.owner, sched::kDynamicOwner) << "task " << id;
  }
}

TEST(CaluPlan, GroupingReducesTaskCount) {
  layout::Tiling t{600, 600, 20};
  layout::Grid g{3, 2};
  auto grouped = core::build_plan(t, g, Layout::BlockCyclic, 0.0, 3);
  auto single = core::build_plan(t, g, Layout::BlockCyclic, 0.0, 1);
  EXPECT_LT(grouped.graph.num_tasks(), single.graph.num_tasks());
  auto two_level = core::build_plan(t, g, Layout::TwoLevelBlock, 0.0, 3);
  EXPECT_EQ(two_level.graph.num_tasks(), single.graph.num_tasks());
}

TEST(CaluPlan, DotExportContainsTasks) {
  layout::Tiling t{64, 64, 16};  // 4x4 tiles, the paper's Figure 3 example
  layout::Grid g{2, 2};
  auto plan = core::build_plan(t, g, Layout::BlockCyclic, 0.25, 1);
  const std::string dot = core::plan_to_dot(plan);
  EXPECT_NE(dot.find("digraph calu"), std::string::npos);
  EXPECT_NE(dot.find("(static)"), std::string::npos);
  EXPECT_NE(dot.find("(dynamic)"), std::string::npos);
}

TEST(CaluPlan, WholeJobPlanIsOneDynamicTask) {
  // One task any thread may run, so a fused batch of whole-job plans
  // balances under every engine and d-ratio.
  layout::Tiling t{64, 64, 16};
  auto plan = core::build_whole_job_plan(t, layout::Grid{2, 2});
  ASSERT_EQ(plan.graph.num_tasks(), 1);
  const sched::Task& task = plan.graph.task(0);
  EXPECT_EQ(task.kind, trace::Kind::P);
  EXPECT_EQ(task.owner, sched::kDynamicOwner);
  EXPECT_EQ(plan.npanels, 4);
  EXPECT_EQ(plan.nstatic, 0);
}

// -------------------------------------------------------- plan kind ---

TEST(CaluPlanKind, DependsOnlyOnTheShape) {
  // The crossover reads (m, n) alone.  Below it and above it, the plan
  // kind must not move with the tile size, threads, engine, layout or
  // precision; otherwise two entry points could factor one job
  // differently.
  const struct {
    int m, n;
    core::PlanKind plan;
  } shapes[] = {{256, 256, core::PlanKind::WholeJob},
                {257, 257, core::PlanKind::Tiled}};
  // Just below the crossover and just above it.
  ASSERT_LE(model::lu_flops(256, 256), core::kWholeJobFlops);
  ASSERT_GT(model::lu_flops(257, 257), core::kWholeJobFlops);
  for (const auto& sh : shapes)
    for (int t : {1, 2, 4, 8}) {
      sched::Session session(sched::SessionOptions{t, false});
      for (const std::string& engine : sched::engine_names())
        for (Layout l :
             {Layout::BlockCyclic, Layout::TwoLevelBlock, Layout::ColumnMajor})
          for (core::Precision p :
               {core::Precision::Double, core::Precision::Float32})
            for (int b : {48, 144}) {
              SCOPED_TRACE(engine + " threads=" + std::to_string(t) + " " +
                           layout::layout_name(l) + " " +
                           core::precision_name(p) + " b=" +
                           std::to_string(b) + " m=" + std::to_string(sh.m));
              Options o;
              o.b = b;
              o.threads = t;
              o.pin_threads = false;
              o.engine = engine;
              o.layout = l;
              o.precision = p;
              Matrix a = Matrix::random(sh.m, sh.n, 70);
              Factorization f = core::getrf(a, o, session);
              EXPECT_EQ(f.stats.plan, sh.plan);
              EXPECT_EQ(f.stats.npanels, (std::min(sh.m, sh.n) + b - 1) / b);
              if (sh.plan == core::PlanKind::WholeJob) {
                EXPECT_EQ(f.stats.tasks, 1);
              }
            }
    }
}

TEST(CaluPlanKind, WholeJobMatchesRecursiveGepp) {
  // The whole-job task is blas::getrf_recursive, in place on the
  // column-major buffer the drivers pack, or on a gather of a caller's
  // tiled packing.  Every storage route must give a direct call's pivots
  // and factors, bit for bit, for square, tall and wide shapes:
  // getrf(Matrix&) under each Options::layout, getrf(PackedMatrix&) on
  // caller-packed BCL and 2l-BL matrices, and a factor-only fused job.
  const struct {
    int m, n;
  } shapes[] = {{64, 64}, {96, 40}, {40, 96}};
  for (const auto& sh : shapes) {
    SCOPED_TRACE("m=" + std::to_string(sh.m) + " n=" + std::to_string(sh.n));
    const Matrix a0 = Matrix::random(sh.m, sh.n, 71);
    Matrix ref = a0;
    std::vector<int> ipiv(std::min(sh.m, sh.n));
    blas::getrf_recursive(sh.m, sh.n, ref.data(), ref.ld(), ipiv.data());
    Options o;
    o.b = 16;
    o.threads = 4;
    o.pin_threads = false;
    auto expect_ref = [&](const Factorization& f, const Matrix& lu) {
      EXPECT_EQ(f.stats.plan, core::PlanKind::WholeJob);
      EXPECT_EQ(f.ipiv, ipiv);
      EXPECT_EQ(test::max_abs_diff(lu, ref), 0.0);
    };
    for (Layout l :
         {Layout::BlockCyclic, Layout::TwoLevelBlock, Layout::ColumnMajor}) {
      SCOPED_TRACE(layout::layout_name(l));
      o.layout = l;
      Matrix a = a0;
      expect_ref(core::getrf(a, o), a);
      if (l == Layout::ColumnMajor) continue;
      layout::PackedMatrix p =
          layout::PackedMatrix::pack(a0, l, o.b, o.resolved_grid());
      const Factorization f = core::getrf(p, o);
      p.unpack(a);
      expect_ref(f, a);
    }
    Matrix a = a0;
    std::vector<core::BatchJob> jobs(1);
    jobs[0].a = &a;
    jobs[0].options = o;
    sched::Session session(sched::SessionOptions{2, false});
    expect_ref(core::batched_run(jobs, session).jobs[0].factorization, a);
  }
}

// ---------------------------------------------------------- tracing ---

TEST(CaluTrace, RecorderCapturesAllTaskKinds) {
  trace::Recorder rec;
  Options o;
  o.b = 48;
  o.threads = 4;
  o.pin_threads = false;
  o.recorder = &rec;
  Matrix a = Matrix::random(384, 384, 65);
  test::expect_tiled(core::getrf(a, o).stats);
  EXPECT_EQ(rec.threads(), 4);
  bool saw[4] = {false, false, false, false};
  int total = 0;
  for (int t = 0; t < rec.threads(); ++t)
    for (const auto& e : rec.thread_events(t)) {
      ++total;
      if (e.kind == trace::Kind::P) saw[0] = true;
      if (e.kind == trace::Kind::L) saw[1] = true;
      if (e.kind == trace::Kind::U) saw[2] = true;
      if (e.kind == trace::Kind::S) saw[3] = true;
      EXPECT_LE(e.t0, e.t1);
    }
  EXPECT_TRUE(saw[0] && saw[1] && saw[2] && saw[3]);
  EXPECT_GT(total, 0);
  EXPECT_GT(rec.makespan(), 0.0);
}

// ------------------------------------------------------------ solve ---

TEST(CaluSolve, GesvSmallResidual) {
  const int n = 300;
  Matrix a = Matrix::random(n, n, 66);
  Matrix b = Matrix::random(n, 3, 67);
  Options o;
  o.b = 48;
  o.threads = 4;
  o.pin_threads = false;
  auto res = core::gesv(a, b, o);
  test::expect_tiled(res.factorization.stats);
  EXPECT_LT(res.residual, 1e-13);
}

}  // namespace
}  // namespace calu
