// pack_reuse_test.cpp — correctness of pack-once-per-panel (pL/pU tasks).
//
// The contract (see microkernel.h): packing a panel once per step and
// sharing it across every S task of the step must be *bit-identical* to
// packing per task, because the register kernels' per-element arithmetic
// is independent of strip boundaries and of which write-back path runs.
// These tests factor the same matrix with pack_panels on and off and
// require exact equality, and pin the pack-count asymptotics: O(nb) pack
// operations per step with the arena, O(nb^2) without.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "src/blas/blas.h"
#include "src/core/calu.h"
#include "src/layout/matrix.h"
#include "src/trace/svg.h"
#include "src/trace/timeline.h"
#include "tests/test_util.h"

namespace calu {
namespace {

using core::Factorization;
using core::Options;
using layout::Layout;
using layout::Matrix;

Factorization factor(int m, int n, const Options& opt, std::uint64_t seed,
                     Matrix* lu) {
  *lu = Matrix::random(m, n, seed);
  return core::getrf(*lu, opt);
}

Options base_options(Layout lay) {
  Options o;
  o.b = 64;
  o.threads = 4;
  o.pin_threads = false;
  o.layout = lay;
  o.dratio = 0.25;
  return o;
}

TEST(PackReuse, BitIdenticalOnOff) {
  for (Layout lay :
       {Layout::BlockCyclic, Layout::TwoLevelBlock, Layout::ColumnMajor}) {
    Options on = base_options(lay);
    on.pack_panels = true;
    Options off = on;
    off.pack_panels = false;
    Matrix lu_on, lu_off;
    Factorization f_on = factor(320, 320, on, 77, &lu_on);
    Factorization f_off = factor(320, 320, off, 77, &lu_off);
    test::expect_tiled(f_on.stats);
    EXPECT_EQ(f_on.ipiv, f_off.ipiv);
    EXPECT_EQ(test::max_abs_diff(lu_on, lu_off), 0.0)
        << layout::layout_name(lay);
    EXPECT_GT(f_on.stats.pack_tasks, 0u);
    EXPECT_EQ(f_off.stats.pack_tasks, 0u);
  }
}

TEST(PackReuse, BitIdenticalOnRaggedShapes) {
  // Partial edge tiles, partial last panel, wide and tall shapes.
  const struct {
    int m, n;
  } shapes[] = {{474, 380}, {380, 474}, {260, 260}};
  for (const auto& s : shapes) {
    Options on = base_options(Layout::BlockCyclic);
    on.b = 96;
    on.pack_panels = true;
    Options off = on;
    off.pack_panels = false;
    Matrix lu_on, lu_off;
    Matrix a0 = Matrix::random(s.m, s.n, 88);
    Factorization f_on = factor(s.m, s.n, on, 88, &lu_on);
    Factorization f_off = factor(s.m, s.n, off, 88, &lu_off);
    test::expect_tiled(f_on.stats);
    EXPECT_EQ(f_on.ipiv, f_off.ipiv);
    EXPECT_EQ(test::max_abs_diff(lu_on, lu_off), 0.0)
        << s.m << "x" << s.n;
    const double res = blas::lu_residual(
        s.m, s.n, a0.data(), a0.ld(), lu_on.data(), lu_on.ld(),
        f_on.ipiv.data(), static_cast<int>(f_on.ipiv.size()));
    EXPECT_LT(res, 200.0);
  }
}

TEST(PackReuse, BitIdenticalAcrossGrouping) {
  Options o = base_options(Layout::BlockCyclic);
  o.pack_panels = true;
  Matrix lu1, lu3;
  o.group_factor = 1;
  Factorization f1 = factor(320, 320, o, 99, &lu1);
  o.group_factor = 3;
  Factorization f3 = factor(320, 320, o, 99, &lu3);
  test::expect_tiled(f1.stats);
  EXPECT_EQ(f1.ipiv, f3.ipiv);
  EXPECT_EQ(test::max_abs_diff(lu1, lu3), 0.0);
}

TEST(PackReuse, PackCountIsLinearPerStep) {
  // 8x8 tiles, ungrouped: step k has (mb-k-1) pL + (nb-k-1) pU tasks and
  // (mb-k-1)*(nb-k-1) S tasks.
  const int n = 384, b = 48, nb = n / b;
  Options o = base_options(Layout::ColumnMajor);
  o.b = b;
  o.group_factor = 1;
  std::uint64_t expect_pack = 0, expect_s = 0;
  for (int k = 0; k < nb - 1; ++k) {
    expect_pack += 2 * static_cast<std::uint64_t>(nb - k - 1);
    expect_s += static_cast<std::uint64_t>(nb - k - 1) * (nb - k - 1);
  }
  Matrix lu;
  o.pack_panels = true;
  Factorization f_on = factor(n, n, o, 11, &lu);
  test::expect_tiled(f_on.stats);
  EXPECT_EQ(f_on.stats.pack_tasks, expect_pack);
  EXPECT_EQ(f_on.stats.s_operand_packs, expect_pack);
  o.pack_panels = false;
  Factorization f_off = factor(n, n, o, 11, &lu);
  EXPECT_EQ(f_off.stats.pack_tasks, 0u);
  EXPECT_EQ(f_off.stats.s_operand_packs, 2 * expect_s);
  // The point of the change: O(nb) vs O(nb^2) operand packs.
  EXPECT_LT(f_on.stats.s_operand_packs, f_off.stats.s_operand_packs);
}

TEST(PackReuse, PackTasksRenderInTimelines) {
  // Regression: the pL/pU kinds index past any per-kind table sized for
  // the original five kinds (caught as a heap overflow in
  // ascii_timeline).
  trace::Recorder rec;
  Options o = base_options(Layout::BlockCyclic);
  o.pack_panels = true;
  o.recorder = &rec;
  Matrix a = Matrix::random(320, 320, 7);
  test::expect_tiled(core::getrf(a, o).stats);
  bool saw_pack = false;
  for (int t = 0; t < rec.threads(); ++t)
    for (const auto& e : rec.thread_events(t))
      if (e.kind == trace::Kind::PackL || e.kind == trace::Kind::PackU)
        saw_pack = true;
  EXPECT_TRUE(saw_pack);
  EXPECT_FALSE(trace::ascii_timeline(rec, 80).empty());
  EXPECT_NE(trace::svg_timeline(rec).find("#c5b0d5"), std::string::npos);
}

TEST(PackReuse, AllSchedulesBitIdenticalWithPacking) {
  Options o = base_options(Layout::BlockCyclic);
  o.pack_panels = true;
  Matrix ref_lu;
  Factorization ref = factor(320, 320, o, 123, &ref_lu);
  test::expect_tiled(ref.stats);
  const std::pair<core::Schedule, const char*> cases[] = {
      {core::Schedule::Static, "hybrid"},
      {core::Schedule::Dynamic, "hybrid"},
      {core::Schedule::Hybrid, "work-stealing"}};
  for (auto [s, engine] : cases) {
    Options os = o;
    os.schedule = s;
    os.engine = engine;
    Matrix lu;
    Factorization f = factor(320, 320, os, 123, &lu);
    EXPECT_EQ(ref.ipiv, f.ipiv) << core::schedule_name(s) << " " << engine;
    EXPECT_EQ(test::max_abs_diff(ref_lu, lu), 0.0)
        << core::schedule_name(s) << " " << engine;
  }
}

}  // namespace
}  // namespace calu
