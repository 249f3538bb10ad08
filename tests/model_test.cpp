// model_test.cpp — Theorem 1 and the LU cost model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "src/model/lu_cost.h"
#include "src/model/theorem1.h"

namespace calu {
namespace {

using model::ModelParams;

TEST(Theorem1, NoNoiseAllowsFullyStatic) {
  ModelParams m;
  m.t1 = 100.0;
  m.p = 10;
  EXPECT_DOUBLE_EQ(model::max_static_fraction(m), 1.0);
  EXPECT_DOUBLE_EQ(model::min_dynamic_fraction(m), 0.0);
}

TEST(Theorem1, UniformNoiseAllowsFullyStatic) {
  // δmax == δavg: every core slowed identically, nothing to rebalance.
  ModelParams m;
  m.t1 = 100.0;
  m.p = 10;
  m.delta_max = m.delta_avg = 3.0;
  EXPECT_DOUBLE_EQ(model::max_static_fraction(m), 1.0);
}

TEST(Theorem1, BoundFormula) {
  ModelParams m;
  m.t1 = 100.0;
  m.p = 10;       // Tp = 10
  m.delta_max = 3.0;
  m.delta_avg = 1.0;
  // fs <= 1 - (3-1)/10 = 0.8.
  EXPECT_NEAR(model::max_static_fraction(m), 0.8, 1e-12);
  EXPECT_NEAR(model::min_dynamic_fraction(m), 0.2, 1e-12);
}

TEST(Theorem1, ClampsToZeroUnderExtremeNoise) {
  ModelParams m;
  m.t1 = 10.0;
  m.p = 10;       // Tp = 1
  m.delta_max = 5.0;
  m.delta_avg = 0.0;
  EXPECT_DOUBLE_EQ(model::max_static_fraction(m), 0.0);
}

TEST(Theorem1, AtTheBoundStaticTimeEqualsIdealTime) {
  // The proof's breakpoint: tactual(fs*) == tideal.
  ModelParams m;
  m.t1 = 200.0;
  m.p = 8;
  m.delta_max = 4.0;
  m.delta_avg = 1.5;
  const double fs = model::max_static_fraction(m);
  EXPECT_NEAR(model::static_time(m, fs), model::ideal_time(m), 1e-9);
  // Below the bound the dynamic remainder rebalances everything: the
  // schedule still attains ideal time exactly, and never beats it
  // (without the floor, fs -> 0 schedules would read faster than
  // perfectly balanced).
  EXPECT_DOUBLE_EQ(model::static_time(m, fs * 0.9), model::ideal_time(m));
  EXPECT_DOUBLE_EQ(model::static_time(m, 0.0), model::ideal_time(m));
  // Above it, the δmax-burdened core is the bottleneck and time rises.
  EXPECT_GT(model::static_time(m, 1.0), model::ideal_time(m));
}

TEST(Theorem1, LargerT1AllowsLargerStaticFraction) {
  // Section 6: "increasing matrix size allows us to increase the maximum
  // static fraction".
  ModelParams small, big;
  small.t1 = 50.0;
  big.t1 = 500.0;
  small.p = big.p = 16;
  small.delta_max = big.delta_max = 2.0;
  small.delta_avg = big.delta_avg = 0.5;
  EXPECT_GT(model::max_static_fraction(big),
            model::max_static_fraction(small));
}

TEST(Theorem1, OverheadTermsIncreaseTpAndStaticFraction) {
  // Adding TcriticalPath / Tmigration / Toverhead to the denominator
  // (Section 6's extension) raises the tolerable static fraction.
  ModelParams base;
  base.t1 = 100.0;
  base.p = 10;
  base.delta_max = 3.0;
  base.delta_avg = 1.0;
  ModelParams ext = base;
  ext.t_critical = 5.0;
  ext.t_migration = 2.0;
  ext.t_overhead = 3.0;
  EXPECT_GT(model::parallel_time(ext), model::parallel_time(base));
  EXPECT_GT(model::max_static_fraction(ext),
            model::max_static_fraction(base));
}

// ------------------------------------------------- model invariants ---
// Properties any ranking of static fractions by these functions relies
// on, swept over a seeded randomized parameter grid so a model edit that
// holds on hand-picked points but not in general still fails here.

// Deterministic xorshift64* grid — seeded, so failures reproduce exactly.
class SeededGrid {
 public:
  explicit SeededGrid(std::uint64_t seed) : state_(seed) {}
  double uniform(double lo, double hi) {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    const double u =
        static_cast<double>((state_ * 0x2545F4914F6CDD1DULL) >> 11) /
        static_cast<double>(1ULL << 53);
    return lo + u * (hi - lo);
  }
  int uniform_int(int lo, int hi) {
    return lo + static_cast<int>(uniform(0.0, hi - lo + 1.0));
  }

 private:
  std::uint64_t state_;
};

ModelParams random_params(SeededGrid& g) {
  ModelParams m;
  m.t1 = g.uniform(1.0, 1e4);
  m.p = g.uniform_int(1, 512);
  m.delta_avg = g.uniform(0.0, 5.0);
  m.delta_max = m.delta_avg + g.uniform(0.0, 50.0);  // δmax >= δavg
  m.t_critical = g.uniform(0.0, 10.0);
  m.t_migration = g.uniform(0.0, 10.0);
  m.t_overhead = g.uniform(0.0, 10.0);
  return m;
}

TEST(Theorem1Properties, MaxStaticFractionClampedToUnitInterval) {
  SeededGrid g(0xC0FFEE01);
  for (int i = 0; i < 2000; ++i) {
    ModelParams m = random_params(g);
    const double fs = model::max_static_fraction(m);
    EXPECT_GE(fs, 0.0) << "case " << i;
    EXPECT_LE(fs, 1.0) << "case " << i;
    EXPECT_NEAR(model::min_dynamic_fraction(m), 1.0 - fs, 1e-12);
  }
}

TEST(Theorem1Properties, MaxStaticFractionMonotoneInSpread) {
  // Non-increasing in δmax − δavg, everything else fixed: more noise can
  // only shrink the static share Theorem 1 tolerates.
  SeededGrid g(0xC0FFEE02);
  for (int i = 0; i < 500; ++i) {
    ModelParams m = random_params(g);
    double prev = model::max_static_fraction(m);
    for (double bump = 0.5; bump <= 8.0; bump *= 2.0) {
      ModelParams wider = m;
      wider.delta_max = m.delta_max + bump;
      const double fs = model::max_static_fraction(wider);
      EXPECT_LE(fs, prev + 1e-12)
          << "case " << i << " spread bump " << bump;
      prev = fs;
    }
  }
}

TEST(Theorem1Properties, StaticTimeNeverBeatsIdealTime) {
  SeededGrid g(0xC0FFEE03);
  for (int i = 0; i < 1000; ++i) {
    ModelParams m = random_params(g);
    for (double fs = 0.0; fs <= 1.0; fs += 0.125) {
      EXPECT_GE(model::static_time(m, fs), model::ideal_time(m) - 1e-9)
          << "case " << i << " fs " << fs;
    }
    // And where the bound is interior (not clamped at 0 — under extreme
    // noise δmax alone exceeds ideal time and no schedule attains it),
    // the breakpoint is exactly where the two regimes meet.
    if (m.delta_max - m.delta_avg <= model::parallel_time(m)) {
      const double fstar = model::max_static_fraction(m);
      EXPECT_NEAR(model::static_time(m, fstar), model::ideal_time(m),
                  1e-9 * std::max(1.0, model::ideal_time(m)));
    }
  }
}

TEST(Theorem1Properties, ProjectionNonDecreasingInP) {
  // project_min_dynamic with non-negative amplification must be
  // non-decreasing in p regardless of the base point.
  SeededGrid g(0xC0FFEE04);
  for (int i = 0; i < 200; ++i) {
    const double work = g.uniform(0.1, 100.0);
    const double spread0 = g.uniform(0.0, 1.0);
    const int p0 = g.uniform_int(1, 64);
    const double alpha = g.uniform(0.0, 2.0);
    const auto pts = model::project_min_dynamic(
        work, spread0, p0, alpha, {8, 32, 128, 512, 2048, 8192});
    for (std::size_t j = 1; j < pts.size(); ++j) {
      EXPECT_GE(pts[j].min_dynamic, pts[j - 1].min_dynamic - 1e-12)
          << "case " << i << " step " << j;
      EXPECT_GE(pts[j].min_dynamic, 0.0);
      EXPECT_LE(pts[j].min_dynamic, 1.0);
    }
  }
}

TEST(Projection, MinDynamicGrowsWithScale) {
  // Section 7: with constant work per core and noise amplification, the
  // minimum dynamic fraction must increase with p.
  auto pts = model::project_min_dynamic(1.0, 0.01, 16, 0.5,
                                        {16, 64, 256, 1024, 4096});
  ASSERT_EQ(pts.size(), 5u);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GE(pts[i].min_dynamic, pts[i - 1].min_dynamic);
    EXPECT_GT(pts[i].delta_spread, pts[i - 1].delta_spread);
  }
}

TEST(Projection, NoAmplificationKeepsDynamicFlat) {
  auto pts = model::project_min_dynamic(1.0, 0.01, 16, 0.0, {16, 1024});
  EXPECT_NEAR(pts[0].min_dynamic, pts[1].min_dynamic, 1e-12);
}

// ------------------------------------------------------------ lu_cost ---

TEST(LuCost, SquareMatchesTwoThirdsCube) {
  const double n = 1000;
  EXPECT_NEAR(model::lu_flops(n, n), 2.0 / 3.0 * n * n * n, 0.01 * n * n * n);
}

TEST(LuCost, RectangularReducesToFormula) {
  // m x n with m >= n: 2*(m*n*n/... ) — check against direct summation.
  const int m = 60, n = 40;
  double direct = 0.0;
  for (int j = 0; j < n; ++j)
    direct += 2.0 * (m - j - 1) * (n - j - 1) + (m - j - 1);
  const double formula = model::lu_flops(m, n);
  EXPECT_NEAR(formula, direct, 0.05 * direct);
}

TEST(LuCost, GflopsHelper) {
  EXPECT_DOUBLE_EQ(model::gflops(2e9, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(model::gflops(1e9, 0.0), 0.0);
}

}  // namespace
}  // namespace calu
