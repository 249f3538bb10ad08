// test_util.h — shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "src/blas/microkernel.h"
#include "src/core/calu.h"
#include "src/layout/matrix.h"

namespace calu::test {

/// Fixture base for per-dispatch-variant sweeps: instantiate with
/// ::testing::ValuesIn(blas::available_kernels()) and kernel_param_name;
/// each case runs under the named kernel and restores auto-selection.
class KernelVariantTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    ASSERT_TRUE(blas::select_kernel(GetParam().c_str()));
  }
  void TearDown() override { blas::select_kernel(nullptr); }
};

inline std::string kernel_param_name(
    const ::testing::TestParamInfo<std::string>& info) {
  return info.param;
}

/// Expects that a factorization ran the tiled CALU DAG.  Every test whose
/// subject is the DAG calls it, so raising core::kWholeJobFlops above its
/// shape fails the test instead of quietly turning it into a one-task
/// test.
inline void expect_tiled(const core::Stats& stats) {
  EXPECT_EQ(stats.plan, core::PlanKind::Tiled)
      << "the shape runs the whole-job plan; move it above "
         "core::kWholeJobFlops";
}

/// Naive reference GEMM: C = alpha*op(A)*op(B) + beta*C, used to validate
/// the blocked kernel.
inline void ref_gemm(bool ta, bool tb, int m, int n, int k, double alpha,
                     const double* a, int lda, const double* b, int ldb,
                     double beta, double* c, int ldc) {
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) {
      double s = 0.0;
      for (int p = 0; p < k; ++p) {
        const double av = ta ? a[p + static_cast<std::size_t>(i) * lda]
                             : a[i + static_cast<std::size_t>(p) * lda];
        const double bv = tb ? b[j + static_cast<std::size_t>(p) * ldb]
                             : b[p + static_cast<std::size_t>(j) * ldb];
        s += av * bv;
      }
      double& cc = c[i + static_cast<std::size_t>(j) * ldc];
      cc = alpha * s + beta * cc;
    }
}

inline double max_abs_diff(const layout::Matrix& a, const layout::Matrix& b) {
  double mx = 0.0;
  for (int j = 0; j < a.cols(); ++j)
    for (int i = 0; i < a.rows(); ++i)
      mx = std::max(mx, std::fabs(a(i, j) - b(i, j)));
  return mx;
}

inline std::vector<double> random_vec(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  std::vector<double> v(n);
  for (auto& x : v) x = d(rng);
  return v;
}

}  // namespace calu::test
