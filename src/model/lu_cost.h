// lu_cost.h — flop counts for dense LU, used to turn measured times into
// Gflop/s (the y-axis of every performance figure) and to instantiate the
// Theorem-1 model with algorithmic quantities.
#pragma once

namespace calu::model {

/// Flops of an LU factorization of an m x n matrix (LAPACK getrf count):
/// for m >= n: n^2*(m - n/3) - n^2/2 + ...; we use the standard
/// mn^2 - n^3/3 leading-order form that the dense-LA community quotes
/// (2/3 n^3 for square).
double lu_flops(double m, double n);

/// Flops of C(m x n) += A(m x k) * B(k x n).
inline double gemm_flops(double m, double n, double k) {
  return 2.0 * m * n * k;
}

/// Gflop/s helper.
inline double gflops(double flops, double seconds) {
  return seconds > 0.0 ? flops / seconds * 1e-9 : 0.0;
}

}  // namespace calu::model
