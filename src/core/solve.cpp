#include "src/core/solve.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "src/blas/blas.h"

namespace calu::core {

void getrs(const layout::Matrix& lu, util::Span<const int> ipiv,
           layout::Matrix& b) {
  const int n = lu.cols();
  assert(lu.rows() == n && b.rows() == n);
  blas::laswp(b.cols(), b.data(), b.ld(), 0, static_cast<int>(ipiv.size()),
              ipiv.data());
  blas::trsm(blas::Side::Left, blas::UpLo::Lower, blas::Trans::No,
             blas::Diag::Unit, n, b.cols(), 1.0, lu.data(), lu.ld(), b.data(),
             b.ld());
  blas::trsm(blas::Side::Left, blas::UpLo::Upper, blas::Trans::No,
             blas::Diag::NonUnit, n, b.cols(), 1.0, lu.data(), lu.ld(),
             b.data(), b.ld());
}

double solve_residual(const layout::Matrix& a, const layout::Matrix& x,
                      const layout::Matrix& b) {
  layout::Matrix r = b;
  blas::gemm(blas::Trans::No, blas::Trans::No, a.rows(), x.cols(), a.cols(),
             1.0, a.data(), a.ld(), x.data(), x.ld(), -1.0, r.data(), r.ld());
  // A non-finite residual (singular pivot ⇒ x holds inf/NaN) must report
  // as NaN: max-based norms silently skip NaN compares, which used to make
  // a garbage solution look *perfectly converged* (residual 0).
  for (int j = 0; j < r.cols(); ++j)
    for (int i = 0; i < r.rows(); ++i)
      if (!std::isfinite(r(i, j)))
        return std::numeric_limits<double>::quiet_NaN();
  const double na = blas::norm_inf(a.rows(), a.cols(), a.data(), a.ld());
  const double nx = blas::norm_inf(x.rows(), x.cols(), x.data(), x.ld());
  const double nb = blas::norm_inf(b.rows(), b.cols(), b.data(), b.ld());
  const double nr = blas::norm_inf(r.rows(), r.cols(), r.data(), r.ld());
  const double denom = na * nx + nb;
  return denom > 0.0 ? nr / denom : nr;
}

void solve_factored(const layout::Matrix& a, const layout::Matrix& b,
                    const layout::Matrix& lu, util::Span<const int> ipiv,
                    int max_refine, SolveResult& res, double stall_ratio) {
  res.x = b;
  getrs(lu, ipiv, res.x);
  res.residual = solve_residual(a, res.x, b);

  for (int it = 0; it < max_refine; ++it) {
    if (res.residual < 1e-15) break;
    if (stall_ratio > 0.0 && !std::isfinite(res.residual)) break;
    const double prev = res.residual;
    // r = b - A x; solve A d = r; x += d.
    layout::Matrix r = b;
    blas::gemm(blas::Trans::No, blas::Trans::No, a.rows(), b.cols(), a.cols(),
               -1.0, a.data(), a.ld(), res.x.data(), res.x.ld(), 1.0,
               r.data(), r.ld());
    getrs(lu, ipiv, r);
    for (int j = 0; j < res.x.cols(); ++j)
      for (int i = 0; i < res.x.rows(); ++i) res.x(i, j) += r(i, j);
    ++res.refine_steps;
    res.residual = solve_residual(a, res.x, b);
    // Stalled or diverging refinement never converges later (each step is
    // a fixed-point iteration with constant contraction rate): stop here.
    if (stall_ratio > 0.0 && !(res.residual < stall_ratio * prev)) break;
  }
}

namespace {

/// A refinement step that does not at least halve the residual is stalled:
/// converging mixed-precision refinement contracts by ~cond(A)*eps_f per
/// step, far below 1/2 whenever it converges at all.
constexpr double kMixedStallRatio = 0.5;

/// Float32 factors are only worth refining when they are finite and the
/// elimination did not blow up.  The growth limit is far above benign CALU
/// growth (O(n^{2/3})-ish in practice, bounded like partial pivoting up to
/// the tournament factor) but far below 1/eps_f ~ 8e6, where every float
/// digit of the factors is noise and refinement diverges.
bool factors_pathological(const layout::Matrix& a, const layout::Matrix& lu) {
  double lumax = 0.0;
  for (int j = 0; j < lu.cols(); ++j)
    for (int i = 0; i < lu.rows(); ++i) {
      const double v = lu(i, j);
      if (!std::isfinite(v)) return true;
      lumax = std::max(lumax, std::fabs(v));
    }
  double amax = 0.0;
  for (int j = 0; j < a.cols(); ++j)
    for (int i = 0; i < a.rows(); ++i)
      amax = std::max(amax, std::fabs(a(i, j)));
  constexpr double kGrowthLimit = 1e5;
  return amax > 0.0 && lumax > kGrowthLimit * amax;
}

}  // namespace

bool refine_float(const layout::Matrix& a, const layout::Matrix& b,
                  const layout::Matrix& lu, const Options& opt,
                  SolveResult& res) {
  if (factors_pathological(a, lu)) return false;
  solve_factored(a, b, lu, res.factorization.ipiv, opt.max_refine, res,
                 kMixedStallRatio);
  // Double-quality backward error or bust.  max_refine = 0 means the
  // caller asked for the float-accuracy solution: accept it unless the
  // solve itself produced non-finite values.
  const double accept =
      100.0 * a.rows() * std::numeric_limits<double>::epsilon();
  return opt.max_refine > 0 ? res.residual <= accept
                            : !std::isnan(res.residual);
}

void fallback_double(const layout::Matrix& a, const layout::Matrix& b,
                     const Options& opt, sched::Session& session,
                     SolveResult& res) {
  Options dopt = opt;
  dopt.precision = Precision::Double;
  res = gesv(a, b, dopt, session);
  res.used_fallback = true;
}

void refine_mixed(const layout::Matrix& a, const layout::Matrix& b,
                  const layout::Matrix& lu, const Options& opt,
                  sched::Session& session, SolveResult& res) {
  if (!refine_float(a, b, lu, opt, res))
    fallback_double(a, b, opt, session, res);
}

SolveResult gesv_mixed(const layout::Matrix& a, const layout::Matrix& b,
                       const Options& opt) {
  sched::Session ephemeral(session_options_from(opt));
  return gesv_mixed(a, b, opt, ephemeral);
}

SolveResult gesv_mixed(const layout::Matrix& a, const layout::Matrix& b,
                       const Options& opt, sched::Session& session) {
  assert(a.rows() == a.cols() && a.rows() == b.rows());
  SolveResult res;
  Options fopt = opt;
  fopt.precision = Precision::Float32;
  layout::Matrix lu = a;
  res.factorization = getrf(lu, fopt, session);  // float-accuracy factors
  refine_mixed(a, b, lu, opt, session, res);
  return res;
}

SolveResult gesv(const layout::Matrix& a, const layout::Matrix& b,
                 const Options& opt) {
  sched::Session ephemeral(session_options_from(opt));
  return gesv(a, b, opt, ephemeral);
}

SolveResult gesv(const layout::Matrix& a, const layout::Matrix& b,
                 const Options& opt, sched::Session& session) {
  assert(a.rows() == a.cols() && a.rows() == b.rows());
  SolveResult res;
  layout::Matrix lu = a;
  res.factorization = getrf(lu, opt, session);
  solve_factored(a, b, lu, res.factorization.ipiv, opt.max_refine, res);
  return res;
}

}  // namespace calu::core
