#include "src/core/solve.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/blas/blas.h"
#include "src/blas/microkernel.h"

namespace calu::core {
namespace {

/// Tile width under which a column-major [L\U] is walked.
constexpr int kColumnMajorTile = 128;

/// Columns per strip of a diagonal tile: the strip's own triangle is
/// solved in scalar code, the rest of the tile by one panel_fma.
constexpr int kStrip = 8;

/// Columns of A per step of the residual pass: small enough that a
/// step's columns are still in cache for the ‖A‖∞ row sums after it.
constexpr int kResidualCols = 16;

/// A square factored matrix seen as b x b tiles: the packed matrix an
/// engine run left, or a column-major [L\U].  `deferred` marks the
/// engine's deferred form (GetrfJob::finish_deferred on a tiled plan),
/// where panel k's L tiles carry the swaps of panels <= k only;
/// otherwise the factors are LAPACK-form, every swap applied across full
/// rows.
struct Factors {
  layout::Tiling tiling;
  const layout::PackedMatrix* packed = nullptr;
  const double* cm = nullptr;  // column-major storage when not packed
  int ld = 0;
  util::Span<const int> ipiv;
  bool deferred = false;

  layout::BlockRef block(int I, int J) const {
    if (packed != nullptr) return packed->block(I, J);
    return {const_cast<double*>(cm) + tiling.row0(I) +
                static_cast<std::size_t>(tiling.col0(J)) * ld,
            ld, tiling.tile_rows(I), tiling.tile_cols(J)};
  }
};

/// The Matrix-level entry points take factors, pivots and right-hand
/// sides from the caller, so their shapes are checked in every build.
Factors column_major(const layout::Matrix& lu, util::Span<const int> ipiv,
                     const layout::Matrix& rhs) {
  const int n = lu.rows();
  if (lu.cols() != n || rhs.rows() != n ||
      ipiv.size() != static_cast<std::size_t>(n))
    throw std::invalid_argument(
        "LU solve: factors not square, or pivots or right-hand side of "
        "another size");
  Factors f;
  f.tiling = layout::Tiling{lu.rows(), lu.cols(), kColumnMajorTile};
  f.cm = lu.data();
  f.ld = lu.ld();
  f.ipiv = ipiv;
  return f;
}

Factors packed_form(const layout::PackedMatrix& lu, const Factorization& fz) {
  Factors f;
  f.tiling = lu.tiling();
  f.packed = &lu;
  f.ipiv = fz.ipiv;
  f.deferred = fz.stats.plan == PlanKind::Tiled;
  return f;
}

/// x := L^{-1} x for the unit lower triangle of the diagonal tile `t`.
void lower_unit(const layout::BlockRef& t, double* x, int ldx, int nrhs,
                const blas::MicroKernel& mk) {
  const int kk = t.cols;
  for (int j0 = 0; j0 < kk; j0 += kStrip) {
    const int j1 = std::min(kk, j0 + kStrip);
    for (int c = 0; c < nrhs; ++c) {
      double* xc = x + static_cast<std::size_t>(c) * ldx;
      for (int p = j0; p < j1; ++p) {
        const double* lp = t.ptr + static_cast<std::size_t>(p) * t.ld;
        for (int i = p + 1; i < j1; ++i) xc[i] -= lp[i] * xc[p];
      }
    }
    if (j1 < kk)
      mk.panel_fma(kk - j1, nrhs, j1 - j0,
                   t.ptr + j1 + static_cast<std::size_t>(j0) * t.ld, t.ld,
                   x + j0, ldx, x + j1, ldx);
  }
}

/// x := U^{-1} x for the non-unit upper triangle of the diagonal tile `t`.
void upper(const layout::BlockRef& t, double* x, int ldx, int nrhs,
           const blas::MicroKernel& mk) {
  for (int j1 = t.cols; j1 > 0; j1 -= kStrip) {
    const int j0 = std::max(0, j1 - kStrip);
    for (int c = 0; c < nrhs; ++c) {
      double* xc = x + static_cast<std::size_t>(c) * ldx;
      for (int p = j1 - 1; p >= j0; --p) {
        const double* up = t.ptr + static_cast<std::size_t>(p) * t.ld;
        xc[p] /= up[p];
        for (int i = j0; i < p; ++i) xc[i] -= up[i] * xc[p];
      }
    }
    if (j0 > 0)
      mk.panel_fma(j0, nrhs, j1 - j0,
                   t.ptr + static_cast<std::size_t>(j0) * t.ld, t.ld, x + j0,
                   ldx, x, ldx);
  }
}

/// x_I += -(T x_k) for one off-diagonal tile T.  The product is formed
/// in the zeroed scratch `t` first, so each row sums one tile's terms in
/// a chain of its own before adding it in: the two-level summation of a
/// k-blocked gemm.  Summing straight into x doubled the backward error
/// at n = 1536, which pushed well-conditioned solves past the
/// refinement's 1e-15 stop.
void tile_update(const blas::MicroKernel& mk, const layout::BlockRef& tile,
                 const double* xk, double* xi, int ldx, int nrhs,
                 std::vector<double>& t) {
  t.assign(static_cast<std::size_t>(tile.rows) * nrhs, 0.0);
  mk.panel_fma(tile.rows, nrhs, tile.cols, tile.ptr, tile.ld, xk, ldx,
               t.data(), tile.rows);
  for (int c = 0; c < nrhs; ++c)
    for (int i = 0; i < tile.rows; ++i)
      xi[i + static_cast<std::size_t>(c) * ldx] +=
          t[i + static_cast<std::size_t>(c) * tile.rows];
}

/// The one substitution routine: x := A^{-1} x in place from the factors
/// of A.  Deferred factors get panel k's swaps just before forward step
/// k.  That is exact: at step k the rows of x below panel k carry the
/// swaps of panels <= k, exactly as the L tiles of panel k do — it is
/// the factorization's own right-swap order with x as one more column.
/// LAPACK-form factors get every swap first, as getrs does.  The tile
/// updates x_I -= L(I,k) x_k (and U's, backwards) go through the
/// dispatched panel_fma kernel, which streams each tile once with no
/// packing and no padding of x to the register width, one rounding per
/// term.
void lu_solve(const Factors& f, layout::Matrix& x) {
  const layout::Tiling& tl = f.tiling;
  const blas::MicroKernel& mk = blas::active_kernel();
  const int nt = tl.nb(), nrhs = x.cols(), ldx = x.ld();
  double* xd = x.data();
  std::vector<double> t;
  if (!f.deferred)
    blas::laswp(nrhs, xd, ldx, 0, static_cast<int>(f.ipiv.size()),
                f.ipiv.data());
  for (int k = 0; k < nt; ++k) {
    const int r0 = tl.row0(k);
    if (f.deferred)
      blas::laswp(nrhs, xd, ldx, r0, r0 + tl.tile_cols(k), f.ipiv.data());
    lower_unit(f.block(k, k), xd + r0, ldx, nrhs, mk);
    for (int I = k + 1; I < nt; ++I)
      tile_update(mk, f.block(I, k), xd + r0, xd + tl.row0(I), ldx, nrhs, t);
  }
  for (int k = nt - 1; k >= 0; --k) {
    const int r0 = tl.row0(k);
    upper(f.block(k, k), xd + r0, ldx, nrhs, mk);
    for (int I = 0; I < k; ++I)
      tile_update(mk, f.block(I, k), xd + r0, xd + tl.row0(I), ldx, nrhs, t);
  }
}

/// rowsum[i] += sum_j |a(i, j)| over w columns, in ascending j per row
/// (blas::norm_inf's order), 16 rows at a time so the sums stay in
/// registers.
void add_abs_rows(int m, int w, const double* a, int lda, double* rowsum) {
  constexpr int kRows = 16;
  int i0 = 0;
  for (; i0 + kRows <= m; i0 += kRows) {
    double s[kRows];
    std::copy_n(rowsum + i0, kRows, s);
    for (int j = 0; j < w; ++j) {
      const double* c = a + i0 + static_cast<std::size_t>(j) * lda;
      for (int q = 0; q < kRows; ++q) s[q] += std::fabs(c[q]);
    }
    std::copy_n(s, kRows, rowsum + i0);
  }
  for (; i0 < m; ++i0)
    for (int j = 0; j < w; ++j)
      rowsum[i0] += std::fabs(a[i0 + static_cast<std::size_t>(j) * lda]);
}

/// The residual r = b - A x and the normalized backward error
/// ‖r‖∞ / (‖A‖∞ ‖x‖∞ + ‖b‖∞).  ‖b‖∞ is taken once; ‖A‖∞ is formed in
/// the first pass over A and reused by every later one.
class Residual {
 public:
  Residual(const layout::Matrix& a, const layout::Matrix& b)
      : a_(a),
        b_(b),
        norm_b_(blas::norm_inf(b.rows(), b.cols(), b.data(), b.ld())) {}

  /// r := b - A x in one column-blocked pass over A.  NaN when r is not
  /// finite: max-based norms silently skip NaN compares, which would
  /// make a garbage solution (a singular pivot puts inf/NaN in x) look
  /// perfectly converged.
  double eval(const layout::Matrix& x) {
    const blas::MicroKernel& mk = blas::active_kernel();
    const int m = a_.rows(), n = a_.cols();
    r_ = b_;
    std::vector<double> rowsum(norm_a_ < 0.0 ? m : 0, 0.0);
    for (int j0 = 0; j0 < n; j0 += kResidualCols) {
      const int w = std::min(kResidualCols, n - j0);
      const double* aj = a_.data() + static_cast<std::size_t>(j0) * a_.ld();
      mk.panel_fma(m, x.cols(), w, aj, a_.ld(), x.data() + j0, x.ld(),
                   r_.data(), r_.ld());
      if (!rowsum.empty()) add_abs_rows(m, w, aj, a_.ld(), rowsum.data());
    }
    if (norm_a_ < 0.0)
      norm_a_ = m > 0 ? *std::max_element(rowsum.begin(), rowsum.end()) : 0.0;
    const double* rd = r_.data();
    const std::size_t count = static_cast<std::size_t>(r_.rows()) * r_.cols();
    for (std::size_t i = 0; i < count; ++i)
      if (!std::isfinite(rd[i]))
        return std::numeric_limits<double>::quiet_NaN();
    const double nx = blas::norm_inf(x.rows(), x.cols(), x.data(), x.ld());
    const double nr = blas::norm_inf(r_.rows(), r_.cols(), rd, r_.ld());
    const double denom = norm_a_ * nx + norm_b_;
    return denom > 0.0 ? nr / denom : nr;
  }

  /// b - A x as of the last eval().
  layout::Matrix& r() { return r_; }

 private:
  const layout::Matrix& a_;
  const layout::Matrix& b_;
  layout::Matrix r_;
  double norm_a_ = -1.0;
  double norm_b_;
};

/// Solve + refinement from the factors `f`; see solve_factored.  Each
/// step solves for the correction in place on the residual the previous
/// check left, so every step streams A once and the factors once.
void refine(const layout::Matrix& a, const layout::Matrix& b,
            const Factors& f, int max_refine, SolveResult& res,
            double stall_ratio) {
  res.x = b;
  lu_solve(f, res.x);
  Residual resid(a, b);
  res.residual = resid.eval(res.x);

  for (int it = 0; it < max_refine; ++it) {
    if (res.residual < 1e-15) break;
    if (stall_ratio > 0.0 && !std::isfinite(res.residual)) break;
    const double prev = res.residual;
    // d = A^{-1} (b - A x); x += d.
    layout::Matrix& d = resid.r();
    lu_solve(f, d);
    for (int j = 0; j < res.x.cols(); ++j)
      for (int i = 0; i < res.x.rows(); ++i) res.x(i, j) += d(i, j);
    ++res.refine_steps;
    res.residual = resid.eval(res.x);
    // Stalled or diverging refinement never converges later (each step is
    // a fixed-point iteration with constant contraction rate): stop here.
    if (stall_ratio > 0.0 && !(res.residual < stall_ratio * prev)) break;
  }
}

/// A refinement step that does not at least halve the residual is stalled:
/// converging mixed-precision refinement contracts by ~cond(A)*eps_f per
/// step, far below 1/2 whenever it converges at all.
constexpr double kMixedStallRatio = 0.5;

/// Float32 factors are only worth refining when they are finite and the
/// elimination did not blow up.  The growth limit is far above benign CALU
/// growth (O(n^{2/3})-ish in practice, bounded like partial pivoting up to
/// the tournament factor) but far below 1/eps_f ~ 8e6, where every float
/// digit of the factors is noise and refinement diverges.
bool factors_pathological(const layout::Matrix& a, const Factors& f) {
  double lumax = 0.0;
  for (int J = 0; J < f.tiling.nb(); ++J)
    for (int I = 0; I < f.tiling.mb(); ++I) {
      const layout::BlockRef t = f.block(I, J);
      for (int j = 0; j < t.cols; ++j)
        for (int i = 0; i < t.rows; ++i) {
          const double v = t.ptr[i + static_cast<std::size_t>(j) * t.ld];
          if (!std::isfinite(v)) return true;
          lumax = std::max(lumax, std::fabs(v));
        }
    }
  double amax = 0.0;
  for (int j = 0; j < a.cols(); ++j)
    for (int i = 0; i < a.rows(); ++i)
      amax = std::max(amax, std::fabs(a(i, j)));
  constexpr double kGrowthLimit = 1e5;
  return amax > 0.0 && lumax > kGrowthLimit * amax;
}

/// refine_float over any factor form.
bool accept_float(const layout::Matrix& a, const layout::Matrix& b,
                  const Factors& f, const Options& opt, SolveResult& res) {
  if (factors_pathological(a, f)) return false;
  refine(a, b, f, opt.max_refine, res, kMixedStallRatio);
  // Double-quality backward error or bust.  max_refine = 0 means the
  // caller asked for the float-accuracy solution: accept it unless the
  // solve itself produced non-finite values.
  const double accept =
      100.0 * a.rows() * std::numeric_limits<double>::epsilon();
  return opt.max_refine > 0 ? res.residual <= accept
                            : !std::isnan(res.residual);
}

void check_solve(const char* who, const layout::Matrix& a,
                 const layout::Matrix& b, const Options& opt) {
  if (const char* why = input_defect(&a, &b, opt))
    throw std::invalid_argument(std::string(who) + ": " + why);
}

}  // namespace

void getrs(const layout::Matrix& lu, util::Span<const int> ipiv,
           layout::Matrix& b) {
  lu_solve(column_major(lu, ipiv, b), b);
}

double solve_residual(const layout::Matrix& a, const layout::Matrix& x,
                      const layout::Matrix& b) {
  return Residual(a, b).eval(x);
}

void solve_factored(const layout::Matrix& a, const layout::Matrix& b,
                    const layout::Matrix& lu, util::Span<const int> ipiv,
                    int max_refine, SolveResult& res, double stall_ratio) {
  refine(a, b, column_major(lu, ipiv, b), max_refine, res, stall_ratio);
}

void solve_factored(const layout::Matrix& a, const layout::Matrix& b,
                    const layout::PackedMatrix& lu, int max_refine,
                    SolveResult& res, double stall_ratio) {
  refine(a, b, packed_form(lu, res.factorization), max_refine, res,
         stall_ratio);
}

bool refine_float(const layout::Matrix& a, const layout::Matrix& b,
                  const layout::PackedMatrix& lu, const Options& opt,
                  SolveResult& res) {
  return accept_float(a, b, packed_form(lu, res.factorization), opt, res);
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
  const Factors f = column_major(lu, res.factorization.ipiv, b);
  if (!accept_float(a, b, f, opt, res))
    fallback_double(a, b, opt, session, res);
}

SolveResult gesv_mixed(const layout::Matrix& a, const layout::Matrix& b,
                       const Options& opt) {
  sched::Session ephemeral(session_options_from(opt));
  return gesv_mixed(a, b, opt, ephemeral);
}

SolveResult gesv_mixed(const layout::Matrix& a, const layout::Matrix& b,
                       const Options& opt, sched::Session& session) {
  check_solve("gesv_mixed", a, b, opt);
  SolveResult res;
  Options fopt = opt;
  fopt.precision = Precision::Float32;
  layout::PackedMatrix lu;  // float-accuracy factors, double storage
  res.factorization = factor_packed(a, fopt, session, lu, false);
  if (!refine_float(a, b, lu, opt, res))
    fallback_double(a, b, opt, session, res);
  return res;
}

SolveResult gesv(const layout::Matrix& a, const layout::Matrix& b,
                 const Options& opt) {
  sched::Session ephemeral(session_options_from(opt));
  return gesv(a, b, opt, ephemeral);
}

SolveResult gesv(const layout::Matrix& a, const layout::Matrix& b,
                 const Options& opt, sched::Session& session) {
  check_solve("gesv", a, b, opt);
  SolveResult res;
  layout::PackedMatrix lu;
  res.factorization = factor_packed(a, opt, session, lu, false);
  solve_factored(a, b, lu, opt.max_refine, res);
  return res;
}

}  // namespace calu::core
