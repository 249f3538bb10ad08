#include "src/core/solve.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
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
/// engine run left, or a column-major [L\U], with elements of type T.
/// `deferred` marks the engine's deferred form
/// (GetrfJob::finish_deferred on a tiled plan), where panel k's L tiles
/// carry the swaps of panels <= k only; otherwise the factors are
/// LAPACK-form, every swap applied across full rows.
template <class T>
struct Factors {
  layout::Tiling tiling;
  const layout::PackedMatrixT<T>* packed = nullptr;
  const T* cm = nullptr;  // column-major storage when not packed
  int ld = 0;
  util::Span<const int> ipiv;
  bool deferred = false;

  layout::BlockRefT<T> block(int I, int J) const {
    if (packed != nullptr) return packed->block(I, J);
    return {const_cast<T*>(cm) + tiling.row0(I) +
                static_cast<std::size_t>(tiling.col0(J)) * ld,
            ld, tiling.tile_rows(I), tiling.tile_cols(J)};
  }
};

/// The Matrix-level entry points take factors, pivots and right-hand
/// sides from the caller, so their shapes are checked in every build.
Factors<double> column_major(const layout::Matrix& lu,
                             util::Span<const int> ipiv,
                             const layout::Matrix& rhs) {
  const int n = lu.rows();
  if (lu.cols() != n || rhs.rows() != n ||
      ipiv.size() != static_cast<std::size_t>(n))
    throw std::invalid_argument(
        "LU solve: factors not square, or pivots or right-hand side of "
        "another size");
  Factors<double> f;
  f.tiling = layout::Tiling{lu.rows(), lu.cols(), kColumnMajorTile};
  f.cm = lu.data();
  f.ld = lu.ld();
  f.ipiv = ipiv;
  return f;
}

template <class T>
Factors<T> packed_form(const layout::PackedMatrixT<T>& lu,
                       const Factorization& fz) {
  Factors<T> f;
  f.tiling = lu.tiling();
  f.packed = &lu;
  f.ipiv = fz.ipiv;
  f.deferred = fz.stats.plan == PlanKind::Tiled;
  return f;
}

/// x := L^{-1} x for the unit lower triangle of the diagonal tile `t`.
template <class T>
void lower_unit(const layout::BlockRefT<T>& t, T* x, int ldx, int nrhs,
                const blas::MicroKernelT<T>& mk) {
  const int kk = t.cols;
  for (int j0 = 0; j0 < kk; j0 += kStrip) {
    const int j1 = std::min(kk, j0 + kStrip);
    for (int c = 0; c < nrhs; ++c) {
      T* xc = x + static_cast<std::size_t>(c) * ldx;
      for (int p = j0; p < j1; ++p) {
        const T* lp = t.ptr + static_cast<std::size_t>(p) * t.ld;
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
template <class T>
void upper(const layout::BlockRefT<T>& t, T* x, int ldx, int nrhs,
           const blas::MicroKernelT<T>& mk) {
  for (int j1 = t.cols; j1 > 0; j1 -= kStrip) {
    const int j0 = std::max(0, j1 - kStrip);
    for (int c = 0; c < nrhs; ++c) {
      T* xc = x + static_cast<std::size_t>(c) * ldx;
      for (int p = j1 - 1; p >= j0; --p) {
        const T* up = t.ptr + static_cast<std::size_t>(p) * t.ld;
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
template <class T>
void tile_update(const blas::MicroKernelT<T>& mk,
                 const layout::BlockRefT<T>& tile, const T* xk, T* xi,
                 int ldx, int nrhs, std::vector<T>& t) {
  t.assign(static_cast<std::size_t>(tile.rows) * nrhs, T(0));
  mk.panel_fma(tile.rows, nrhs, tile.cols, tile.ptr, tile.ld, xk, ldx,
               t.data(), tile.rows);
  for (int c = 0; c < nrhs; ++c)
    for (int i = 0; i < tile.rows; ++i)
      xi[i + static_cast<std::size_t>(c) * ldx] +=
          t[i + static_cast<std::size_t>(c) * tile.rows];
}

/// The one substitution routine: x := A^{-1} x in place from the factors
/// of A, in the factors' precision.  Deferred factors get panel k's
/// swaps just before forward step k.  That is exact: at step k the rows
/// of x below panel k carry the swaps of panels <= k, exactly as the L
/// tiles of panel k do — it is the factorization's own right-swap order
/// with x as one more column.  LAPACK-form factors get every swap first,
/// as getrs does.  The tile updates x_I -= L(I,k) x_k (and U's,
/// backwards) go through the dispatched panel_fma kernel, which streams
/// each tile once with no packing and no padding of x to the register
/// width, one rounding per term.
template <class T>
void lu_solve(const Factors<T>& f, T* xd, int ldx, int nrhs) {
  const layout::Tiling& tl = f.tiling;
  const blas::MicroKernelT<T>& mk = blas::active_kernel_t<T>();
  const int nt = tl.nb();
  std::vector<T> t;
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

/// x := A^{-1} x for a double x.  Double factors substitute in place.
/// Float factors substitute as LAPACK's dsgesv does, on a float copy of
/// x in `xt`, so the solve streams half the bytes.  Each column goes in
/// scaled by the power of two that brings its largest entry near 1 and
/// comes out scaled back.  Power-of-two scaling is exact, so in float
/// range nothing changes, and right-hand sides and residuals of any
/// double magnitude still get a float solve.
template <class T>
void substitute(const Factors<T>& f, layout::Matrix& x, std::vector<T>& xt) {
  if constexpr (std::is_same_v<T, double>) {
    lu_solve(f, x.data(), x.ld(), x.cols());
  } else {
    const int n = x.rows(), nrhs = x.cols();
    xt.resize(static_cast<std::size_t>(n) * nrhs);
    std::vector<int> shift(nrhs, 0);
    for (int c = 0; c < nrhs; ++c) {
      double big = 0.0;
      for (int i = 0; i < n; ++i) big = std::max(big, std::fabs(x(i, c)));
      if (big > 0.0 && std::isfinite(big))
        shift[c] = std::clamp(std::ilogb(big), -1000, 1000);
      const double down = std::ldexp(1.0, -shift[c]);
      for (int i = 0; i < n; ++i)
        xt[i + static_cast<std::size_t>(c) * n] =
            static_cast<T>(x(i, c) * down);
    }
    lu_solve(f, xt.data(), n, nrhs);
    for (int c = 0; c < nrhs; ++c) {
      const double up = std::ldexp(1.0, shift[c]);
      for (int i = 0; i < n; ++i)
        x(i, c) = xt[i + static_cast<std::size_t>(c) * n] * up;
    }
  }
}

/// rowsum[i] += sum_j |a(i, j)| over w columns, in ascending j per row
/// (blas::norm_inf's order), a block of rows at a time so the sums stay
/// in registers.  kMax also folds max_ij |a(i, j)| into *amax, skipping
/// NaN as std::max does.  Its running maxima take registers too, so it
/// walks 8 rows at a time instead of 16; the sums do not change, since
/// each row still adds its columns in ascending order.
template <bool kMax>
void add_abs_rows(int m, int w, const double* a, int lda, double* rowsum,
                  double* amax) {
  constexpr int kRows = kMax ? 8 : 16;
  int i0 = 0;
  for (; i0 + kRows <= m; i0 += kRows) {
    double s[kRows], mx[kRows] = {};
    std::copy_n(rowsum + i0, kRows, s);
    for (int j = 0; j < w; ++j) {
      const double* c = a + i0 + static_cast<std::size_t>(j) * lda;
      for (int q = 0; q < kRows; ++q) {
        const double v = std::fabs(c[q]);
        s[q] += v;
        if constexpr (kMax) mx[q] = std::max(mx[q], v);
      }
    }
    std::copy_n(s, kRows, rowsum + i0);
    if constexpr (kMax)
      for (double v : mx) *amax = std::max(*amax, v);
  }
  for (; i0 < m; ++i0)
    for (int j = 0; j < w; ++j) {
      const double v = std::fabs(a[i0 + static_cast<std::size_t>(j) * lda]);
      rowsum[i0] += v;
      if constexpr (kMax) *amax = std::max(*amax, v);
    }
}

/// The residual r = b - A x and the normalized backward error
/// ‖r‖∞ / (‖A‖∞ ‖x‖∞ + ‖b‖∞).  ‖b‖∞ is taken once; ‖A‖∞ is formed in
/// the first pass over A and reused by every later one.
class Residual {
 public:
  /// `want_max_a`: the first pass also takes max_ij |a_ij| (max_abs_a).
  Residual(const layout::Matrix& a, const layout::Matrix& b,
           bool want_max_a = false)
      : a_(a),
        b_(b),
        norm_b_(blas::norm_inf(b.rows(), b.cols(), b.data(), b.ld())),
        want_max_a_(want_max_a) {}

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
      if (rowsum.empty()) continue;
      if (want_max_a_)
        add_abs_rows<true>(m, w, aj, a_.ld(), rowsum.data(), &max_a_);
      else
        add_abs_rows<false>(m, w, aj, a_.ld(), rowsum.data(), nullptr);
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

  /// max_ij |a_ij| (NaN skipped), once eval() ran with want_max_a.
  double max_abs_a() const { return max_a_; }

 private:
  const layout::Matrix& a_;
  const layout::Matrix& b_;
  layout::Matrix r_;
  double norm_a_ = -1.0;
  double norm_b_;
  bool want_max_a_;
  double max_a_ = 0.0;
};

/// Float32 factors are only worth refining when they are finite and the
/// elimination did not blow up.  The growth limit is far above benign CALU
/// growth (O(n^{2/3})-ish in practice, bounded like partial pivoting up to
/// the tournament factor) but far below 1/eps_f ~ 8e6, where every float
/// digit of the factors is noise and refinement diverges.  `amax` is
/// max_ij |a_ij|.  One branch-free pass reads the factors: IEEE
/// magnitudes (sign bit cleared) order as integers, so the largest
/// magnitude bit pattern gives max|L\U|, and a pattern at or above
/// infinity's means a non-finite factor.  The patterns are compared as
/// signed integers (baseline SSE2 has no unsigned compare), one running
/// maximum per lane of a 64-byte block.
template <class T>
bool factors_pathological(double amax, const Factors<T>& f) {
  using Bits = std::conditional_t<sizeof(T) == 4, std::int32_t,
                                  std::int64_t>;
  static_assert(sizeof(Bits) == sizeof(T));
  constexpr Bits kMagnitude = std::numeric_limits<Bits>::max();
  constexpr int kLanes = 64 / sizeof(T);
  auto magnitude = [](const T* p) {
    Bits u;
    std::memcpy(&u, p, sizeof u);
    return static_cast<Bits>(u & kMagnitude);
  };
  Bits lane[kLanes] = {};
  for (int J = 0; J < f.tiling.nb(); ++J)
    for (int I = 0; I < f.tiling.mb(); ++I) {
      const layout::BlockRefT<T> t = f.block(I, J);
      for (int j = 0; j < t.cols; ++j) {
        const T* c = t.ptr + static_cast<std::size_t>(j) * t.ld;
        int i = 0;
        for (; i + kLanes <= t.rows; i += kLanes)
          for (int q = 0; q < kLanes; ++q)
            lane[q] = std::max(lane[q], magnitude(c + i + q));
        for (; i < t.rows; ++i) lane[0] = std::max(lane[0], magnitude(c + i));
      }
    }
  const Bits top = *std::max_element(lane, lane + kLanes);
  const T inf = std::numeric_limits<T>::infinity();
  Bits inf_bits;
  std::memcpy(&inf_bits, &inf, sizeof inf);
  if (top >= inf_bits) return true;
  T lumax;
  std::memcpy(&lumax, &top, sizeof lumax);
  constexpr double kGrowthLimit = 1e5;
  return amax > 0.0 && static_cast<double>(lumax) > kGrowthLimit * amax;
}

/// Solve + refinement from the factors `f`; see solve_factored.  Each
/// step solves for the correction in place on the residual the previous
/// check left, so every step streams A once and the factors once.  With
/// `check_growth` (the mixed-precision acceptance) the first residual
/// pass also takes max|A|, and factors that factors_pathological rejects
/// stop the call there: it returns false, with the first solve in res.
template <class T>
bool refine(const layout::Matrix& a, const layout::Matrix& b,
            const Factors<T>& f, int max_refine, SolveResult& res,
            double stall_ratio, bool check_growth = false) {
  std::vector<T> xt;
  res.x = b;
  substitute(f, res.x, xt);
  Residual resid(a, b, check_growth);
  res.residual = resid.eval(res.x);
  if (check_growth && factors_pathological(resid.max_abs_a(), f))
    return false;

  for (int it = 0; it < max_refine; ++it) {
    if (res.residual < 1e-15) break;
    if (stall_ratio > 0.0 && !std::isfinite(res.residual)) break;
    const double prev = res.residual;
    // d = A^{-1} (b - A x); x += d.
    layout::Matrix& d = resid.r();
    substitute(f, d, xt);
    for (int j = 0; j < res.x.cols(); ++j)
      for (int i = 0; i < res.x.rows(); ++i) res.x(i, j) += d(i, j);
    ++res.refine_steps;
    res.residual = resid.eval(res.x);
    // Stalled or diverging refinement never converges later (each step is
    // a fixed-point iteration with constant contraction rate): stop here.
    if (stall_ratio > 0.0 && !(res.residual < stall_ratio * prev)) break;
  }
  return true;
}

/// A refinement step that does not at least halve the residual is stalled:
/// converging mixed-precision refinement contracts by ~cond(A)*eps_f per
/// step, far below 1/2 whenever it converges at all.
constexpr double kMixedStallRatio = 0.5;

/// refine_float over any factor form: reject pathological factors after
/// the first solve, refine with stall detection, then accept only a
/// double-quality backward error.
template <class T>
bool accept_float(const layout::Matrix& a, const layout::Matrix& b,
                  const Factors<T>& f, const Options& opt, SolveResult& res) {
  if (!refine(a, b, f, opt.max_refine, res, kMixedStallRatio,
              /*check_growth=*/true))
    return false;
  // max_refine = 0 means the caller asked for the float-accuracy
  // solution: accept it unless the solve itself produced non-finite
  // values.
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
  lu_solve(column_major(lu, ipiv, b), b.data(), b.ld(), b.cols());
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
                  const layout::PackedMatrixT<float>& lu, const Options& opt,
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
  layout::PackedMatrixT<float> lu;
  res.factorization = factor_packed(a, opt, session, lu, false);
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
