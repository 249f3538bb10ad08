// solve.h — triangular solves and iterative refinement on top of the
// factorizations, turning the library into a usable linear-system solver.
#pragma once

#include "src/util/span.h"

#include "src/core/calu.h"
#include "src/layout/matrix.h"
#include "src/sched/session.h"

namespace calu::core {

/// Solve op(A) X = B in place given a LAPACK-style packed L/U
/// factorization `lu` and absolute-row swap sequence `ipiv` (getrs
/// semantics, NoTrans).
void getrs(const layout::Matrix& lu, util::Span<const int> ipiv,
           layout::Matrix& b);

/// Componentwise-normalized residual ||A x - b||_inf /
/// (||A||_inf ||x||_inf + ||b||_inf) — the standard backward-error metric.
/// NaN when the residual contains non-finite values (a singular pivot
/// poisons x with inf/NaN; the metric must not report that as converged).
double solve_residual(const layout::Matrix& a, const layout::Matrix& x,
                      const layout::Matrix& b);

struct SolveResult {
  layout::Matrix x;
  int refine_steps = 0;
  double residual = 0.0;  // final normalized residual
  /// gesv_mixed only: the float32 factorization was rejected
  /// (non-finite/pathological factors, or refinement failed to reach
  /// double accuracy) and the result comes from a full-double re-solve.
  bool used_fallback = false;
  Factorization factorization;
};

/// Solve + iterative refinement from already-computed factors: fills
/// res.x / res.refine_steps / res.residual for A x = b given the
/// LAPACK-style combined [L\U] factors in `lu` and pivots `ipiv`, with up
/// to `max_refine` refinement steps.  Shared by gesv and the fused batch
/// path (core/batch.cpp), so every solve route refines bit-identically.
///
/// `stall_ratio` > 0 additionally stops refining when a step fails to
/// shrink the residual below stall_ratio x the previous one (or turns it
/// non-finite) — the signal gesv_mixed uses to give up on float factors
/// early instead of burning the full step budget.  The default 0 keeps the
/// historical behavior bit-for-bit.
void solve_factored(const layout::Matrix& a, const layout::Matrix& b,
                    const layout::Matrix& lu, util::Span<const int> ipiv,
                    int max_refine, SolveResult& res,
                    double stall_ratio = 0.0);

/// Factor with CALU (per `opt`) and solve A x = b with up to
/// opt.max_refine steps of iterative refinement in double precision.
/// One-shot: spawns an ephemeral session (thread team) for the call.
SolveResult gesv(const layout::Matrix& a, const layout::Matrix& b,
                 const Options& opt);

/// gesv on a caller-provided persistent session: the factorization DAG
/// runs on the session's pinned team, so back-to-back solves pay no
/// thread-spawn cost.  Numerically identical to the one-shot overload.
SolveResult gesv(const layout::Matrix& a, const layout::Matrix& b,
                 const Options& opt, sched::Session& session);

/// Mixed-precision solve (classic float32 + iterative refinement, a la
/// LAPACK dsgesv): factor A in float32 through the same CALU task graph
/// and engine — only the element type of the kernels changes — then
/// refine the solution to double accuracy with residuals computed in
/// double.  On well-conditioned systems this reaches the same residual as
/// full-double gesv for roughly the speed of the float factorization
/// (the O(n^3) work runs at the float kernels' rate; refinement is
/// O(n^2) per step).
///
/// Robustness: when the float factors come back non-finite or with
/// pathological pivot growth, or refinement cannot reach double-quality
/// backward error within opt.max_refine steps, the call transparently
/// re-factors in full double (res.used_fallback = true), so the result is
/// never worse than gesv.  opt.max_refine = 0 accepts the float-accuracy
/// solution as-is (no refinement, fallback only on a non-finite result).
/// opt.precision is ignored (the factorization precision is the point of
/// the call).
SolveResult gesv_mixed(const layout::Matrix& a, const layout::Matrix& b,
                       const Options& opt);

/// gesv_mixed on a caller-provided persistent session; the fallback
/// re-factorization (when triggered) reuses the same session.
SolveResult gesv_mixed(const layout::Matrix& a, const layout::Matrix& b,
                       const Options& opt, sched::Session& session);

/// The gesv_mixed epilogue, from already-computed float-accuracy factors
/// (double storage, as GetrfJob writes back): refine_float, then
/// fallback_double when it rejects the factors.  res.factorization must
/// already hold the float-run pivots.  Shared by gesv_mixed and the
/// batched paths (core/batch.cpp) so the fallback semantics cannot drift
/// between them.
void refine_mixed(const layout::Matrix& a, const layout::Matrix& b,
                  const layout::Matrix& lu, const Options& opt,
                  sched::Session& session, SolveResult& res);

/// refine_mixed's first half: pathological-factor check, refinement with
/// stall detection, and double-accuracy acceptance.  Returns false when
/// the float factors are rejected.  Touches no session, so the fused
/// batch runs it on team threads.
bool refine_float(const layout::Matrix& a, const layout::Matrix& b,
                  const layout::Matrix& lu, const Options& opt,
                  SolveResult& res);

/// refine_mixed's second half: the full-double re-solve on `session`.
/// The whole result, factorization included, is replaced by the re-solve's
/// and used_fallback is set.
void fallback_double(const layout::Matrix& a, const layout::Matrix& b,
                     const Options& opt, sched::Session& session,
                     SolveResult& res);

}  // namespace calu::core
