// solve.h — triangular solves and iterative refinement on top of the
// factorizations, turning the library into a usable linear-system solver.
//
// Two factor forms reach the solve.  getrf, factor-only batch jobs and
// the Service's factor requests return LAPACK-form factors: every row
// swap applied across full rows.  gesv, gesv_mixed and the rhs jobs of
// batched_run solve on the packed factors exactly as the engine leaves
// them (GetrfJob::finish_deferred): no copy of A, no deferred left-swap
// pass (Algorithm 1, line 43) and no unpack.  One substitution routine
// serves both forms.  On deferred factors it applies panel k's swaps to
// the right-hand side just before forward step k, which is exact because
// panel k's L tiles carry the swaps of panels <= k, and at step k so do
// the rhs rows below panel k.  Whole-job plans (Stats::plan ==
// PlanKind::WholeJob) and any column-major [L\U] are LAPACK-form, so
// there it applies every swap first.  The tile updates, the residual and
// the refinement each stream their operand once through the dispatched
// panel_fma kernel.
#pragma once

#include "src/util/span.h"

#include "src/core/calu.h"
#include "src/layout/matrix.h"
#include "src/layout/packed.h"
#include "src/sched/session.h"

namespace calu::core {

/// Solve A X = B in place given LAPACK-form [L\U] factors `lu` and the
/// absolute-row swap sequence `ipiv` (getrs semantics, NoTrans).  A
/// non-square `lu`, or `ipiv` or `b` of another size, throws
/// std::invalid_argument; so do the other entry points below that take
/// column-major factors.
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
/// LAPACK-form [L\U] factors in `lu` and pivots `ipiv`, with up to
/// `max_refine` refinement steps.  Each step reuses the residual the
/// previous check formed as its right-hand side, and ‖A‖∞ is formed
/// once per call.
///
/// `stall_ratio` > 0 additionally stops refining when a step fails to
/// shrink the residual below stall_ratio x the previous one (or turns it
/// non-finite) — the signal gesv_mixed uses to give up on float factors
/// early instead of burning the full step budget.  The default 0 refines
/// until the residual drops below 1e-15 or the step cap is reached.
void solve_factored(const layout::Matrix& a, const layout::Matrix& b,
                    const layout::Matrix& lu, util::Span<const int> ipiv,
                    int max_refine, SolveResult& res,
                    double stall_ratio = 0.0);

/// solve_factored on the packed factors a getrf job leaves in `lu`, with
/// res.factorization already holding that job's pivots and stats:
/// Stats::plan says whether `lu` is in the deferred form (Tiled) or
/// LAPACK form (WholeJob).  gesv and the fused batch's rhs jobs solve
/// here, so every solve route refines bit-identically.
void solve_factored(const layout::Matrix& a, const layout::Matrix& b,
                    const layout::PackedMatrix& lu, int max_refine,
                    SolveResult& res, double stall_ratio = 0.0);

/// Factor with CALU (per `opt`) and solve A x = b with up to
/// opt.max_refine steps of iterative refinement in double precision.
/// `a` and `b` are only read: the factorization packs straight from `a`
/// and the solve runs on the packed factors in their deferred form.  A
/// non-square `a`, an rhs row count other than a's, or opt.b < 1 throws
/// std::invalid_argument (input_defect) before any work.
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
/// the call).  Inputs are read and checked as gesv's are, and the
/// refinement runs on the float factors' deferred form in double storage.
SolveResult gesv_mixed(const layout::Matrix& a, const layout::Matrix& b,
                       const Options& opt);

/// gesv_mixed on a caller-provided persistent session; the fallback
/// re-factorization (when triggered) reuses the same session.
SolveResult gesv_mixed(const layout::Matrix& a, const layout::Matrix& b,
                       const Options& opt, sched::Session& session);

/// The gesv_mixed epilogue, from already-computed float-accuracy
/// LAPACK-form factors in double storage: the refinement and acceptance
/// of refine_float, then fallback_double when they reject the factors.
/// res.factorization must already hold the float-run pivots.
void refine_mixed(const layout::Matrix& a, const layout::Matrix& b,
                  const layout::Matrix& lu, const Options& opt,
                  sched::Session& session, SolveResult& res);

/// refine_mixed's first half on the packed float-accuracy factors a
/// Float32 getrf job leaves in `lu` (read as solve_factored's packed
/// overload reads them): pathological-factor check, refinement with
/// stall detection, and double-accuracy acceptance.  Returns false when
/// the float factors are rejected.  Touches no session, so the fused
/// batch runs it on team threads; gesv_mixed runs it too.
bool refine_float(const layout::Matrix& a, const layout::Matrix& b,
                  const layout::PackedMatrix& lu, const Options& opt,
                  SolveResult& res);

/// refine_mixed's second half: the full-double re-solve on `session`.
/// The whole result, factorization included, is replaced by the re-solve's
/// and used_fallback is set.
void fallback_double(const layout::Matrix& a, const layout::Matrix& b,
                     const Options& opt, sched::Session& session,
                     SolveResult& res);

}  // namespace calu::core
