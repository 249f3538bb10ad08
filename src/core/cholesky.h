// cholesky.h — hybrid static/dynamic scheduled tiled Cholesky (lower).
//
// Section 9 of the paper: "the same techniques can be applied to other
// dense factorizations as Cholesky, QR, rank revealing QR, LDLT ...  This
// remains future work."  This module implements that extension for
// Cholesky: the identical task-graph machinery (per-thread static queues
// over the 2-D block-cyclic distribution + shared DFS-ordered dynamic
// queue, split at Nstatic panels) drives the POTRF/TRSM/SYRK/GEMM tile
// kernels.  Cholesky needs no pivoting, so its panel is cheap — the
// hybrid's benefit shifts from hiding the panel to absorbing noise and
// trailing-matrix imbalance, which the ablation bench measures.
#pragma once

#include <memory>

#include "src/core/calu.h"
#include "src/layout/matrix.h"
#include "src/layout/packed.h"
#include "src/sched/session.h"
#include "src/sched/thread_team.h"

namespace calu::core {

/// A prepared Cholesky job: the task graph plus tile-kernel bodies of one
/// potrf, exposed in the same shape as GetrfJob so Cholesky DAGs can be
/// fused with other jobs into one engine run (sched::Session::run_fused).
/// Task ids are job-local — the builder never assumes its graph is alone
/// in a run, and the fused dispatch translates ids before exec().
/// potrf() is implemented as prepare → run → finish over this class.
class PotrfJob {
 public:
  /// `a` must stay alive (and be mutated only through exec) for the
  /// job's lifetime.
  PotrfJob(layout::PackedMatrix& a, const Options& opt);
  ~PotrfJob();
  PotrfJob(PotrfJob&&) noexcept;
  PotrfJob& operator=(PotrfJob&&) noexcept;

  const sched::TaskGraph& graph() const;
  void exec(int id, int tid);  ///< execute one task (job-local id)

  /// Plan/task stat extraction (ipiv stays empty — no pivoting).  Engine
  /// counters and wall time belong to the caller that ran the graph.
  Factorization finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Factor the SPD matrix (lower triangle referenced) in place on a
/// caller-provided session: A = L*L^T.  Reuses calu::core::Options (b,
/// dratio, layout, engine, noise, recorder); pivot-related fields are
/// ignored and ipiv is empty.
Factorization potrf(layout::PackedMatrix& a, const Options& opt,
                    sched::Session& session);

/// One-shot: an ephemeral session is created for the call.
Factorization potrf(layout::PackedMatrix& a, const Options& opt);

/// Convenience on a column-major matrix: packs, factors, unpacks.
Factorization potrf(layout::Matrix& a, const Options& opt);

/// Session variant of the column-major convenience driver.
Factorization potrf(layout::Matrix& a, const Options& opt,
                    sched::Session& session);

/// Solve A x = b in place given the Cholesky factor L (column-major,
/// lower): b := L^{-T} L^{-1} b.
void potrs(const layout::Matrix& l, layout::Matrix& b);

/// ||A - L*L^T||_inf / (||A||_inf * n * eps) — Cholesky backward error.
double cholesky_residual(const layout::Matrix& a0, const layout::Matrix& l);

/// A random SPD test matrix: R*R^T + n*I.
layout::Matrix spd_matrix(int n, std::uint64_t seed);

}  // namespace calu::core
