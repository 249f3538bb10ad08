// batch.h — job-centric batched multi-solve: submit N independent
// factorize(+solve) jobs as one vector of BatchJob values and run them
// through one persistent session, either FUSED into a single engine run
// or sequentially.
//
// Small-matrix and many-RHS traffic (the batching regime of
// arXiv:1401.5522) is dominated by per-call overhead, not flops.  One
// sched::Session serves every job, and the fused mode merges every job's
// task graph into one engine run (sched::Session::run_fused), so engines
// steal across jobs and one job's DAG tail overlaps the next job's work.
// Where a job's stages run depends on its plan (core::plan_kind):
//  - A whole-job job (at or below core::kWholeJobFlops) is one task that
//    runs its pack into one column-major buffer, plan, recursive-GEPP
//    factorization and solve (or unpack) back to back on one thread.
//  - A tiled job is packed and planned before the run and solved or
//    unpacked after it, each across the team, one job per thread at a
//    time (a factor-only job's deferred left swaps run on the caller
//    first, across the team, because it returns LAPACK-form factors).
//    These two team regions start only when the batch holds tiled jobs.
// A solve job solves on its packed factors in the form the engine left
// them (core/solve.h).  Each job is packed whole by one thread, not by
// the owner-ordered parallel pack of the single-job drivers.
//
// Fusion is purely a scheduling change: each job executes exactly the
// task bodies its one-shot driver would run with the same Options
// (prepared through the same core::GetrfJob seam getrf uses), so per-job
// results are bit-identical across Fused / Sequential / one-shot for
// every engine — tests/batch_test.cpp holds that matrix, including under
// the TSan stress lane.
#pragma once

#include <functional>
#include <vector>

#include "src/core/calu.h"
#include "src/core/solve.h"
#include "src/sched/session.h"

namespace calu::core {

/// One unit of batched work: a matrix, an optional right-hand side, the
/// job's own Options, and an optional completion callback.
///
///  - Without `rhs`: *a is factored IN PLACE (LAPACK combined [L\U],
///    getrf semantics).
///  - With `rhs`: gesv semantics — *a is only read (packed from, never
///    copied or written), the result carries x / refine_steps /
///    residual, refinement capped at options.max_refine.
///
/// Options are per job (tile size, grid, layout, pack_panels, dratio,
/// max_refine, precision ... may all differ — a fused run can interleave
/// float32 and double factorizations; Float32 rhs jobs additionally get
/// the full gesv_mixed refine-and-fallback epilogue), with one
/// constraint in fused mode:
/// every job must resolve to the same engine, because a single engine
/// executes the fused graph (batched_run throws std::invalid_argument
/// otherwise).
///
/// `on_complete(job_index)` fires when the job's last DAG task retires.
/// In fused mode that happens on a worker thread while other jobs may
/// still be executing — treat it as a scheduling-progress signal (a
/// tiled job's solve/unpack runs afterwards; full results are available
/// when batched_run returns).  Sequential mode fires it on the caller thread
/// after the job's DAG run.
struct BatchJob {
  layout::Matrix* a = nullptr;
  const layout::Matrix* rhs = nullptr;
  /// Per-job knobs.  Under TuneMode::Auto the fused path
  /// materializes the tuned resolution into this field (tune key, tile
  /// size, and — for jobs with no explicit engine ask — the fused run's
  /// engine), so on return it records what actually ran.
  Options options;
  std::function<void(int job)> on_complete;
};

/// How batched_run executes the job set.
enum class BatchMode {
  /// Merge every job's task graph into ONE fused DAG executed by a single
  /// engine run (sched::Session::run_fused): inter-job parallelism, no
  /// per-job barrier.  Per-job results are bit-identical to Sequential.
  Fused,
  /// One engine run per job, submission order — the PR-5 behavior and the
  /// baseline the fusion is benchmarked against.
  Sequential,
};

/// Counters aggregated across one batch submission.
struct BatchStats {
  /// Engine counters: the single fused run's, or merged across the
  /// per-job runs in sequential mode.
  sched::EngineStats engine;
  std::uint64_t dag_runs = 0;  ///< engine runs for this batch (fused: 1)
  double seconds = 0.0;        ///< wall time for the whole batch
  double jobs_per_second = 0.0;
};

/// Per-job outcome of batched_run, input order.
struct BatchJobResult {
  /// Pivots + stats.  In fused mode the per-job engine counters carry the
  /// attribution split out of the fused run (this job's static/dynamic
  /// pops; elapsed and factor_seconds hold the job's completion latency
  /// within the run, which for a whole-job job includes its pack and
  /// solve), and gflops is left 0 — exclusive per-job compute time does
  /// not exist inside a fused run.
  Factorization factorization;
  layout::Matrix x;           ///< solution, for jobs submitted with an rhs
  int refine_steps = 0;       ///< refinement steps taken (rhs jobs)
  double residual = 0.0;      ///< final normalized residual (rhs jobs)
  /// Float32 rhs jobs only: the float factorization was rejected and the
  /// result comes from the gesv_mixed full-double fallback.
  bool used_fallback = false;
  /// Seconds from batch start to this job's completion (open-loop
  /// latency: DAG retirement in fused mode, job return in sequential).
  double completed_at = 0.0;
};

struct BatchRunResult {
  std::vector<BatchJobResult> jobs;   ///< per-job results, input order
  std::vector<int> completion_order;  ///< job indices, completion order
  BatchStats stats;
};

/// Runs a batch of factor / factor+solve jobs through one session.
/// Matrices (and rhs) must outlive the call.  Every job is checked
/// (core::input_defect) before any is packed or run: a null `a`, an rhs
/// job whose `a` is not square or whose rhs row count differs from
/// `a`'s, or options.b < 1 throws std::invalid_argument naming the job
/// index.  Fused mode also rejects
/// job sets that disagree on the engine with std::invalid_argument;
/// observability hooks (recorder, noise, lookahead_depth) for the fused
/// run are taken from the first job's Options.
BatchRunResult batched_run(std::vector<BatchJob>& jobs,
                           sched::Session& session,
                           BatchMode mode = BatchMode::Fused);

/// One-shot convenience: ephemeral session for the whole batch, sized and
/// pinned from the first job's Options.
BatchRunResult batched_run(std::vector<BatchJob>& jobs,
                           BatchMode mode = BatchMode::Fused);

}  // namespace calu::core
