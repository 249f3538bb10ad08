// session.h — persistent solver session: one pinned thread team reused
// across many DAG runs.
//
// The paper's scheduler amortizes its cost across one factorization; a
// service amortizes it across *many*.  Every one-shot driver call used to
// construct a fresh ThreadTeam (spawn + pin + park p-1 workers) — per-call
// overhead that dominates small-matrix and many-RHS workloads.  A Session
// hoists it: construct it once, run any number of factorizations/solves
// on it back-to-back, and the workers are spawned exactly once
// (ThreadTeam::teams_constructed() lets tests assert that by counting,
// not timing).
//
//   sched::Session s({.threads = 8});
//   for (auto& job : jobs) core::getrf(job.a, opt, s);   // no re-spawn
//
// The one-shot entry points are themselves implemented as "make an
// ephemeral Session, run once", so the session path is not a second code
// path: bit-identity with one-shot results holds by construction (the
// numerics depend only on Options — grid, tile size, d-ratio — never on
// which team executed the DAG; tests/batch_test.cpp enforces it in the
// engine-matrix style).
//
// A Session is NOT thread-safe: one caller thread submits DAGs
// sequentially, parallelism comes from the team executing each DAG.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "src/sched/engine.h"
#include "src/sched/thread_team.h"

namespace calu::sched {

struct SessionOptions {
  int threads = 0;         ///< team size; 0 = all hardware threads
  bool pin_threads = true; ///< pin workers round-robin to cores
};

/// One job of a fused multi-DAG run (Session::run_fused): a finalized
/// graph plus the callable executing its tasks by *job-local* id.  Both
/// must outlive the run.
struct FusedJob {
  const TaskGraph* graph = nullptr;
  ExecFn exec;  ///< invoked as exec(local_id, tid)
  /// Optional: fired exactly once, on the worker thread that retires the
  /// job's last task, while other jobs may still be executing.  Treat it
  /// as a scheduling-progress signal: touch only this job's data, and
  /// keep it cheap — it runs inside the engine's completion path.  The
  /// callbacks of one run never overlap and fire in completion_order.
  /// Exception: a job whose graph has zero tasks has no last task to
  /// retire, so its callback fires on the run_fused *caller* thread, just
  /// before the engine run starts (completed_at is stamped ~0 from the
  /// same run clock as every other job).
  std::function<void(int job)> on_complete;
};

/// Per-job attribution split out of one fused engine run.
struct FusedJobStats {
  int tasks = 0;  ///< tasks this job contributed to the fused graph
  std::uint64_t static_pops = 0;   ///< served from static/owner-local queues
  std::uint64_t dynamic_pops = 0;  ///< served dynamically / stolen / promoted
  /// Seconds from engine start to the retirement of the job's last task —
  /// the job's completion latency inside the fused run.
  double completed_at = 0.0;
};

struct FusedRunResult {
  EngineStats engine;                 ///< counters of the whole fused run
  std::vector<FusedJobStats> jobs;    ///< per-job attribution, input order
  std::vector<int> completion_order;  ///< job indices in retirement order
  int fused_tasks = 0;                ///< tasks in the merged graph
  int fused_edges = 0;                ///< edges in the merged graph
};

class Session {
 public:
  /// Spawns and owns the session's thread team.
  explicit Session(const SessionOptions& opt = {});

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  ThreadTeam& team() { return team_; }
  int threads() const { return team_.size(); }

  /// Runs one finalized DAG on the session team under the named engine
  /// (run_engine: unknown names warn once and run "hybrid") and folds the
  /// run's counters into totals().
  EngineStats run(const TaskGraph& graph, const ExecFn& exec,
                  const RunHooks& hooks = {},
                  std::string_view engine_name = "hybrid");

  /// Merges every job's DAG into ONE fused graph (TaskGraph::append with
  /// priority scale = njobs, bias = job index, so jobs tied at equal
  /// original priority interleave round-robin in DFS order) and executes
  /// it as a single engine run: engines steal *across* jobs, one job's
  /// tail overlaps the next job's head.  Dispatch translates fused ids
  /// back to (job, local id), so job exec functions never see the offsets.
  /// Per-job completion is detected by a remaining-task counter
  /// decremented in the engines' shared completion path
  /// (RunHooks::on_retire); a caller-supplied hooks.on_retire still runs
  /// (with the fused id) before the internal accounting.  Counts as one
  /// run toward runs()/totals().  Each job's results are bit-identical to
  /// running its graph alone: the fusion only widens the scheduler's
  /// choice of order, never the operands.
  FusedRunResult run_fused(std::vector<FusedJob>& jobs,
                           const RunHooks& hooks = {},
                           std::string_view engine_name = "hybrid");

  /// DAGs executed through this session so far.
  std::uint64_t runs() const { return runs_; }

  /// Engine counters merged across every run() (elapsed is the max single
  /// run, matching EngineStats::merge semantics).
  const EngineStats& totals() const { return totals_; }

 private:
  ThreadTeam team_;
  EngineStats totals_;
  std::uint64_t runs_ = 0;
};

}  // namespace calu::sched
