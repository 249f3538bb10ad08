#include "src/core/batch.h"

#include <chrono>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace calu::core {
namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Stamps the batch-wide counters from the session's run/total deltas.
void finish_stats(BatchStats& st, const sched::Session& session,
                  std::uint64_t runs_before,
                  std::chrono::steady_clock::time_point t0,
                  std::size_t njobs) {
  st.dag_runs = session.runs() - runs_before;
  st.seconds = seconds_since(t0);
  st.jobs_per_second =
      st.seconds > 0.0 ? static_cast<double>(njobs) / st.seconds : 0.0;
}

/// Rejects a malformed job set before any job is packed or run, so a bad
/// job can neither crash a team thread nor leave other jobs half done.
void validate(const std::vector<BatchJob>& jobs) {
  for (std::size_t i = 0; i < jobs.size(); ++i)
    if (const char* why = input_defect(jobs[i].a, jobs[i].rhs, jobs[i].options))
      throw std::invalid_argument("batched_run: job " + std::to_string(i) +
                                  ": " + why);
}

/// Moves a solve's outcome into the job's result.
void take(BatchJobResult& out, SolveResult&& sr) {
  out.factorization = std::move(sr.factorization);
  out.x = std::move(sr.x);
  out.refine_steps = sr.refine_steps;
  out.residual = sr.residual;
  out.used_fallback = sr.used_fallback;
}

/// The first exception thrown on a team thread, kept for the caller: a
/// throw must not escape a team thread.
class FirstError {
 public:
  template <class F>
  void guard(F&& fn) noexcept {
    try {
      fn();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!first_) first_ = std::current_exception();
    }
  }
  void rethrow() const {
    if (first_) std::rethrow_exception(first_);
  }

 private:
  std::mutex mu_;
  std::exception_ptr first_;
};

/// fn(job) for every job index in `ids` across the team; the first throw
/// is rethrown here, on the caller.  One index or none runs inline, with
/// no team region.
void for_each_job(sched::ThreadTeam& team, const std::vector<std::size_t>& ids,
                  const std::function<void(std::size_t)>& fn) {
  FirstError err;
  team.parallel_for(static_cast<int>(ids.size()),
                    [&](int k) { err.guard([&] { fn(ids[k]); }); });
  err.rethrow();
}

/// Sequential mode: one engine run per job, submission order — exactly
/// the per-job getrf/gesv drivers back-to-back on the session.
BatchRunResult run_sequential(std::vector<BatchJob>& jobs,
                              sched::Session& session) {
  BatchRunResult res;
  res.jobs.resize(jobs.size());
  res.completion_order.reserve(jobs.size());
  const std::uint64_t runs_before = session.runs();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    BatchJob& job = jobs[i];
    BatchJobResult& out = res.jobs[i];
    if (job.rhs != nullptr) {
      // Float32 solve jobs get the full mixed-precision treatment
      // (refinement to double accuracy + fallback), exactly as if the
      // caller had invoked gesv_mixed directly.
      take(out, job.options.precision == Precision::Float32
                    ? gesv_mixed(*job.a, *job.rhs, job.options, session)
                    : gesv(*job.a, *job.rhs, job.options, session));
    } else {
      out.factorization = getrf(*job.a, job.options, session);
    }
    res.stats.engine.merge(out.factorization.stats.engine);
    out.completed_at = seconds_since(t0);
    res.completion_order.push_back(static_cast<int>(i));
    if (job.on_complete) job.on_complete(static_cast<int>(i));
  }
  finish_stats(res.stats, session, runs_before, t0, jobs.size());
  return res;
}

/// Fused mode: prepare every job through the same GetrfJob seam getrf
/// uses, merge all graphs into one engine run via Session::run_fused,
/// then run each job's epilogue: a factor-only job's unpack, a solve
/// job's solve + refinement on its packed factors.  A whole-job job's
/// one task runs its prologue, factorization and epilogue back to back;
/// the tiled jobs' prologue and epilogue each run across the team, one
/// job per thread at a time.  Neither re-enters the session.
BatchRunResult run_fused(std::vector<BatchJob>& jobs,
                         sched::Session& session) {
  BatchRunResult res;
  res.jobs.resize(jobs.size());
  const std::uint64_t runs_before = session.runs();
  const auto t0 = std::chrono::steady_clock::now();
  if (jobs.empty()) {
    finish_stats(res.stats, session, runs_before, t0, 0);
    return res;
  }

  // One engine executes the fused graph: a job set that names two engines
  // has no faithful fused schedule, and silently picking one would betray
  // whichever job asked for the other (run_engine's "warn and degrade"
  // move is wrong here).  Reject loudly instead.
  const std::string engine = jobs[0].options.resolved_engine();
  for (const BatchJob& job : jobs)
    if (job.options.resolved_engine() != engine)
      throw std::invalid_argument(
          "batched_run(BatchMode::Fused): jobs disagree on the engine (\"" +
          engine + "\" vs \"" + job.options.resolved_engine() +
          "\"); align Options::engine across jobs or use "
          "BatchMode::Sequential");

  const std::size_t n = jobs.size();
  sched::ThreadTeam& team = session.team();
  // Sized up front: GetrfJob keeps a reference to its PackedMatrix
  // element.
  std::vector<layout::PackedMatrix> packed(n);
  std::vector<std::optional<GetrfJob>> prepared(n);
  std::vector<char> whole(n), rejected(n, 0);
  std::vector<std::size_t> tiled;
  for (std::size_t i = 0; i < n; ++i) {
    whole[i] = plan_kind(jobs[i].a->rows(), jobs[i].a->cols()) ==
               PlanKind::WholeJob;
    if (!whole[i]) tiled.push_back(i);
  }

  // A job's prologue: pack and plan it with its own Options, straight
  // from the caller's matrix.  The job is packed whole by the thread
  // that prepares it, so there is no owner runner (it would re-enter the
  // team).
  auto prepare = [&](std::size_t i) {
    packed[i] = pack_for_plan(*jobs[i].a, jobs[i].options);
    prepared[i].emplace(packed[i], jobs[i].options);
  };
  // A job's epilogue: unpack a factor-only job's LAPACK-form factors;
  // finish a solve job in the deferred form and run the same
  // solve_factored() refinement gesv runs on its packed factors —
  // bit-identity with the sequential path is shared code, not a
  // re-implementation.  A Float32 job whose factors refine_float rejects
  // is re-solved in double after the run, on the caller, because the
  // re-solve runs on the session.
  auto complete = [&](std::size_t i) {
    const BatchJob& job = jobs[i];
    if (job.rhs == nullptr) {
      // A tiled job's finish() ran on the caller; a whole-job plan's
      // factors are LAPACK-form already.
      if (whole[i]) res.jobs[i].factorization = prepared[i]->finish_deferred();
      packed[i].unpack(*job.a);
      return;
    }
    SolveResult sr;
    sr.factorization = prepared[i]->finish_deferred();
    if (job.options.precision == Precision::Float32)
      rejected[i] = !refine_float(*job.a, *job.rhs, packed[i], job.options, sr);
    else
      solve_factored(*job.a, *job.rhs, packed[i], job.options.max_refine, sr);
    take(res.jobs[i], std::move(sr));
  };

  // A whole-job job's one task runs its prologue, factorization and
  // epilogue back to back on one thread.
  FirstError whole_err;
  auto run_whole = [&](std::size_t i, int id, int tid) {
    whole_err.guard([&] {
      prepare(i);
      prepared[i]->exec(id, tid);
      complete(i);
    });
  };

  for_each_job(team, tiled, prepare);
  std::vector<sched::FusedJob> fused(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (whole[i]) {
      fused[i].graph =
          &GetrfJob::whole_job_graph(jobs[i].options.priority_class);
      fused[i].exec = [&run_whole, i](int id, int tid) {
        run_whole(i, id, tid);
      };
    } else {
      fused[i].graph = &prepared[i]->graph();
      fused[i].exec = [&prepared, i](int id, int tid) {
        prepared[i]->exec(id, tid);
      };
    }
    fused[i].on_complete = jobs[i].on_complete;
  }

  std::unique_ptr<noise::Injector> injector;
  sched::RunHooks hooks =
      run_hooks_from(jobs[0].options, session.threads(), injector);
  sched::FusedRunResult fr = session.run_fused(fused, hooks, engine);
  whole_err.rethrow();

  // Factor-only tiled jobs return LAPACK-form factors.  Their finish()
  // runs the deferred left swaps across the team, so it stays on the
  // caller.
  for (std::size_t i : tiled)
    if (jobs[i].rhs == nullptr)
      res.jobs[i].factorization = prepared[i]->finish(team);
  for_each_job(team, tiled, complete);

  // The job's share of the fused run, stamped over its finish() stats.
  for (std::size_t i = 0; i < n; ++i) {
    Stats& st = res.jobs[i].factorization.stats;
    st.engine.static_pops = fr.jobs[i].static_pops;
    st.engine.dynamic_pops = fr.jobs[i].dynamic_pops;
    st.engine.elapsed = fr.jobs[i].completed_at;
    st.factor_seconds = fr.jobs[i].completed_at;
    res.jobs[i].completed_at = fr.jobs[i].completed_at;
  }
  // On fallback the whole result — fused attribution included — is
  // replaced by the double re-solve's stats: the factors the caller gets
  // really did come from that run, not the fused one.
  for (std::size_t i = 0; i < n; ++i) {
    if (!rejected[i]) continue;
    SolveResult sr;
    fallback_double(*jobs[i].a, *jobs[i].rhs, jobs[i].options, session, sr);
    take(res.jobs[i], std::move(sr));
  }

  res.completion_order = std::move(fr.completion_order);
  res.stats.engine = fr.engine;
  finish_stats(res.stats, session, runs_before, t0, n);
  return res;
}

}  // namespace

BatchRunResult batched_run(std::vector<BatchJob>& jobs,
                           sched::Session& session, BatchMode mode) {
  validate(jobs);
  return mode == BatchMode::Fused ? run_fused(jobs, session)
                                  : run_sequential(jobs, session);
}

BatchRunResult batched_run(std::vector<BatchJob>& jobs, BatchMode mode) {
  sched::Session ephemeral(session_options_from(
      jobs.empty() ? Options{} : jobs.front().options));
  return batched_run(jobs, ephemeral, mode);
}

}  // namespace calu::core
