#include "src/sched/session.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <mutex>

namespace calu::sched {

Session::Session(const SessionOptions& opt)
    : team_(opt.threads > 0 ? opt.threads : ThreadTeam::hardware_threads(),
            opt.pin_threads) {}

EngineStats Session::run(const TaskGraph& graph, const ExecFn& exec,
                         const RunHooks& hooks,
                         std::string_view engine_name) {
  EngineStats st = run_engine(engine_name, team_, graph, exec, hooks);
  totals_.merge(st);
  ++runs_;
  return st;
}

FusedRunResult Session::run_fused(std::vector<FusedJob>& jobs,
                                  const RunHooks& hooks,
                                  std::string_view engine_name) {
  const int njobs = static_cast<int>(jobs.size());
  FusedRunResult res;
  res.jobs.resize(jobs.size());
  if (njobs == 0) return res;

  // Merge: scale = njobs, bias = job index keeps every job's internal DFS
  // order and round-robins across jobs at equal original priority.
  TaskGraph fused;
  std::vector<int> offset(njobs + 1, 0);
  for (int j = 0; j < njobs; ++j) {
    assert(jobs[j].graph != nullptr);
    offset[j] = fused.append(*jobs[j].graph,
                             static_cast<std::uint64_t>(njobs),
                             static_cast<std::uint64_t>(j));
    res.jobs[j].tasks = jobs[j].graph->num_tasks();
  }
  offset[njobs] = fused.num_tasks();
  res.fused_tasks = fused.num_tasks();
  res.fused_edges = fused.num_edges();  // cleared by finalize — read first
  fused.finalize();

  // Per-job accounting, cache-line padded: tasks of one job retire on
  // many threads concurrently, and adjacent jobs must not false-share.
  struct alignas(64) JobCounter {
    std::atomic<int> remaining{0};
    std::atomic<std::uint64_t> static_pops{0};
    std::atomic<std::uint64_t> dynamic_pops{0};
  };
  std::vector<JobCounter> counters(jobs.size());
  for (int j = 0; j < njobs; ++j)
    counters[j].remaining.store(jobs[j].graph->num_tasks(),
                                std::memory_order_relaxed);

  std::vector<double> completed_at(jobs.size(), 0.0);
  const auto job_of = [&offset, njobs](int id) {
    return static_cast<int>(std::upper_bound(offset.begin(),
                                             offset.begin() + njobs + 1, id) -
                            offset.begin()) -
           1;
  };

  const ExecFn exec = [&](int id, int tid) {
    const int j = job_of(id);
    jobs[j].exec(id - offset[j], tid);
  };

  // The run clock starts before the zero-task scan so that every job —
  // including empty ones — gets a completed_at stamped from the same t0.
  const auto t0 = std::chrono::steady_clock::now();

  // A job takes its completion_order slot and fires on_complete under one
  // lock, so two jobs retiring at once call back in the recorded order.
  // Only the retirement of a job's last task takes it.
  std::mutex complete_mu;
  res.completion_order.reserve(jobs.size());
  const auto complete = [&](int j) {
    std::lock_guard lk(complete_mu);
    completed_at[j] = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    res.completion_order.push_back(j);
    if (jobs[j].on_complete) jobs[j].on_complete(j);
  };

  // A job contributing zero tasks is complete before the run starts: it
  // retires here, on the calling thread, with completed_at ~0 (the
  // documented exception to the worker-thread on_complete contract —
  // there is no last task and hence no retiring worker).
  for (int j = 0; j < njobs; ++j)
    if (jobs[j].graph->num_tasks() == 0) complete(j);

  RunHooks fused_hooks = hooks;
  const auto caller_retire = hooks.on_retire;
  fused_hooks.on_retire = [&](int id, int tid, bool dynamic) {
    if (caller_retire) caller_retire(id, tid, dynamic);
    const int j = job_of(id);
    JobCounter& c = counters[j];
    if (dynamic)
      c.dynamic_pops.fetch_add(1, std::memory_order_relaxed);
    else
      c.static_pops.fetch_add(1, std::memory_order_relaxed);
    if (c.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1)
      complete(j);
  };

  res.engine = run_engine(engine_name, team_, fused, exec, fused_hooks);
  totals_.merge(res.engine);
  ++runs_;

  for (int j = 0; j < njobs; ++j) {
    res.jobs[j].static_pops =
        counters[j].static_pops.load(std::memory_order_relaxed);
    res.jobs[j].dynamic_pops =
        counters[j].dynamic_pops.load(std::memory_order_relaxed);
    res.jobs[j].completed_at = completed_at[j];
  }
  return res;
}

}  // namespace calu::sched
