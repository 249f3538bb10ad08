// engine.h — the task-graph executor.
//
// One task dependency graph serves the whole static<->dynamic design space
// (Table 1 of the paper); *how* it is executed is an engine.  The three
// engines are ready-set policies driven by one executor loop
// (detail::run_policy, engine_impl.h), picked by name in run_engine():
//
//   "hybrid"        — the paper's scheduler (Algorithm 1): every thread
//                     first serves its own priority queue of ready *static*
//                     tasks (progress on the critical path, data locality),
//                     and only when that is empty pulls from the sharded
//                     global queue of *dynamic* tasks in DFS order.  Fully
//                     static and fully dynamic are the two degenerate
//                     cases.
//   "work-stealing" — the related-work baseline (Section 8): ready tasks
//                     go to the spawning thread's lock-free Chase-Lev
//                     deque; idle threads steal FIFO, probing the other
//                     threads from a random start.
//   "priority-lookahead" — dynamic look-ahead (à la arXiv:1804.07017):
//                     ready tasks go to per-thread mutable priority
//                     queues, but a panel-column task (P / panel L / pL)
//                     whose step falls inside a configurable window ahead
//                     of the completion frontier is *promoted* to a shared
//                     urgent queue every thread serves before anything
//                     local — the static 2-queue look-ahead generalized
//                     into a dynamic policy.
//
// A new engine is a policy class in engine.cpp plus one branch in
// run_engine().
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/noise/noise.h"
#include "src/sched/dag.h"
#include "src/sched/thread_team.h"
#include "src/trace/trace.h"

namespace calu::sched {

/// The work function: execute task `id` on thread `tid`.
using ExecFn = std::function<void(int id, int tid)>;

struct RunHooks {
  trace::Recorder* recorder = nullptr;  // optional timeline recording
  noise::Injector* injector = nullptr;  // optional transient-load injection
  /// "priority-lookahead" window: panel-column tasks whose step is within
  /// `lookahead_depth` panels of the completion frontier are promoted to
  /// the shared urgent queue.  Other engines ignore it.
  int lookahead_depth = 4;
  /// Invoked from the completion path every engine shares
  /// (detail::run_policy) after a task's body returned and its
  /// successors were notified, on the worker thread that executed it —
  /// and strictly before the engine can observe the run as done, so the
  /// callback never races engine teardown.  `dynamic` mirrors the queue
  /// attribution the engine reported for the pop (static/local vs
  /// dynamic/stolen/promoted).  Session::run_fused uses it to drive
  /// per-job remaining-task counters and completion callbacks; leave it
  /// empty otherwise — it sits on the hot path.
  std::function<void(int id, int tid, bool dynamic)> on_retire;
};

/// Merged execution counters.  The executor loop accumulates per-thread
/// into cache-line padded slots and merges once at the end, so hot-loop
/// increments never false-share.  Every pop is counted exactly once, so
/// static_pops + dynamic_pops + steals is the task count of the run.
struct EngineStats {
  std::uint64_t static_pops = 0;   // tasks served from per-thread queues
  std::uint64_t dynamic_pops = 0;  // tasks served from a shared queue
  std::uint64_t steals = 0;        // tasks taken from another thread's queue
  std::uint64_t steal_attempts = 0;
  /// Panel-column tasks promoted past the local queues into the shared
  /// urgent queue ("priority-lookahead" only; 0 elsewhere).
  std::uint64_t promotions = 0;
  /// Team threads whose topology-derived pinning was verified effective
  /// at run time (ThreadTeam::pinned_count), or -1 when no run was
  /// merged in.  merge() keeps the max, so session totals reflect the
  /// best-pinned run.
  int pinned_threads = -1;
  double elapsed = 0.0;  // seconds inside the engine (max over merges)

  /// Accumulates counters; `elapsed` takes the max (merging reps or
  /// threads, the wall time is the longest observed, not the sum).
  EngineStats& merge(const EngineStats& other);

  /// One-line human-readable summary, used by bench/ and trace/ reporting.
  std::string report() const;
};

/// Executes every task of `graph` exactly once, respecting edges, on
/// `team` under the engine called `name`.  An unknown name warns on
/// stderr once per name and runs "hybrid": Options::engine is caller
/// input, and a typo must degrade to the default engine, not crash.
EngineStats run_engine(std::string_view name, ThreadTeam& team,
                       const TaskGraph& graph, const ExecFn& exec,
                       const RunHooks& hooks = {});

/// The engine names, sorted: "hybrid", "priority-lookahead",
/// "work-stealing".
std::vector<std::string> engine_names();

}  // namespace calu::sched
