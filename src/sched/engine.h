// engine.h — the pluggable task-graph executor interface.
//
// One task dependency graph serves the whole static<->dynamic design space
// (Table 1 of the paper); *how* it is executed is an Engine.  The five
// built-in names are three ready-set policies driven by one executor loop
// (detail::run_policy, engine_impl.h):
//
//   "hybrid"        — the paper's scheduler (Algorithm 1): every thread
//                     first serves its own priority queue of ready *static*
//                     tasks (progress on the critical path, data locality),
//                     and only when that is empty pulls from the sharded
//                     global queue of *dynamic* tasks in DFS order.  Fully
//                     static and fully dynamic are the two degenerate
//                     cases.
//   "locality-tags" — Section-9 extension: the same owner queues, with the
//                     dynamic section partitioned by Task::tag so each
//                     thread serves its own tag's shard first ("tasks whose
//                     data is highly likely to be in a core's cache
//                     already"), falling back to other shards round-robin.
//   "work-stealing" — the related-work baseline (Section 8): ready tasks
//                     go to the spawning thread's lock-free Chase-Lev
//                     deque; idle threads steal FIFO, probing the other
//                     threads from a random start.
//   "numa-hierarchical" — the same deques, with victims probed nearest
//                     topology distance class first (Beaumont & Marchal,
//                     arXiv:1404.3913).
//   "priority-lookahead" — dynamic look-ahead (à la arXiv:1804.07017):
//                     ready tasks go to per-thread mutable priority
//                     queues, but a panel-column task (P / panel L / pL)
//                     whose step falls inside a configurable window ahead
//                     of the completion frontier is *promoted* to a shared
//                     urgent queue every thread serves before anything
//                     local — the static 2-queue look-ahead generalized
//                     into a dynamic policy.
//
// Engines are obtained by name from the registry (engine_registry.h) so
// drivers, benches, and examples never hard-wire an executor; new policies
// plug in by registering a factory.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "src/noise/noise.h"
#include "src/sched/dag.h"
#include "src/sched/thread_team.h"
#include "src/sched/topology.h"
#include "src/trace/trace.h"

namespace calu::sched {

// The trace layer mirrors the steal-distance class count so it can stay
// independent of sched headers; keep the two in lock step.
static_assert(kStealClassCount == trace::kStealClassCount,
              "sched::StealClass and trace steal_class disagree");

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
  /// Successful steals bucketed by the topology distance between thief
  /// and victim (indexed by StealClass; see topology.h).  Filled by the
  /// Chase-Lev engines ("work-stealing", "numa-hierarchical") — sums to
  /// `steals` there; all-zero for engines that do not classify steals.
  std::uint64_t steals_by_class[kStealClassCount] = {};
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

/// Abstract executor over a finalized TaskGraph.  Implementations must be
/// stateless across run() calls (one engine instance may be reused, even
/// from different teams).
class Engine {
 public:
  virtual ~Engine() = default;

  /// Registry key this engine was built under ("hybrid", ...).
  virtual const std::string& name() const = 0;

  /// Executes every task of `graph` exactly once, respecting edges.
  virtual EngineStats run(ThreadTeam& team, const TaskGraph& graph,
                          const ExecFn& exec,
                          const RunHooks& hooks = {}) = 0;
};

}  // namespace calu::sched
