// engine_impl.h — the one executor loop every built-in engine runs.
// Internal: include from src/sched/*.cpp only.
//
// Algorithm 1's loop is the same at every point of the design space:
// while tasks remain, take a ready task, run it, release its successors.
// Engines differ only in where ready tasks wait — a ready-set policy,
// built from (team size, graph, hooks), with three members:
//
//   bool push(int id, int tid)  files ready task `id`.  `tid` is the
//                               thread that made it ready; the loop deals
//                               the roots round-robin before the run.
//                               Returns true when the task was promoted
//                               past the per-thread queues.
//   Pop pop(int tid)            the next task for thread `tid` (id < 0
//                               when nothing is ready for it), where it
//                               came from, and the steal probes made.
//   void ran(int id)            called after task `id`'s body returned
//                               and before its successors are pushed.
//
// Every team thread calls push and pop concurrently; once the run has
// started, push(id, tid) is only called by thread `tid`.  The policy is a
// template parameter, so neither call is virtual.
#pragma once

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/sched/engine.h"

namespace calu::sched::detail {

/// Which queue served a pop: decides the counter the loop bumps and how
/// the task is flagged to on_retire and the trace.
enum class From : std::uint8_t {
  Own,       // the thread's own queue           -> static_pops
  Shared,    // a shared dynamic queue           -> dynamic_pops
  Promoted,  // the shared look-ahead queue      -> dynamic_pops
  Stolen,    // another thread's queue           -> steals
};

struct Pop {
  int id = -1;  // task to run; -1 when nothing is ready for the thread
  From from = From::Own;
  int attempts = 0;  // steal probes made, successful or not
};

/// Runs every task of `graph` once through `policy` on `team`.
template <class Policy>
EngineStats run_policy(Policy& policy, ThreadTeam& team,
                       const TaskGraph& graph, const ExecFn& exec,
                       const RunHooks& hooks) {
  assert(graph.finalized());
  const int p = team.size();
  const int n = graph.num_tasks();
  std::vector<std::atomic<int>> deps(n);
  for (int t = 0; t < n; ++t)
    deps[t].store(graph.initial_deps(t), std::memory_order_relaxed);
  std::atomic<int> remaining{n};
  // One cache line per thread, merged once at the end.
  struct alignas(64) Slot {
    EngineStats st;
  };
  std::vector<Slot> per(p);

  int rr = 0;
  for (int t = 0; t < n; ++t)
    if (graph.initial_deps(t) == 0) {
      const int tid = rr++ % p;
      per[tid].st.promotions += policy.push(t, tid);
    }

  trace::Recorder* rec = hooks.recorder;
  if (rec) rec->start(p);
  const auto t0 = std::chrono::steady_clock::now();

  team.run([&](int tid) {
    EngineStats& me = per[tid].st;
    int backoff = 0;
    while (remaining.load(std::memory_order_acquire) > 0) {
      const Pop got = policy.pop(tid);
      me.steal_attempts += got.attempts;
      if (got.id < 0) {
        // Nothing ready for this thread: spin briefly, then yield.  The
        // paper's threads spin the same way while waiting on a panel.
        if (++backoff > 64) {
          std::this_thread::yield();
          backoff = 0;
        }
        continue;
      }
      backoff = 0;
      const int id = got.id;
      switch (got.from) {
        case From::Own: ++me.static_pops; break;
        case From::Shared:
        case From::Promoted: ++me.dynamic_pops; break;
        case From::Stolen: ++me.steals; break;
      }
      const bool dynamic = got.from != From::Own;

      if (hooks.injector) hooks.injector->maybe_inject(tid);
      trace::Event ev;
      if (rec) {
        const Task& t = graph.task(id);
        ev.kind = t.kind;
        ev.step = t.step;
        ev.i = t.i;
        ev.j = t.j;
        ev.dynamic = dynamic;
        ev.promoted = got.from == From::Promoted;
        ev.t0 = rec->now();
      }
      exec(id, tid);
      if (rec) {
        ev.t1 = rec->now();
        rec->record(tid, ev);
      }
      policy.ran(id);
      for (int s : graph.successors(id))
        if (deps[s].fetch_sub(1, std::memory_order_acq_rel) == 1)
          me.promotions += policy.push(s, tid);
      // Retire hook before the remaining decrement: no thread can see the
      // run as done until the hook returned, so per-job completion
      // accounting (Session::run_fused) never races the end of the run.
      if (hooks.on_retire) hooks.on_retire(id, tid, dynamic);
      remaining.fetch_sub(1, std::memory_order_acq_rel);
    }
  });

  if (rec) rec->stop();
  EngineStats st;
  for (const Slot& s : per) st.merge(s.st);
  st.elapsed = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  st.pinned_threads = team.pinned_count();
  return st;
}

}  // namespace calu::sched::detail
