// engine.cpp — EngineStats merge/report and the three engines: ready-set
// policies, each driven by detail::run_policy (engine_impl.h) and picked
// by name in run_engine().
#include "src/sched/engine.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/sched/chase_lev_deque.h"
#include "src/sched/engine_impl.h"
#include "src/sched/task_queue.h"

namespace calu::sched {

EngineStats& EngineStats::merge(const EngineStats& other) {
  static_pops += other.static_pops;
  dynamic_pops += other.dynamic_pops;
  steals += other.steals;
  steal_attempts += other.steal_attempts;
  promotions += other.promotions;
  pinned_threads = std::max(pinned_threads, other.pinned_threads);
  elapsed = std::max(elapsed, other.elapsed);
  return *this;
}

std::string EngineStats::report() const {
  const std::uint64_t total = static_pops + dynamic_pops + steals;
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "tasks=%llu static=%llu dynamic=%llu steals=%llu/%llu "
                "promoted=%llu elapsed=%.4fs",
                static_cast<unsigned long long>(total),
                static_cast<unsigned long long>(static_pops),
                static_cast<unsigned long long>(dynamic_pops),
                static_cast<unsigned long long>(steals),
                static_cast<unsigned long long>(steal_attempts),
                static_cast<unsigned long long>(promotions), elapsed);
  std::string out = buf;
  if (pinned_threads >= 0) {
    std::snprintf(buf, sizeof(buf), " pinned=%d", pinned_threads);
    out += buf;
  }
  return out;
}

namespace {

using detail::From;
using detail::Pop;

/// "hybrid": the paper's owner queues (Algorithm 1).  Owned tasks (the
/// static section) wait in their owner's priority queue, the rest (the
/// dynamic section) in the sharded global DFS queue.  A thread serves its
/// own queue first and the global queue only when that is empty.
class OwnerQueues {
 public:
  // The dynamic section is one logical DFS queue sharded for contention;
  // a single shard at p == 1 keeps the strict global order the
  // degenerate case promises.
  OwnerQueues(int p, const TaskGraph& graph, const RunHooks&)
      : graph_(graph), p_(p), own_(p_), shared_(std::min(p_, 8)) {}

  bool push(int id, int) {
    const Task& t = graph_.task(id);
    if (t.owner >= 0)
      own_[t.owner % p_].push(t.priority, id);
    else
      shared_.push(t.priority, id);
    return false;
  }

  Pop pop(int tid) {
    int id = -1;
    if (own_[tid].try_pop(id)) return {id, From::Own};
    if (shared_.try_pop(id, tid % shared_.shards())) return {id, From::Shared};
    return {};
  }

  void ran(int) {}

 private:
  const TaskGraph& graph_;
  const int p_;
  std::vector<PriorityTaskQueue> own_;
  ShardedReadyQueue shared_;
};

/// "work-stealing": lock-free Chase-Lev deques (Section 8's baseline).  A
/// ready task goes to the deque of the thread that made it ready; the
/// owner pops LIFO and idle threads steal FIFO, the classic Cilk
/// discipline.  Owner hints and priorities are ignored.  A thief probes
/// the other threads, in ascending order, from a pseudo-random start so
/// thieves do not convoy on one victim.
class ChaseLev {
 public:
  ChaseLev(int p, const TaskGraph&, const RunHooks&)
      : p_(p), deques_(p), rng_(p) {
    for (int t = 0; t < p; ++t) {
      deques_[t] = std::make_unique<ChaseLevDeque>();
      rng_[t].state = kSeed * 0x9E3779B97F4A7C15ULL + t + 1;
    }
  }

  bool push(int id, int tid) {
    deques_[tid]->push_bottom(id);
    return false;
  }

  Pop pop(int tid) {
    int id = -1;
    if (deques_[tid]->pop_bottom(id)) return {id, From::Own};
    Pop got;
    const int m = p_ - 1;  // victims: every thread but `tid`, ascending
    if (m == 0) return got;
    const int start = static_cast<int>(rng_[tid].next() % m);
    for (int k = 0; k < m; ++k) {
      ++got.attempts;
      const int slot = (start + k) % m;
      const int victim = slot < tid ? slot : slot + 1;
      if (deques_[victim]->steal_top(id)) {
        got.id = id;
        got.from = From::Stolen;
        return got;
      }
    }
    return got;
  }

  void ran(int) {}

 private:
  static constexpr std::uint64_t kSeed = 7;  // victim-order RNG seed
  struct alignas(64) Rng {  // xorshift64*, one cache line per thread
    std::uint64_t state = 0;
    std::uint64_t next() {
      state ^= state >> 12;
      state ^= state << 25;
      state ^= state >> 27;
      return state * 0x2545F4914F6CDD1DULL;
    }
  };
  const int p_;
  std::vector<std::unique_ptr<ChaseLevDeque>> deques_;
  std::vector<Rng> rng_;
};

/// True for tasks on a panel column (the factorization's critical path):
/// panel preprocessing (P), the panel's L tiles, and the pL operand
/// packs.  Generic tasks (step < 0), off-panel tasks, and tasks whose job
/// opted out of promotion (Batch priority class) never promote.
bool panel_column_task(const Task& t) {
  if (!t.promotable) return false;
  if (t.step < 0) return false;
  if (t.kind == trace::Kind::P) return true;
  if (t.kind != trace::Kind::L && t.kind != trace::Kind::PackL) return false;
  return t.j < 0 || t.j == t.step;
}

/// "priority-lookahead", after arXiv:1804.07017.  The static look-ahead
/// of task_queue.h is an artifact of the priority key: panel-column tasks
/// sort first only within one thread's queue, so a panel advances only
/// when the thread holding it gets to it.  This policy makes it dynamic:
///
///   * A ready task goes to its owner's priority queue or, unowned, to
///     the queue of the thread that made it ready (its inputs are hot in
///     that cache).
///   * A panel-column task whose step lies within RunHooks::
///     lookahead_depth panels of the completion frontier is promoted to
///     a shared urgent queue every thread serves before its own.
///   * A thread with nothing local scans the other threads' queues, so no
///     ready task is stranded behind a busy owner.
///
/// The frontier is the oldest step with unfinished tasks, tracked by
/// per-step counters that ran() decrements before the successors are
/// classified.  The bounded window keeps the policy a look-ahead (bounded
/// live panels and pack-arena footprint) rather than a depth-first rush.
class Lookahead {
 public:
  Lookahead(int p, const TaskGraph& graph, const RunHooks& hooks)
      : graph_(graph), p_(p),
        depth_(std::max(1, hooks.lookahead_depth)), own_(p_),
        step_left_(num_steps(graph)) {
    for (int t = 0; t < graph.num_tasks(); ++t)
      if (graph.task(t).step >= 0)
        step_left_[graph.task(t).step].fetch_add(1, std::memory_order_relaxed);
  }

  bool push(int id, int tid) {
    const Task& t = graph_.task(id);
    if (panel_column_task(t) &&
        t.step < frontier_.load(std::memory_order_relaxed) + depth_) {
      urgent_.push(t.priority, id);
      return true;
    }
    own_[t.owner >= 0 ? t.owner % p_ : tid].push(t.priority, id);
    return false;
  }

  Pop pop(int tid) {
    int id = -1;
    if (urgent_.try_pop(id)) return {id, From::Promoted};
    if (own_[tid].try_pop(id)) return {id, From::Own};
    if (p_ == 1) return {};
    for (int i = 1; i < p_; ++i)
      if (own_[(tid + i) % p_].try_pop(id)) return {id, From::Stolen, 1};
    return {-1, From::Own, 1};
  }

  void ran(int id) {
    const int k = graph_.task(id).step;
    if (k < 0 || step_left_[k].fetch_sub(1, std::memory_order_acq_rel) != 1)
      return;
    // Advance past every finished step; a failed CAS reloads `f`.
    const int nsteps = static_cast<int>(step_left_.size());
    int f = frontier_.load(std::memory_order_acquire);
    while (f < nsteps && step_left_[f].load(std::memory_order_acquire) == 0)
      if (frontier_.compare_exchange_weak(f, f + 1,
                                          std::memory_order_acq_rel))
        ++f;
  }

 private:
  static int num_steps(const TaskGraph& graph) {
    int n = 0;
    for (int t = 0; t < graph.num_tasks(); ++t)
      n = std::max(n, graph.task(t).step + 1);
    return n;
  }

  const TaskGraph& graph_;
  const int p_;
  const int depth_;
  std::vector<PriorityTaskQueue> own_;
  PriorityTaskQueue urgent_;  // promoted panel-column tasks, shared
  std::vector<std::atomic<int>> step_left_;
  std::atomic<int> frontier_{0};
};

/// Builds a fresh Policy for the run (engines keep no state across runs)
/// and hands it to the one executor loop.
template <class Policy>
EngineStats run_with(ThreadTeam& team, const TaskGraph& graph,
                     const ExecFn& exec, const RunHooks& hooks) {
  Policy policy(team.size(), graph, hooks);
  return detail::run_policy(policy, team, graph, exec, hooks);
}

/// Warns once per distinct unknown name: the fallback sits on per-call
/// paths (every job of a batch resolves its engine), and a typo'd name
/// must not spam stderr thousands of times.
void warn_unknown(std::string_view name) {
  static std::mutex mu;
  static std::set<std::string, std::less<>> warned;
  {
    std::lock_guard lk(mu);
    if (!warned.emplace(name).second) return;
  }
  std::fprintf(stderr,
               "calu::sched: unknown engine '%.*s', using \"hybrid\"\n",
               static_cast<int>(name.size()), name.data());
}

}  // namespace

EngineStats run_engine(std::string_view name, ThreadTeam& team,
                       const TaskGraph& graph, const ExecFn& exec,
                       const RunHooks& hooks) {
  if (name == "work-stealing")
    return run_with<ChaseLev>(team, graph, exec, hooks);
  if (name == "priority-lookahead")
    return run_with<Lookahead>(team, graph, exec, hooks);
  if (name != "hybrid") warn_unknown(name);
  return run_with<OwnerQueues>(team, graph, exec, hooks);
}

std::vector<std::string> engine_names() {
  return {"hybrid", "priority-lookahead", "work-stealing"};
}

}  // namespace calu::sched
