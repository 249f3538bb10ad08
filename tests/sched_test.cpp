// sched_test.cpp — thread team, queues, the lock-free deque, engine
// selection by name, and the DAG executors on synthetic graphs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <tuple>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "src/noise/noise.h"
#include "src/sched/chase_lev_deque.h"
#include "src/sched/dag.h"
#include "src/sched/engine.h"
#include "src/sched/session.h"
#include "src/sched/task_queue.h"
#include "src/sched/thread_team.h"
#include "src/sched/topology.h"

namespace calu {
namespace {

using sched::ChaseLevDeque;
using sched::kDynamicOwner;
using sched::PriorityTaskQueue;
using sched::ShardedReadyQueue;
using sched::Task;
using sched::TaskGraph;
using sched::ThreadTeam;

// ------------------------------------------------------------- team ---

TEST(ThreadTeam, RunsOnAllThreads) {
  ThreadTeam team(4, /*pin=*/false);
  std::atomic<int> mask{0};
  team.run([&](int tid) { mask.fetch_or(1 << tid); });
  EXPECT_EQ(mask.load(), 0b1111);
}

TEST(ThreadTeam, SingleThreadWorks) {
  ThreadTeam team(1, false);
  int x = 0;
  team.run([&](int) { ++x; });
  EXPECT_EQ(x, 1);
}

TEST(ThreadTeam, RepeatedRegions) {
  ThreadTeam team(3, false);
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i) team.run([&](int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 150);
}

TEST(ThreadTeam, ParallelForCoversRange) {
  ThreadTeam team(5, false);
  std::vector<std::atomic<int>> hits(137);
  team.parallel_for(137, [&](int i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadTeam, ParallelForEmptyAndSmall) {
  ThreadTeam team(4, false);
  team.parallel_for(0, [&](int) { FAIL(); });
  std::atomic<int> n{0};
  team.parallel_for(2, [&](int) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 2);
}

TEST(ThreadTeam, ParallelForVisitsEveryIndexExactlyOnce) {
  // The shared-counter hand-out must neither skip nor repeat an index at
  // the edges: empty, one (run inline), fewer indices than threads,
  // exactly one per thread, and a ragged multiple.
  for (int p : {1, 2, 4}) {
    ThreadTeam team(p, false);
    for (int n : {0, 1, p - 1, p, 10 * p + 3}) {
      SCOPED_TRACE("p=" + std::to_string(p) + " n=" + std::to_string(n));
      std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
      for (auto& h : hits) h.store(0);
      team.parallel_for(n, [&](int i) { hits[i].fetch_add(1); });
      for (auto& h : hits) EXPECT_EQ(h.load(), 1);
    }
  }
}

TEST(ThreadTeam, HardwareThreadsHonorsAffinityMask) {
  // Default-sized teams must size themselves from the cpus the process is
  // actually allowed on, not the machine's core count.
  const int n = ThreadTeam::hardware_threads();
  EXPECT_GE(n, 1);
#ifdef __linux__
  cpu_set_t set;
  ASSERT_EQ(sched_getaffinity(0, sizeof(set), &set), 0);
  EXPECT_EQ(n, CPU_COUNT(&set));
  // Under a restricted mask (cpusets, containers, taskset) the old
  // hardware_concurrency() answer would exceed the allowance.
  EXPECT_LE(n, static_cast<int>(std::thread::hardware_concurrency()));
#endif
}

TEST(ThreadTeam, PinnedSessionGivesItsCallerBackItsMask) {
  // A pinned team pins the thread that builds it as thread 0.  Once the
  // team is gone that thread must run where it ran before, and the
  // process's cpu count must not shrink to the one cpu it was pinned to
  // (threads = 0 would then resolve to a one-thread team, and threads the
  // caller spawns later would inherit the single cpu).
  const std::vector<int> cpus = sched::system_topology().pin_order();
  if (cpus.size() < 2) GTEST_SKIP() << "needs at least 2 cpus";
#ifdef __linux__
  std::thread([&] {
    cpu_set_t before;
    CPU_ZERO(&before);
    for (int c : cpus) CPU_SET(c, &before);
    ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof(before), &before),
              0);
    const int hw = ThreadTeam::hardware_threads();
    { sched::Session session(sched::SessionOptions{2, true}); }
    cpu_set_t after;
    ASSERT_EQ(pthread_getaffinity_np(pthread_self(), sizeof(after), &after),
              0);
    EXPECT_TRUE(CPU_EQUAL(&before, &after));
    EXPECT_EQ(ThreadTeam::hardware_threads(), hw);
  }).join();
#endif
}

TEST(ThreadTeam, WorkersParkWhenIdleAndWakeOnDispatch) {
  // Back-to-back regions after an idle gap long enough for every worker
  // to futex-park: the mask-based wakeup must still dispatch all of them.
  ThreadTeam team(4, false);
  for (int round = 0; round < 3; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));  // all park
    std::atomic<int> mask{0};
    team.run([&](int tid) { mask.fetch_or(1 << tid); });
    EXPECT_EQ(mask.load(), 0b1111) << "round " << round;
  }
}

// ------------------------------------------------------------ queues ---

TEST(PriorityTaskQueue, PopsInKeyOrder) {
  PriorityTaskQueue q;
  q.push(30, 3);
  q.push(10, 1);
  q.push(20, 2);
  int t;
  ASSERT_TRUE(q.try_pop(t));
  EXPECT_EQ(t, 1);
  ASSERT_TRUE(q.try_pop(t));
  EXPECT_EQ(t, 2);
  ASSERT_TRUE(q.try_pop(t));
  EXPECT_EQ(t, 3);
  EXPECT_FALSE(q.try_pop(t));
}

TEST(PriorityTaskQueue, SizeAndEmpty) {
  PriorityTaskQueue q;
  EXPECT_TRUE(q.empty());
  q.push(1, 0);
  q.push(2, 1);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_FALSE(q.empty());
}

TEST(ChaseLevDeque, LifoOwnerFifoThief) {
  ChaseLevDeque d;
  d.push_bottom(1);
  d.push_bottom(2);
  d.push_bottom(3);
  int t;
  ASSERT_TRUE(d.steal_top(t));
  EXPECT_EQ(t, 1);  // thief takes oldest
  ASSERT_TRUE(d.pop_bottom(t));
  EXPECT_EQ(t, 3);  // owner takes newest
  ASSERT_TRUE(d.pop_bottom(t));
  EXPECT_EQ(t, 2);
  EXPECT_FALSE(d.pop_bottom(t));
  EXPECT_FALSE(d.steal_top(t));
}

TEST(ChaseLevDeque, GrowsPastInitialCapacity) {
  ChaseLevDeque d(/*initial_capacity=*/2);
  const int n = 10000;
  for (int i = 0; i < n; ++i) d.push_bottom(i);
  EXPECT_EQ(d.size(), static_cast<std::size_t>(n));
  for (int i = n - 1; i >= 0; --i) {
    int t = -1;
    ASSERT_TRUE(d.pop_bottom(t));
    EXPECT_EQ(t, i);
  }
  int t;
  EXPECT_FALSE(d.pop_bottom(t));
}

// The contention stress test the lock-free claim rests on: one owner
// pushing/popping at the bottom while several thieves hammer steal_top,
// with a tiny initial ring so growth races steals.  Every task must be
// executed exactly once — nothing lost, nothing double-executed.
TEST(ChaseLevDeque, StressNoTaskLostOrDoubleExecuted) {
  const int kTasks = 200000;
  const int kThieves = 3;
  ChaseLevDeque d(/*initial_capacity=*/4);
  std::vector<std::atomic<int>> hits(kTasks);
  for (auto& h : hits) h.store(0);
  std::atomic<int> executed{0};

  auto consume = [&](int id) {
    hits[id].fetch_add(1, std::memory_order_relaxed);
    executed.fetch_add(1, std::memory_order_acq_rel);
  };

  std::vector<std::thread> thieves;
  thieves.reserve(kThieves);
  for (int w = 0; w < kThieves; ++w)
    thieves.emplace_back([&] {
      int t;
      while (executed.load(std::memory_order_acquire) < kTasks)
        if (d.steal_top(t)) consume(t);
    });

  // Owner: bursts of pushes interleaved with LIFO pops, then drain.
  std::mt19937 rng(42);
  int next = 0;
  while (next < kTasks) {
    const int burst =
        std::min<int>(1 + static_cast<int>(rng() % 64), kTasks - next);
    for (int i = 0; i < burst; ++i) d.push_bottom(next++);
    for (int i = 0; i < burst / 2; ++i) {
      int t;
      if (d.pop_bottom(t)) consume(t);
    }
  }
  int t;
  while (executed.load(std::memory_order_acquire) < kTasks)
    if (d.pop_bottom(t)) consume(t);
  for (auto& th : thieves) th.join();

  EXPECT_EQ(executed.load(), kTasks);
  for (int i = 0; i < kTasks; ++i)
    ASSERT_EQ(hits[i].load(), 1) << "task " << i;
}

// Steal-heavy adversarial pattern: one owner trickles tasks out slowly
// while N-1 thieves hammer steal_top with randomized yields between
// attempts, so the CAS interleavings (thief-vs-thief and thief-vs-owner
// on the last element) are exercised under maximal contention rather
// than the drain-mostly pattern of the test above.
TEST(ChaseLevDeque, StressStealHeavyAdversarial) {
  const int kTasks = 100000;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int kThieves = std::clamp(hw - 1, 3, 7);
  ChaseLevDeque d(/*initial_capacity=*/2);
  std::vector<std::atomic<int>> hits(kTasks);
  for (auto& h : hits) h.store(0);
  std::atomic<int> executed{0};

  auto consume = [&](int id) {
    hits[id].fetch_add(1, std::memory_order_relaxed);
    executed.fetch_add(1, std::memory_order_acq_rel);
  };

  std::vector<std::thread> thieves;
  thieves.reserve(kThieves);
  for (int w = 0; w < kThieves; ++w)
    thieves.emplace_back([&, w] {
      std::mt19937 rng(1000 + w);
      int t;
      while (executed.load(std::memory_order_acquire) < kTasks) {
        if (d.steal_top(t)) consume(t);
        // Randomized yields de-synchronize the thieves so steals hit
        // every phase of the owner's push/pop/grow cycle.
        if (rng() % 8 == 0) std::this_thread::yield();
      }
    });

  // Owner: push one or two at a time (the deque hovers near empty, the
  // ABA-prone regime), occasionally popping its own bottom.
  std::mt19937 rng(7);
  int next = 0;
  while (next < kTasks) {
    const int burst = 1 + static_cast<int>(rng() % 2);
    for (int i = 0; i < burst && next < kTasks; ++i) d.push_bottom(next++);
    if (rng() % 4 == 0) {
      int t;
      if (d.pop_bottom(t)) consume(t);
    }
    if (rng() % 16 == 0) std::this_thread::yield();
  }
  int t;
  while (executed.load(std::memory_order_acquire) < kTasks)
    if (d.pop_bottom(t)) consume(t);
  for (auto& th : thieves) th.join();

  EXPECT_EQ(executed.load(), kTasks);
  for (int i = 0; i < kTasks; ++i)
    ASSERT_EQ(hits[i].load(), 1) << "task " << i;
}

// Empty/one-element regression: the pop_bottom/steal_top race on the
// final element is where Chase-Lev implementations historically lose or
// duplicate a task (the top CAS must arbitrate exactly one winner).
// Round-trip a single element many times with a concurrent thief and
// assert exactly-once consumption plus an empty deque after every round.
TEST(ChaseLevDeque, StressOneElementOwnerThiefRace) {
  const int kRounds = 50000;
  ChaseLevDeque d(/*initial_capacity=*/2);
  std::vector<std::atomic<int>> hits(kRounds);
  for (auto& h : hits) h.store(0);
  std::atomic<int> consumed{0};
  std::atomic<bool> stop{false};

  std::thread thief([&] {
    int t;
    while (!stop.load(std::memory_order_acquire))
      if (d.steal_top(t)) {
        hits[t].fetch_add(1, std::memory_order_relaxed);
        consumed.fetch_add(1, std::memory_order_acq_rel);
      }
  });

  for (int r = 0; r < kRounds; ++r) {
    d.push_bottom(r);
    int t;
    if (d.pop_bottom(t)) {
      hits[t].fetch_add(1, std::memory_order_relaxed);
      consumed.fetch_add(1, std::memory_order_acq_rel);
    }
    // The element went to exactly one side; wait for the round to settle
    // so rounds can't overlap (each round is a fresh 1-element race).
    while (consumed.load(std::memory_order_acquire) < r + 1)
      std::this_thread::yield();
    EXPECT_TRUE(d.empty());
  }
  stop.store(true, std::memory_order_release);
  thief.join();

  EXPECT_EQ(consumed.load(), kRounds);
  for (int i = 0; i < kRounds; ++i)
    ASSERT_EQ(hits[i].load(), 1) << "round " << i;
}

// Empty-deque operations must stay safe under concurrency: pop/steal on
// an empty deque from both sides, interleaved with single pushes.
TEST(ChaseLevDeque, EmptyPopAndStealAreSafe) {
  ChaseLevDeque d(/*initial_capacity=*/2);
  int t = -1;
  EXPECT_FALSE(d.pop_bottom(t));
  EXPECT_FALSE(d.steal_top(t));
  EXPECT_TRUE(d.empty());
  // pop_bottom on empty briefly decrements bottom_ below top_; a steal
  // racing that window must not fabricate an element.
  d.push_bottom(41);
  ASSERT_TRUE(d.pop_bottom(t));
  EXPECT_EQ(t, 41);
  EXPECT_FALSE(d.pop_bottom(t));
  EXPECT_FALSE(d.steal_top(t));
  d.push_bottom(43);
  ASSERT_TRUE(d.steal_top(t));
  EXPECT_EQ(t, 43);
  EXPECT_FALSE(d.steal_top(t));
  EXPECT_TRUE(d.empty());
}

TEST(ShardedReadyQueue, SingleShardKeepsStrictPriorityOrder) {
  ShardedReadyQueue q(1);
  q.push(30, 3);
  q.push(10, 1);
  q.push(20, 2);
  int t;
  ASSERT_TRUE(q.try_pop(t));
  EXPECT_EQ(t, 1);
  ASSERT_TRUE(q.try_pop(t));
  EXPECT_EQ(t, 2);
  ASSERT_TRUE(q.try_pop(t));
  EXPECT_EQ(t, 3);
  EXPECT_FALSE(q.try_pop(t));
}

TEST(ShardedReadyQueue, PoppersFindWorkOnAnyShard) {
  ShardedReadyQueue q(4);
  EXPECT_EQ(q.shards(), 4);
  for (int i = 0; i < 100; ++i) q.push(i, i);
  EXPECT_EQ(q.size(), 100u);
  std::set<int> seen;
  int t;
  for (int pref = 0; q.try_pop(t, pref); pref = (pref + 1) % 4)
    seen.insert(t);
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_TRUE(q.empty());
}

// --------------------------------------------------------- TaskGraph ---

TEST(TaskGraph, CsrSuccessors) {
  TaskGraph g;
  for (int i = 0; i < 4; ++i) g.add_task(Task{});
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  g.finalize();
  EXPECT_EQ(g.num_tasks(), 4);
  EXPECT_EQ(g.num_edges(), 0);  // edges consumed into CSR
  auto s0 = g.successors(0);
  EXPECT_EQ(s0.size(), 2u);
  EXPECT_EQ(g.initial_deps(0), 0);
  EXPECT_EQ(g.initial_deps(3), 2);
}

// ------------------------------------------------- TaskGraph::append ---

TEST(TaskGraph, AppendOffsetsIdsAndRekeysPriorities) {
  // Two jobs fused with scale = 2: job 0 at bias 0, job 1 at bias 1.
  TaskGraph a;
  for (int i = 0; i < 2; ++i) {
    Task t;
    t.kind = trace::Kind::P;
    t.step = 7;
    t.i = 3;
    t.j = 4;
    t.priority = static_cast<std::uint64_t>(10 + i);
    t.owner = i;
    t.promotable = i == 0;
    a.add_task(t);
  }
  a.add_edge(0, 1);

  TaskGraph b;
  for (int i = 0; i < 3; ++i) {
    Task t;
    t.priority = static_cast<std::uint64_t>(20 + i);
    t.owner = kDynamicOwner;
    b.add_task(t);
  }
  b.add_edge(0, 2);
  b.add_edge(1, 2);

  TaskGraph fused;
  const int off_a = fused.append(a, /*priority_scale=*/2, /*priority_bias=*/0);
  const int off_b = fused.append(b, /*priority_scale=*/2, /*priority_bias=*/1);
  EXPECT_EQ(off_a, 0);
  EXPECT_EQ(off_b, 2);
  ASSERT_EQ(fused.num_tasks(), 5);
  EXPECT_EQ(fused.num_edges(), 3);

  // Priorities re-keyed: orig * scale + bias, preserving each job's
  // internal order and round-robin interleave at equal original priority.
  EXPECT_EQ(fused.task(0).priority, 20u);
  EXPECT_EQ(fused.task(1).priority, 22u);
  EXPECT_EQ(fused.task(2).priority, 41u);
  EXPECT_EQ(fused.task(3).priority, 43u);
  EXPECT_EQ(fused.task(4).priority, 45u);
  // Everything else copies through untouched.
  EXPECT_EQ(fused.task(0).kind, trace::Kind::P);
  EXPECT_EQ(fused.task(0).step, 7);
  EXPECT_EQ(fused.task(0).i, 3);
  EXPECT_EQ(fused.task(0).j, 4);
  EXPECT_EQ(fused.task(0).owner, 0);
  EXPECT_EQ(fused.task(1).owner, 1);
  EXPECT_TRUE(fused.task(0).promotable);
  EXPECT_FALSE(fused.task(1).promotable);
  EXPECT_EQ(fused.task(2).owner, kDynamicOwner);

  fused.finalize();
  // CSR after append: edges land on the offset-shifted ids.
  auto sa = fused.successors(0);
  ASSERT_EQ(sa.size(), 1u);
  EXPECT_EQ(sa[0], 1);
  auto sb0 = fused.successors(2);
  ASSERT_EQ(sb0.size(), 1u);
  EXPECT_EQ(sb0[0], 4);
  auto sb1 = fused.successors(3);
  ASSERT_EQ(sb1.size(), 1u);
  EXPECT_EQ(sb1[0], 4);
  EXPECT_EQ(fused.initial_deps(0), 0);
  EXPECT_EQ(fused.initial_deps(1), 1);
  EXPECT_EQ(fused.initial_deps(4), 2);
}

TEST(TaskGraph, AppendFromFinalizedSourceKeepsEdges) {
  // A finalized source (edges already consumed into CSR) must append
  // identically to an unfinalized one — the fused batch path appends
  // graphs that jobs finalized for their own one-shot use.
  TaskGraph src;
  for (int i = 0; i < 4; ++i) {
    Task t;
    t.priority = static_cast<std::uint64_t>(i);
    src.add_task(t);
  }
  src.add_edge(0, 1);
  src.add_edge(0, 2);
  src.add_edge(1, 3);
  src.add_edge(2, 3);
  src.finalize();

  TaskGraph fused;
  fused.add_task(Task{});  // pre-existing task shifts the offset
  const int off = fused.append(src);
  EXPECT_EQ(off, 1);
  ASSERT_EQ(fused.num_tasks(), 5);
  fused.finalize();
  auto s = fused.successors(1);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(fused.initial_deps(1), 0);
  EXPECT_EQ(fused.initial_deps(2), 1);
  EXPECT_EQ(fused.initial_deps(4), 2);
  // Default scale/bias keep priorities verbatim.
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(fused.task(1 + i).priority, static_cast<std::uint64_t>(i));
}


// ------------------------------------------- executors on synthetic DAGs

struct ExecLog {
  std::vector<std::atomic<int>> order;  // completion stamp per task
  std::atomic<int> counter{0};
  explicit ExecLog(int n) : order(n) {
    for (auto& o : order) o.store(-1);
  }
  void mark(int id) { order[id].store(counter.fetch_add(1)); }
};

// Builds a random DAG with edges only from lower to higher ids.
TaskGraph random_dag(int n, double edge_prob, std::uint64_t seed,
                     int owners) {
  TaskGraph g;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0, 1);
  for (int i = 0; i < n; ++i) {
    Task t;
    t.priority = static_cast<std::uint64_t>(i);
    t.owner = owners > 0 ? static_cast<int>(rng() % (owners + 1)) - 1
                         : kDynamicOwner;  // mix of owned and dynamic
    g.add_task(t);
  }
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j)
      if (u(rng) < edge_prob) g.add_edge(i, j);
  g.finalize();
  return g;
}

void check_topological(const TaskGraph& g, const ExecLog& log) {
  for (int i = 0; i < g.num_tasks(); ++i) {
    ASSERT_GE(log.order[i].load(), 0) << "task " << i << " never ran";
    for (int s : g.successors(i))
      EXPECT_LT(log.order[i].load(), log.order[s].load())
          << "edge " << i << "->" << s << " violated";
  }
}

using sched::run_engine;

// Every engine x team size on synthetic DAGs, selected by name.
class ExecutorTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {
 protected:
  const std::string& engine() const { return std::get<0>(GetParam()); }
  int threads() const { return std::get<1>(GetParam()); }

  /// Runs `g` under the parameter engine and checks the stats contract
  /// the one executor loop gives every engine.
  void run(ThreadTeam& team, const TaskGraph& g, const sched::ExecFn& exec) {
    const sched::EngineStats st = run_engine(engine(), team, g, exec);
    EXPECT_EQ(st.static_pops + st.dynamic_pops + st.steals,
              static_cast<std::uint64_t>(g.num_tasks()));
    EXPECT_GE(st.steal_attempts, st.steals);
    EXPECT_EQ(st.pinned_threads, team.pinned_count());
  }
};

TEST_P(ExecutorTest, RunsAllOnce) {
  const int p = threads();
  ThreadTeam team(p, false);
  TaskGraph g = random_dag(500, 0.02, 99, p);
  ExecLog log(g.num_tasks());
  run(team, g, [&](int id, int) { log.mark(id); });
  EXPECT_EQ(log.counter.load(), g.num_tasks());
  check_topological(g, log);
}

TEST_P(ExecutorTest, LongChainCompletes) {
  // Serial chain: worst case for parallel executors, exercises idle paths.
  const int p = threads();
  ThreadTeam team(p, false);
  TaskGraph g;
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    Task t;
    t.owner = i % 2 == 0 ? (i / 2) % p : kDynamicOwner;
    g.add_task(t);
  }
  for (int i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  g.finalize();
  ExecLog log(n);
  run(team, g, [&](int id, int) { log.mark(id); });
  for (int i = 0; i < n; ++i) EXPECT_EQ(log.order[i].load(), i);
}

TEST_P(ExecutorTest, WideFanOutFanIn) {
  ThreadTeam team(threads(), false);
  TaskGraph g;
  const int width = 300;
  g.add_task(Task{});  // source
  for (int i = 0; i < width; ++i) g.add_task(Task{});
  g.add_task(Task{});  // sink
  for (int i = 1; i <= width; ++i) {
    g.add_edge(0, i);
    g.add_edge(i, width + 1);
  }
  g.finalize();
  ExecLog log(g.num_tasks());
  run(team, g, [&](int id, int) { log.mark(id); });
  EXPECT_EQ(log.order[0].load(), 0);
  EXPECT_EQ(log.order[width + 1].load(), width + 1);
}

TEST_P(ExecutorTest, StressManyTasks) {
  static const TaskGraph g = random_dag(5000, 0.002, 101, 8);
  ThreadTeam team(threads(), false);
  std::atomic<int> ran{0};
  run(team, g, [&](int, int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 5000);
}

TEST_P(ExecutorTest, EmptyGraph) {
  ThreadTeam team(threads(), false);
  TaskGraph g;
  g.finalize();
  run(team, g, [&](int, int) { FAIL(); });
}

std::string engine_threads_name(
    const ::testing::TestParamInfo<ExecutorTest::ParamType>& info) {
  std::string name = std::get<0>(info.param);
  std::replace(name.begin(), name.end(), '-', '_');
  return name + "_" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    EnginesByThreads, ExecutorTest,
    ::testing::Combine(::testing::ValuesIn(sched::engine_names()),
                       ::testing::Values(1, 2, 4, 8)),
    engine_threads_name);

/// A reusable barrier for `n` threads: a mutex plus a condition variable
/// with a round counter, so a thread leaving round r cannot be counted
/// toward round r + 1 before everyone has left.
class RoundBarrier {
 public:
  explicit RoundBarrier(int n) : n_(n) {}

  void arrive_and_wait() {
    std::unique_lock lk(mu_);
    const std::uint64_t round = round_;
    if (++arrived_ == n_) {
      arrived_ = 0;
      ++round_;
      cv_.notify_all();
      return;
    }
    cv_.wait(lk, [&] { return round_ != round; });
  }

 private:
  const int n_;
  std::mutex mu_;
  std::condition_variable cv_;
  int arrived_ = 0;         // guarded by mu_
  std::uint64_t round_ = 0;  // guarded by mu_
};

TEST(Executor, StaticTasksServedByTheirOwner) {
  // With all tasks owned and no dependencies, every task must be executed
  // by its owner thread (no stealing in the owner-queues engine's static
  // part).
  const int p = 4;
  ThreadTeam team(p, false);
  TaskGraph g;
  const int n = 400;
  for (int i = 0; i < n; ++i) {
    Task t;
    t.owner = i % p;
    t.priority = static_cast<std::uint64_t>(i);
    g.add_task(t);
  }
  g.finalize();
  std::vector<std::atomic<int>> ran_by(n);
  run_engine("hybrid", team, g,
             [&](int id, int tid) { ran_by[id].store(tid); });
  for (int i = 0; i < n; ++i) EXPECT_EQ(ran_by[i].load(), i % p);
}

TEST(Executor, DynamicTasksCanRunAnywhere) {
  ThreadTeam team(4, false);
  TaskGraph g;
  for (int i = 0; i < 1000; ++i) g.add_task(Task{});  // all dynamic
  g.finalize();
  std::set<int> tids;
  std::mutex mu;
  run_engine("hybrid", team, g, [&](int, int tid) {
    noise::burn(1e-5);
    std::lock_guard lk(mu);
    tids.insert(tid);
  });
  EXPECT_GT(tids.size(), 1u);  // load got shared
}

TEST(Executor, GlobalQueueFollowsPriorityOrder) {
  // Single thread, all-dynamic, no deps: strict priority order expected.
  ThreadTeam team(1, false);
  TaskGraph g;
  const int n = 50;
  for (int i = 0; i < n; ++i) {
    Task t;
    t.priority = static_cast<std::uint64_t>(n - i);  // reversed
    g.add_task(t);
  }
  g.finalize();
  std::vector<int> order;
  run_engine("hybrid", team, g, [&](int id, int) { order.push_back(id); });
  for (int i = 0; i + 1 < n; ++i)
    EXPECT_GT(g.task(order[i]).priority, 0u);
  // Reversed priorities => tasks pop in reverse id order.
  for (int i = 0; i < n; ++i) EXPECT_EQ(order[i], n - 1 - i);
}

// ------------------------------------------------- engine by name ---

TEST(RunEngine, NamesAreTheThreeEngines) {
  EXPECT_EQ(sched::engine_names(),
            (std::vector<std::string>{"hybrid", "priority-lookahead",
                                      "work-stealing"}));
}

/// `n` dependency-free dynamic tasks.  Only "hybrid" serves them from a
/// shared queue (dynamic_pops == n); the other engines file unowned tasks
/// in per-thread queues.
TaskGraph dynamic_tasks(int n) {
  TaskGraph g;
  for (int i = 0; i < n; ++i) g.add_task(Task{});
  g.finalize();
  return g;
}

TEST(RunEngine, UnknownNameFallsBackToHybrid) {
  // The driver path: a typo'd Options::engine must degrade to hybrid (with
  // a stderr warning), never crash a release build.
  ThreadTeam team(2, false);
  const TaskGraph g = dynamic_tasks(10);
  std::atomic<int> ran{0};
  const sched::EngineStats st =
      run_engine("no-such-engine", team, g, [&](int, int) { ran++; });
  EXPECT_EQ(ran.load(), 10);
  EXPECT_EQ(st.dynamic_pops, 10u);
  for (const char* name : {"priority-lookahead", "work-stealing"})
    EXPECT_EQ(run_engine(name, team, g, [](int, int) {}).dynamic_pops, 0u)
        << name;
}

TEST(RunEngine, UnknownNameWarnsOnceNamingEngineAndFallback) {
  // The fallback sits on per-factorization paths (every job of a batch
  // resolves its engine), so the warning must fire once per distinct
  // unknown name — naming both the typo and the fallback — and then go
  // quiet instead of spamming stderr for the rest of the batch.  The
  // warned-set is process-global, so probe names are freshly generated
  // per invocation (--gtest_repeat must not see already-warned names).
  static std::atomic<int> invocation{0};
  const std::string probe =
      "warn-once-probe-" + std::to_string(invocation.fetch_add(1));
  ThreadTeam team(1, false);
  const TaskGraph g = dynamic_tasks(1);
  const auto run = [&](const std::string& name) {
    ::testing::internal::CaptureStderr();
    const sched::EngineStats st = run_engine(name, team, g, [](int, int) {});
    EXPECT_EQ(st.dynamic_pops, 1u) << name;  // ran hybrid
    return ::testing::internal::GetCapturedStderr();
  };
  const std::string first = run(probe);
  EXPECT_NE(first.find(probe), std::string::npos) << first;
  EXPECT_NE(first.find("hybrid"), std::string::npos) << first;

  const std::string second = run(probe);
  EXPECT_TRUE(second.empty()) << "repeat warning: " << second;

  // A *different* unknown name still gets its own (single) warning.
  const std::string probe2 = probe + "-distinct";
  const std::string third = run(probe2);
  EXPECT_NE(third.find(probe2), std::string::npos) << third;
}

// Every engine must execute a diamond DAG in dependency order:
// 0 -> {1, 2} -> 3.
TEST(RunEngine, EveryEngineRunsDiamondInDependencyOrder) {
  for (const std::string& name : sched::engine_names()) {
    TaskGraph g;
    for (int i = 0; i < 4; ++i) {
      Task t;
      t.priority = static_cast<std::uint64_t>(i);
      t.owner = i == 1 ? 0 : kDynamicOwner;  // mix static and dynamic
      g.add_task(t);
    }
    g.add_edge(0, 1);
    g.add_edge(0, 2);
    g.add_edge(1, 3);
    g.add_edge(2, 3);
    g.finalize();
    ThreadTeam team(4, false);
    ExecLog log(4);
    auto st = run_engine(name, team, g, [&](int id, int) { log.mark(id); });
    EXPECT_EQ(log.counter.load(), 4) << name;
    EXPECT_EQ(st.static_pops + st.dynamic_pops + st.steals, 4u) << name;
    check_topological(g, log);
  }
}

// The priority-lookahead engine's defining behavior: panel-column tasks
// within the look-ahead window are promoted (counted in EngineStats) and
// generic/off-panel tasks are not.
TEST(PriorityLookahead, PromotesPanelColumnTasks) {
  TaskGraph g;
  const int nsteps = 6;
  // Per step: one panel task (P at (k,k)) followed by three trailing
  // updates (S) that depend on it; the next panel depends on ALL of the
  // previous step's updates, so when P(k+1) becomes ready the frontier
  // has deterministically advanced to k+1 and the promotion decision is
  // exact (no in-flight stragglers from earlier steps).
  std::vector<int> prev_s;
  int npanel = 0;
  for (int k = 0; k < nsteps; ++k) {
    Task tp;
    tp.kind = trace::Kind::P;
    tp.step = k;
    tp.i = k;
    tp.j = k;
    tp.priority = static_cast<std::uint64_t>(4 * k);
    const int pid = g.add_task(tp);
    ++npanel;
    for (int s : prev_s) g.add_edge(s, pid);
    prev_s.clear();
    for (int u = 0; u < 3; ++u) {
      Task ts;
      ts.kind = trace::Kind::S;
      ts.step = k;
      ts.i = k + 1 + u;
      ts.j = k + 1;
      ts.priority = static_cast<std::uint64_t>(4 * k + 1 + u);
      const int sid = g.add_task(ts);
      g.add_edge(pid, sid);
      prev_s.push_back(sid);
    }
  }
  g.finalize();
  ThreadTeam team(4, false);
  sched::RunHooks hooks;
  hooks.lookahead_depth = 2;
  ExecLog log(g.num_tasks());
  auto st = run_engine("priority-lookahead", team, g,
                       [&](int id, int) { log.mark(id); }, hooks);
  EXPECT_EQ(log.counter.load(), g.num_tasks());
  check_topological(g, log);
  // Every panel task sits inside the window when it becomes ready (the
  // frontier trails at most one step behind), so all of them promote; the
  // S tasks never do.
  EXPECT_EQ(st.promotions, static_cast<std::uint64_t>(npanel));
  EXPECT_EQ(st.static_pops + st.dynamic_pops + st.steals,
            static_cast<std::uint64_t>(g.num_tasks()));
}

TEST(PriorityLookahead, GenericTasksNeverPromote) {
  ThreadTeam team(4, false);
  TaskGraph g = random_dag(400, 0.01, 11, 4);  // step = -1 everywhere
  ExecLog log(g.num_tasks());
  auto st = run_engine("priority-lookahead", team, g,
                       [&](int id, int) { log.mark(id); });
  EXPECT_EQ(log.counter.load(), g.num_tasks());
  EXPECT_EQ(st.promotions, 0u);
  check_topological(g, log);
}

// -------------------------------------------- fused multi-DAG sessions ---

TEST(SessionFused, AppendedGraphRunsInDependencyOrder) {
  // Two diamonds fused into one graph still execute each job's edges in
  // order under a real executor.
  auto diamond = [] {
    TaskGraph g;
    for (int i = 0; i < 4; ++i) {
      Task t;
      t.priority = static_cast<std::uint64_t>(i);
      g.add_task(t);
    }
    g.add_edge(0, 1);
    g.add_edge(0, 2);
    g.add_edge(1, 3);
    g.add_edge(2, 3);
    return g;
  };
  TaskGraph g1 = diamond();
  TaskGraph g2 = diamond();
  TaskGraph fused;
  fused.append(g1, 2, 0);
  fused.append(g2, 2, 1);
  fused.finalize();
  ThreadTeam team(4, false);
  ExecLog log(fused.num_tasks());
  run_engine("hybrid", team, fused, [&](int id, int) { log.mark(id); });
  EXPECT_EQ(log.counter.load(), 8);
  check_topological(fused, log);
}

// Every engine executes a fused three-job submission: per-job tasks run
// exactly once in dependency order (on job-local ids), per-job counters
// account for every task, completion callbacks fire exactly once, and the
// whole fusion is one session run.
TEST(SessionFused, EveryEngineRunsAllJobsExactlyOnce) {
  for (const std::string& name : sched::engine_names()) {
    SCOPED_TRACE(name);
    const int p = 4;
    sched::Session session(sched::SessionOptions{p, false});
    const std::uint64_t runs0 = session.runs();

    std::vector<TaskGraph> graphs;
    graphs.push_back(random_dag(200, 0.02, 501, p));
    graphs.push_back(random_dag(120, 0.03, 502, p));
    graphs.push_back(random_dag(60, 0.05, 503, p));
    const int njobs = static_cast<int>(graphs.size());

    std::vector<std::unique_ptr<ExecLog>> logs;
    std::vector<std::atomic<int>> completions(njobs);
    std::vector<sched::FusedJob> jobs(njobs);
    for (int j = 0; j < njobs; ++j) {
      logs.push_back(std::make_unique<ExecLog>(graphs[j].num_tasks()));
      completions[j].store(0);
      jobs[j].graph = &graphs[j];
      ExecLog* log = logs.back().get();
      jobs[j].exec = [log](int id, int) { log->mark(id); };
      jobs[j].on_complete = [&completions, j](int job) {
        EXPECT_EQ(job, j);
        completions[j].fetch_add(1);
      };
    }

    sched::FusedRunResult fr = session.run_fused(jobs, {}, name);
    EXPECT_EQ(session.runs(), runs0 + 1);  // one engine run for all jobs
    EXPECT_EQ(fr.fused_tasks, 380);
    ASSERT_EQ(fr.jobs.size(), static_cast<std::size_t>(njobs));
    for (int j = 0; j < njobs; ++j) {
      SCOPED_TRACE("job " + std::to_string(j));
      const int tasks = graphs[j].num_tasks();
      EXPECT_EQ(logs[j]->counter.load(), tasks);
      check_topological(graphs[j], *logs[j]);
      EXPECT_EQ(fr.jobs[j].tasks, tasks);
      // Per-job attribution covers every task, whichever queue served it.
      EXPECT_EQ(fr.jobs[j].static_pops + fr.jobs[j].dynamic_pops,
                static_cast<std::uint64_t>(tasks));
      EXPECT_EQ(completions[j].load(), 1);
      EXPECT_GT(fr.jobs[j].completed_at, 0.0);
    }
    // completion_order is a permutation of the job indices.
    std::vector<int> sorted = fr.completion_order;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2}));
  }
}

TEST(SessionFused, ZeroTaskJobCompletesBeforeTheRun) {
  sched::Session session(sched::SessionOptions{2, false});
  TaskGraph empty;
  empty.finalize();
  TaskGraph work = random_dag(50, 0.05, 504, 2);
  std::atomic<int> empty_done{0};
  std::atomic<int> ran{0};
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<sched::FusedJob> jobs(2);
  jobs[0].graph = &empty;
  jobs[0].exec = [](int, int) { FAIL() << "empty job must not execute"; };
  jobs[0].on_complete = [&](int job) {
    EXPECT_EQ(job, 0);
    // The documented exception to the worker-thread contract: with no
    // last task to retire, the callback fires on the run_fused caller.
    EXPECT_EQ(std::this_thread::get_id(), caller);
    empty_done.fetch_add(1);
  };
  jobs[1].graph = &work;
  jobs[1].exec = [&](int, int) { ran.fetch_add(1); };

  sched::FusedRunResult fr = session.run_fused(jobs);
  EXPECT_EQ(empty_done.load(), 1);
  EXPECT_EQ(ran.load(), 50);
  EXPECT_EQ(fr.jobs[0].tasks, 0);
  EXPECT_EQ(fr.jobs[0].static_pops + fr.jobs[0].dynamic_pops, 0u);
  ASSERT_EQ(fr.completion_order.size(), 2u);
  EXPECT_EQ(fr.completion_order[0], 0);  // complete before the run starts
  EXPECT_EQ(fr.completion_order[1], 1);
  // completed_at is stamped from the same run clock as non-empty jobs: a
  // real (non-negative, ~0) instant, strictly before the working job's.
  EXPECT_GE(fr.jobs[0].completed_at, 0.0);
  EXPECT_GT(fr.jobs[1].completed_at, 0.0);
  EXPECT_LT(fr.jobs[0].completed_at, fr.jobs[1].completed_at);
}

TEST(SessionFused, CallerRetireHookChainsBeforeAccounting) {
  // A caller-supplied on_retire must still fire (once per fused task, with
  // fused ids) when run_fused layers its own accounting on top.
  sched::Session session(sched::SessionOptions{4, false});
  TaskGraph g1 = random_dag(80, 0.03, 505, 4);
  TaskGraph g2 = random_dag(40, 0.05, 506, 4);
  std::vector<sched::FusedJob> jobs(2);
  jobs[0].graph = &g1;
  jobs[0].exec = [](int, int) {};
  jobs[1].graph = &g2;
  jobs[1].exec = [](int, int) {};

  std::vector<std::atomic<int>> retired(120);
  for (auto& r : retired) r.store(0);
  sched::RunHooks hooks;
  hooks.on_retire = [&](int id, int, bool) {
    ASSERT_GE(id, 0);
    ASSERT_LT(id, 120);
    retired[id].fetch_add(1);
  };
  session.run_fused(jobs, hooks);
  for (int i = 0; i < 120; ++i)
    ASSERT_EQ(retired[i].load(), 1) << "fused task " << i;
}

TEST(EngineStats, MergeAccumulatesAndReportFormats) {
  sched::EngineStats a, b;
  a.static_pops = 5;
  a.dynamic_pops = 2;
  a.elapsed = 0.5;
  b.static_pops = 1;
  b.steals = 3;
  b.steal_attempts = 9;
  b.elapsed = 0.25;
  a.merge(b);
  EXPECT_EQ(a.static_pops, 6u);
  EXPECT_EQ(a.dynamic_pops, 2u);
  EXPECT_EQ(a.steals, 3u);
  EXPECT_EQ(a.steal_attempts, 9u);
  EXPECT_DOUBLE_EQ(a.elapsed, 0.5);  // max, not sum
  const std::string r = a.report();
  EXPECT_NE(r.find("static=6"), std::string::npos) << r;
  EXPECT_NE(r.find("dynamic=2"), std::string::npos) << r;
  EXPECT_NE(r.find("steals=3/9"), std::string::npos) << r;
}

TEST(Executor, HooksReceiveNoiseAndTrace) {
  ThreadTeam team(2, false);
  TaskGraph g;
  for (int i = 0; i < 20; ++i) g.add_task(Task{});
  g.finalize();
  trace::Recorder rec;
  noise::NoiseSpec spec;
  spec.prob = 1.0;
  spec.mean_us = 1.0;
  noise::Injector inj(spec, 2);
  sched::RunHooks hooks;
  hooks.recorder = &rec;
  hooks.injector = &inj;
  run_engine("hybrid", team, g, [](int, int) {}, hooks);
  EXPECT_GT(inj.delta_max(), 0.0);
  int events = 0;
  for (int t = 0; t < rec.threads(); ++t)
    events += static_cast<int>(rec.thread_events(t).size());
  EXPECT_EQ(events, 20);
}

}  // namespace
}  // namespace calu
