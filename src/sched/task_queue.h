// task_queue.h — ready-task queues used by the engine subsystem.
//
// The paper's static section keeps "a queue of ready tasks" per thread; the
// dynamic section keeps "a shared global queue of ready tasks" traversed in
// DFS (left-to-right) order.  Both are priority-ordered by a 64-bit key
// that encodes (tile column J, step K, task kind): popping the smallest key
// yields exactly the DFS order of Algorithm 2, and inside the static part
// it realizes look-ahead (panel-column tasks sort before trailing updates).
//
// PriorityTaskQueue is the per-thread static queue: a mutex-protected
// min-heap.  The mutex is almost never contended (the owner is the only
// pusher after startup and the only popper), so the lock is a handful of
// uncontended atomic ops.
//
// ShardedReadyQueue is the global dynamic queue: the single mutex the seed
// code took on every dynamic pop was the paper's "dequeue overhead" made
// literal, and it serializes at scale.  Sharding the heap S ways keeps DFS
// order *within* a shard exact and makes the global order approximate —
// which is all the dynamic section needs (priorities are a locality /
// look-ahead heuristic, not a correctness constraint), while cutting
// contention by S.  With one shard it degenerates to the seed's strict
// global DFS queue, which is also the configuration the single-threaded
// tests rely on.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <queue>
#include <vector>

namespace calu::sched {

/// Mutex-protected min-heap of (priority, task id).  An atomic element
/// counter lets idle threads poll emptiness without touching the mutex, so
/// spinning waiters don't serialize the workers actually making progress.
class PriorityTaskQueue {
 public:
  void push(std::uint64_t key, int task) {
    std::lock_guard lk(mu_);
    heap_.emplace(key, task);
    count_.fetch_add(1, std::memory_order_release);
  }

  /// Pops the lowest-key task into `task`; returns false when empty.
  bool try_pop(int& task) {
    if (count_.load(std::memory_order_acquire) == 0) return false;
    std::lock_guard lk(mu_);
    if (heap_.empty()) return false;
    task = heap_.top().second;
    heap_.pop();
    count_.fetch_sub(1, std::memory_order_release);
    return true;
  }

  bool empty() const { return count_.load(std::memory_order_acquire) == 0; }

  std::size_t size() const {
    return static_cast<std::size_t>(
        std::max<int>(0, count_.load(std::memory_order_acquire)));
  }

 private:
  using Entry = std::pair<std::uint64_t, int>;
  struct Greater {
    bool operator()(const Entry& a, const Entry& b) const { return a > b; }
  };
  mutable std::mutex mu_;
  std::atomic<int> count_{0};
  std::priority_queue<Entry, std::vector<Entry>, Greater> heap_;
};

/// Sharded MPMC priority queue for the global dynamic section.  Each shard
/// is cache-line padded so pushes/pops on different shards never share a
/// line.  Pushers spread by task id; poppers scan all shards starting
/// from a preferred one, so a thread drains "its" shard first and only
/// then poaches.
class ShardedReadyQueue {
 public:
  explicit ShardedReadyQueue(int nshards)
      : shards_(static_cast<std::size_t>(std::max(1, nshards))) {}

  int shards() const { return static_cast<int>(shards_.size()); }

  /// Spreads load across shards by hashing the task id — no shared
  /// counter, so concurrent pushers touch nothing but their target shard
  /// (dense task ids hash near-uniformly).  Per-shard DFS order stays
  /// exact.
  void push(std::uint64_t key, int task) {
    const std::uint32_t h = static_cast<std::uint32_t>(task) * 2654435761u;
    shards_[h % shards_.size()].q.push(key, task);
  }

  /// Pops from `preferred` first, then the other shards round-robin.
  bool try_pop(int& task, int preferred = 0) {
    const int n = shards();
    for (int i = 0; i < n; ++i)
      if (shards_[static_cast<std::size_t>((preferred + i) % n)].q.try_pop(
              task))
        return true;
    return false;
  }

  bool empty() const {
    for (const auto& s : shards_)
      if (!s.q.empty()) return false;
    return true;
  }

  std::size_t size() const {
    std::size_t n = 0;
    for (const auto& s : shards_) n += s.q.size();
    return n;
  }

 private:
  struct alignas(64) Shard {
    PriorityTaskQueue q;
  };
  std::vector<Shard> shards_;
};

}  // namespace calu::sched
