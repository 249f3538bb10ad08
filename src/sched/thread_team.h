// thread_team.h — persistent pinned thread pool.
//
// One team is created per factorization call (or reused across calls by
// sessions, benchmarks, and the async Service); workers park between
// parallel regions.  Threads are pinned to the cpus the process may
// actually run on (the sched_getaffinity mask), walked in topology pin
// order (physical cores first, then SMT siblings — see
// Topology::pin_order), matching the paper's fixed-thread-count
// experiments on the Xeon/Opteron machines while staying correct under
// cpusets/containers.
//
// Dispatch path (the rapid-start discipline, after the mask-based team
// wakeup of the composable-parallel-scheduler microbench's
// rapid_start.h): run() publishes the job with one atomic epoch bump and
// never takes a lock — there is no fork barrier.  Workers spin briefly
// on the epoch word when a region just ended (back-to-back runs dispatch
// in sub-microsecond time), then advertise themselves in a parked-worker
// bitmask and futex-sleep on the epoch word.  The waker reads the mask
// and issues the futex wake only when somebody is actually parked, so
// the steady-state dispatch is one atomic increment + one mask load.  An
// idle team burns no CPU (all workers futex-parked), yet a cold
// first-task dispatch costs only the futex wake — low single-digit
// microseconds, which is what lets the request-serving Service keep its
// latency floor without a spin-waiting worker pool.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

namespace calu::sched {

class ThreadTeam {
 public:
  /// Spawns `nthreads - 1` workers; the caller participates as thread 0.
  /// A pinned team pins the caller too, and gives it back its cpu mask
  /// when the team is destroyed on that thread.
  explicit ThreadTeam(int nthreads, bool pin = true);
  ~ThreadTeam();

  ThreadTeam(const ThreadTeam&) = delete;
  ThreadTeam& operator=(const ThreadTeam&) = delete;

  int size() const { return nthreads_; }

  /// Runs fn(tid) on every team member (tid in [0, size())) and waits for
  /// all of them.  Not reentrant.
  void run(const std::function<void(int)>& fn);

  /// Runs fn(i) for every i in [0, n) across the team and waits.  Indices
  /// are handed out one at a time from a shared counter, so uneven
  /// iterations balance; n <= 1 (or a one-thread team) runs inline on the
  /// caller without a dispatch.  Not reentrant, like run().
  void parallel_for(int n, const std::function<void(int)>& fn);

  /// The cpu id thread `tid` was successfully pinned to, or -1 when the
  /// team is unpinned or the affinity call failed for that thread.
  /// Written once during construction; safe to read concurrently after.
  int pinned_cpu(int tid) const { return pinned_cpus_[tid]; }

  /// How many of the team's threads have verified pinning.
  int pinned_count() const;

  /// Parallel regions dispatched so far: run() calls that woke the
  /// workers (the epoch bumps).  A one-thread team's run() and an inline
  /// parallel_for do not count.  A count, not a timing, so tests can
  /// assert how many regions a call takes on any host.
  std::uint32_t regions() const {
    return epoch_.load(std::memory_order_relaxed);
  }

  /// Hardware parallelism actually available to this process: the cpus
  /// system_topology() was probed over, i.e. the affinity mask when the
  /// process first asked (cpusets/containers restrict it below the
  /// machine's core count).  Default-sized teams and sessions use this,
  /// so a container limited to 4 cpus gets a 4-thread team instead of
  /// oversubscribing all of the host's cores onto them.  It does not read
  /// the caller's current mask, which a pinned team narrows.
  static int hardware_threads();

  /// Process-wide count of ThreadTeam constructions.  Lets the session /
  /// batching tests assert "threads were spawned once per session" by
  /// counting spawn events instead of timing them.
  static std::uint64_t teams_constructed();

  /// Process-wide count of worker threads ever spawned (excludes the
  /// calling thread, which participates as tid 0 without a spawn).
  static std::uint64_t workers_spawned();

 private:
  void worker_loop(int tid);
  void wake_workers();

  /// One futex-mask word covers 64 workers; teams wider than that get
  /// additional words.  Workers flip only their own bit; the waker only
  /// reads, so the mask stays contention-free on the dispatch fast path.
  static constexpr int kMaskBits = 64;

  int nthreads_;
  std::vector<int> pinned_cpus_;  // per tid; -1 = not pinned
  // The constructing thread (tid 0) and its cpu mask before pinning; the
  // destructor restores the mask when it runs on that thread.
  std::thread::id caller_;
  std::vector<int> caller_cpus_;
  std::vector<std::thread> workers_;

  // Dispatch state.  `epoch_` is the futex word workers sleep on: bumped
  // once per run() (and once at shutdown).  The job pointer is published
  // before the bump and read after an acquire load of it, which carries
  // the happens-before edge; `stop_` rides the same protocol.
  std::atomic<std::uint32_t> epoch_{0};
  std::atomic<bool> stop_{false};
  const std::function<void(int)>* job_ = nullptr;

  // Parked-worker bitmask (worker tid t owns bit (t-1) of word (t-1)/64):
  // set before futex-sleeping on epoch_, cleared on wake.  run() skips
  // the futex syscall entirely while every worker is still spinning.
  std::unique_ptr<std::atomic<std::uint64_t>[]> parked_;
  int mask_words_ = 0;

  // Join state: workers decrement remaining_; the last one bumps
  // done_seq_ to the run's epoch and wakes the (possibly futex-parked)
  // leader.
  std::atomic<std::uint32_t> remaining_{0};
  std::atomic<std::uint32_t> done_seq_{0};
};

}  // namespace calu::sched
