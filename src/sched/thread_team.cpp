#include "src/sched/thread_team.h"

#include <cassert>
#include <climits>

#include "src/sched/parking.h"
#include "src/sched/topology.h"

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace calu::sched {
namespace {

std::atomic<std::uint64_t> g_teams_constructed{0};
std::atomic<std::uint64_t> g_workers_spawned{0};

/// How long a worker (or the joining leader) spins on the epoch word
/// before advertising itself as parked and futex-sleeping.  Sized so a
/// back-to-back fused-run stream never pays a syscall, while an idle
/// service parks everyone within ~10 µs of the last task retiring.
constexpr int kSpinIters = 4096;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

/// Restricts `handle` to `cpus`; returns whether the kernel accepted
/// it.  The team picks its cpus from the affinity mask (via
/// Topology::pin_order), which keeps pinning correct under restricted
/// cpusets such as a container mask of {5,7}.
bool set_cpus(std::thread::native_handle_type handle,
              const std::vector<int>& cpus) {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  return pthread_setaffinity_np(handle, sizeof(set), &set) == 0;
#else
  (void)handle;
  (void)cpus;
  return false;
#endif
}

}  // namespace

int ThreadTeam::hardware_threads() {
  // Under cpusets/containers the process may run on far fewer cpus than
  // the machine has; sizing the team from hardware_concurrency() would
  // stack every worker onto the handful of allowed cpus.  The calling
  // thread's own mask is no measure: a pinned team, or a caller that
  // pinned itself, leaves it one cpu wide.
  return system_topology().num_cpus();
}

std::uint64_t ThreadTeam::teams_constructed() {
  return g_teams_constructed.load(std::memory_order_relaxed);
}

std::uint64_t ThreadTeam::workers_spawned() {
  return g_workers_spawned.load(std::memory_order_relaxed);
}

int ThreadTeam::pinned_count() const {
  int n = 0;
  for (int cpu : pinned_cpus_)
    if (cpu >= 0) ++n;
  return n;
}

ThreadTeam::ThreadTeam(int nthreads, bool pin)
    : nthreads_(nthreads), pinned_cpus_(nthreads, -1) {
  assert(nthreads >= 1);
  g_teams_constructed.fetch_add(1, std::memory_order_relaxed);
  g_workers_spawned.fetch_add(static_cast<std::uint64_t>(nthreads_ - 1),
                              std::memory_order_relaxed);
  mask_words_ = (nthreads_ - 1 + kMaskBits - 1) / kMaskBits;
  if (mask_words_ > 0) {
    parked_ =
        std::make_unique<std::atomic<std::uint64_t>[]>(std::size_t(mask_words_));
    for (int w = 0; w < mask_words_; ++w)
      parked_[w].store(0, std::memory_order_relaxed);
  }
  workers_.reserve(nthreads_ - 1);
  for (int t = 1; t < nthreads_; ++t)
    workers_.emplace_back([this, t] { worker_loop(t); });
#ifdef __linux__
  if (pin) {
    // Topology pin order over the allowed cpus: one thread per physical
    // core first, SMT siblings only once the cores are exhausted, wrap
    // when oversubscribed.  All pinning happens here on the constructing
    // thread (workers via native_handle), so pinned_cpus_ is complete —
    // and data-race-free for readers — the moment the constructor
    // returns.
    const std::vector<int> order = system_topology().pin_order();
    if (!order.empty()) {
      const int m = static_cast<int>(order.size());
      caller_ = std::this_thread::get_id();
      caller_cpus_ = affinity_cpus();  // this thread's mask
      for (int t = 0; t < nthreads_; ++t) {
        const int cpu = order[t % m];
        const auto handle =
            t == 0 ? pthread_self() : workers_[t - 1].native_handle();
        if (set_cpus(handle, {cpu})) pinned_cpus_[t] = cpu;
      }
    }
  }
#else
  (void)pin;
#endif
}

ThreadTeam::~ThreadTeam() {
  if (!workers_.empty()) {
    stop_.store(true, std::memory_order_release);
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    detail::futex_wake(&epoch_, INT_MAX);
    for (auto& w : workers_) w.join();
  }
#ifdef __linux__
  // Thread 0 is the constructing thread: give it back its own mask, or
  // it (and every thread it spawns later) stays on one cpu.
  if (!caller_cpus_.empty() && std::this_thread::get_id() == caller_)
    set_cpus(pthread_self(), caller_cpus_);
#endif
}

void ThreadTeam::wake_workers() {
  // The rapid-start gate: the epoch bump is already published, so a
  // spinning worker needs nothing from us.  Only pay the futex syscall
  // when the parked mask says somebody actually went to sleep.  Both the
  // workers' mask set + epoch re-check and our epoch bump + mask read are
  // seq_cst, so at least one side always sees the other: either the
  // worker observes the new epoch and never sleeps, or we observe its
  // mask bit and wake it (a wake racing ahead of the sleep is absorbed by
  // the kernel's *word != expected re-check).
  for (int w = 0; w < mask_words_; ++w) {
    if (parked_[w].load(std::memory_order_seq_cst) != 0) {
      detail::futex_wake(&epoch_, INT_MAX);
      return;
    }
  }
}

void ThreadTeam::worker_loop(int tid) {
  const int word = (tid - 1) / kMaskBits;
  const std::uint64_t bit = std::uint64_t(1) << ((tid - 1) % kMaskBits);
  std::uint32_t seen = 0;
  for (;;) {
    std::uint32_t e = epoch_.load(std::memory_order_acquire);
    if (e == seen) {
      for (int s = 0; s < kSpinIters && e == seen; ++s) {
        cpu_relax();
        e = epoch_.load(std::memory_order_acquire);
      }
      if (e == seen) {
        parked_[word].fetch_or(bit, std::memory_order_seq_cst);
        e = epoch_.load(std::memory_order_seq_cst);
        while (e == seen) {
          detail::futex_wait(&epoch_, seen);
          e = epoch_.load(std::memory_order_acquire);
        }
        parked_[word].fetch_and(~bit, std::memory_order_relaxed);
      }
    }
    // The leader joins every run before bumping the epoch again, so a
    // worker can never observe the epoch advance by more than one — each
    // dispatch is processed exactly once.
    seen = e;
    if (stop_.load(std::memory_order_acquire)) return;
    (*job_)(tid);
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      done_seq_.store(seen, std::memory_order_release);
      detail::futex_wake(&done_seq_, 1);
    }
  }
}

void ThreadTeam::run(const std::function<void(int)>& fn) {
  if (nthreads_ == 1) {
    fn(0);
    return;
  }
  job_ = &fn;
  remaining_.store(std::uint32_t(nthreads_ - 1), std::memory_order_relaxed);
  // The seq_cst bump publishes job_/remaining_ to every worker that
  // acquire-loads the new epoch; it is also the store half of the Dekker
  // pair with the workers' parked-mask sets (see wake_workers).
  const std::uint32_t e = epoch_.fetch_add(1, std::memory_order_seq_cst) + 1;
  wake_workers();
  fn(0);
  // Join: the last worker release-stores the run's epoch into done_seq_,
  // which is itself the futex word — no mask needed here, the predicate
  // and the sleep word coincide so the kernel re-check closes the race.
  std::uint32_t d = done_seq_.load(std::memory_order_acquire);
  for (int s = 0; d != e && s < kSpinIters; ++s) {
    cpu_relax();
    d = done_seq_.load(std::memory_order_acquire);
  }
  while (d != e) {
    detail::futex_wait(&done_seq_, d);
    d = done_seq_.load(std::memory_order_acquire);
  }
  job_ = nullptr;
}

void ThreadTeam::parallel_for(int n, const std::function<void(int)>& fn) {
  if (n <= 1 || nthreads_ == 1) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  // One shared counter hands out indices as threads free up, so
  // iterations of unequal cost (deferred swaps per tile column, jobs of
  // mixed size) balance themselves.
  std::atomic<int> next{0};
  run([&](int) {
    for (int i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed))
      fn(i);
  });
}

}  // namespace calu::sched
