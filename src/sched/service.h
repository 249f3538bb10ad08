// service.h — async solver front-end: many client threads submit
// factorize(+solve) requests, one dispatcher thread drains them into
// fused engine runs on a persistent Session.
//
// This is ROADMAP item 2, the layer between core::batched_run and a
// server.  The paper amortizes scheduling cost across one factorization;
// a Session amortizes the thread spawn across many; the Service
// amortizes *dispatch* across a live request stream: requests arriving
// close together are fused into one engine run (Session::run_fused via
// core::batched_run), so engines steal across concurrent requests
// exactly as the fused batch path does — except the batch is formed by
// arrival timing instead of by the caller.
//
// Data flow:
//
//   client threads ──try_push──▶ [interactive ring]──┐
//                  ──try_push──▶ [batch ring]────────┤  MpscQueue each
//                                                    ▼
//                        dispatcher thread: drain ≤ max_batch requests
//                        (interactive first) → core::batched_run(Fused)
//                        → fulfil futures + fire callbacks
//
// Two priority classes (Options::priority_class): Interactive requests
// are dequeued first each round AND keep urgent-queue promotion of their
// panel-column tasks inside the fused run under the priority-lookahead
// engine; Batch requests run with promotion cleared, so they never crowd
// the critical-path fast lane.  Admission is bounded per class
// (queue_depth); when a ring is full, submit() either returns Rejected
// or blocks until space, per ServiceOptions::block_on_full.
//
// An idle Service burns no CPU: the dispatcher futex-parks on its
// submission eventcount and the team's workers futex-park in
// ThreadTeam::run's epoch protocol (see thread_team.h); a submission
// into the idle service costs one atomic increment plus at most one
// futex wake, keeping cold-dispatch latency in the low microseconds.
// bench/service_throughput.cpp measures both (BENCH_service.json).
//
// Thread-safety: submit() / counters are safe from any thread;
// stop() / drain() from any thread; the Service owns its Session, which
// lives on the dispatcher thread (the dispatcher is the team's thread 0,
// so team pinning lands on service threads, not on whichever client
// thread constructed the Service).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/core/batch.h"
#include "src/sched/mpsc_queue.h"
#include "src/sched/session.h"

namespace calu::sched {

struct ServiceOptions {
  SessionOptions session;  ///< team size / pinning for the owned Session
  /// Engine executing the fused runs.  Forced onto every request's
  /// Options (fused mode requires engine agreement); the default is the
  /// one engine whose urgent queue implements the Interactive class.
  std::string engine = "priority-lookahead";
  std::size_t queue_depth = 1024;  ///< admission bound, per priority class
  int max_batch = 32;              ///< max requests fused into one run
  /// Full-queue policy: false = submit returns Rejected (load shedding),
  /// true = submit blocks until space or shutdown.
  bool block_on_full = false;
};

/// Outcome of one request, delivered through the future and the optional
/// on_complete callback (both get the same object).
struct ServiceResponse {
  /// Factorization/solve outcome, same vocabulary as the batch layer
  /// (x / refine_steps / residual / used_fallback for rhs requests).
  core::BatchJobResult result;
  core::PriorityClass priority_class = core::PriorityClass::Interactive;
  double queue_seconds = 0.0;    ///< submit → dispatcher dequeue
  double latency_seconds = 0.0;  ///< submit → response ready
};

/// One request: core::BatchJob-shaped, plus a completion callback that
/// receives the full response (fired on the dispatcher thread, exactly
/// once, after the solve epilogue — unlike BatchJob::on_complete, which
/// is a mid-run scheduling signal).  `a` (and `rhs`) must stay alive —
/// and untouched — until the response arrives; without rhs, *a is
/// factored in place (getrf semantics), with rhs it is left untouched
/// (gesv semantics).
struct ServiceRequest {
  layout::Matrix* a = nullptr;
  const layout::Matrix* rhs = nullptr;
  core::Options options;  ///< priority_class selects the submission ring
  std::function<void(const ServiceResponse&)> on_complete;
};

enum class SubmitStatus : std::uint8_t {
  Accepted,      ///< queued; the future will be fulfilled
  Rejected,      ///< class queue full under the Reject policy
  ShuttingDown,  ///< stop() already called
};

const char* submit_status_name(SubmitStatus s);

/// submit()'s return: the future is valid only when status == Accepted.
struct Submission {
  SubmitStatus status = SubmitStatus::Rejected;
  std::future<ServiceResponse> response;
};

/// Per-class admission/completion counters (monotonic, racy-read safe).
struct ServiceCounters {
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
};

class Service {
 public:
  explicit Service(const ServiceOptions& opt = {});
  /// Drains accepted requests, then stops the dispatcher (stop()).
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Enqueues a request (thread-safe, lock-free on the accepted path).
  /// On Accepted the returned future delivers the ServiceResponse; the
  /// request's on_complete (if any) fires first, on the dispatcher
  /// thread.  Rejected/ShuttingDown requests fire neither.  A malformed
  /// request (core::input_defect: null `a`, non-square solve, rhs row
  /// mismatch, options.b < 1) throws std::invalid_argument here, before
  /// admission: no counter moves, no future exists, no callback fires.
  Submission submit(ServiceRequest req);

  /// Blocks until every request accepted so far has completed.
  void drain();

  /// Graceful shutdown: new submissions are refused with ShuttingDown,
  /// everything already accepted still runs to completion, then the
  /// dispatcher (and its Session/team) exits.  Idempotent, thread-safe.
  void stop();

  ServiceCounters counters(core::PriorityClass c) const;
  std::uint64_t fused_runs() const {
    return fused_runs_.load(std::memory_order_relaxed);
  }
  const ServiceOptions& options() const { return opt_; }

 private:
  /// A request in flight between submit() and its fused run.
  struct Pending {
    ServiceRequest req;
    std::promise<ServiceResponse> promise;
    std::chrono::steady_clock::time_point submitted;
    std::chrono::steady_clock::time_point dequeued;
  };

  static constexpr int kClasses = 2;
  static int class_index(core::PriorityClass c) {
    return c == core::PriorityClass::Interactive ? 0 : 1;
  }

  void dispatcher_loop();
  void run_batch(std::vector<std::unique_ptr<Pending>>& batch);
  std::size_t drain_ring(int cls, std::size_t room,
                         std::vector<std::unique_ptr<Pending>>& batch);
  void notify_dispatcher();

  ServiceOptions opt_;
  std::unique_ptr<MpscQueue<std::unique_ptr<Pending>>> rings_[kClasses];
  /// Exact queued-count per class: the admission bound lives here, not in
  /// the (power-of-two rounded) ring, so queue_depth is honored exactly
  /// and an admitted push can never find the ring full.
  std::atomic<std::size_t> queued_[kClasses];
  std::atomic<std::uint64_t> accepted_[kClasses];
  std::atomic<std::uint64_t> rejected_[kClasses];
  std::atomic<std::uint64_t> completed_[kClasses];
  std::atomic<std::uint64_t> fused_runs_{0};

  /// Submission eventcount: producers bump `signal_` (the futex word)
  /// after every push; the dispatcher snapshots it, re-checks the rings,
  /// advertises itself in `dispatcher_parked_`, and futex-sleeps only if
  /// the snapshot is still current — same seq_cst Dekker + kernel
  /// re-check discipline as the ThreadTeam worker mask (parking.h).
  std::atomic<std::uint32_t> signal_{0};
  std::atomic<std::uint32_t> dispatcher_parked_{0};

  std::atomic<bool> stopping_{false};
  /// Submitters inside the admission window; the dispatcher's final
  /// shutdown drain waits for this to reach zero so a submit racing
  /// stop() can never strand an accepted request.
  std::atomic<int> submitters_{0};

  std::mutex done_mu_;  // drain() wakeups (predicate is the counters)
  std::condition_variable done_cv_;
  std::mutex stop_mu_;  // serializes stop() callers around the join

  /// Owned by the dispatcher thread exclusively (created and destroyed
  /// inside dispatcher_loop); no other thread may touch it.
  std::unique_ptr<Session> session_;
  std::thread dispatcher_;
};

}  // namespace calu::sched
