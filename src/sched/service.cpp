#include "src/sched/service.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/sched/parking.h"

namespace calu::sched {
namespace {

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

const char* submit_status_name(SubmitStatus s) {
  switch (s) {
    case SubmitStatus::Accepted: return "accepted";
    case SubmitStatus::Rejected: return "rejected";
    case SubmitStatus::ShuttingDown: return "shutting-down";
  }
  return "?";
}

Service::Service(const ServiceOptions& opt) : opt_(opt) {
  for (int c = 0; c < kClasses; ++c) {
    rings_[c] = std::make_unique<MpscQueue<std::unique_ptr<Pending>>>(
        opt_.queue_depth);
    queued_[c].store(0, std::memory_order_relaxed);
    accepted_[c].store(0, std::memory_order_relaxed);
    rejected_[c].store(0, std::memory_order_relaxed);
    completed_[c].store(0, std::memory_order_relaxed);
  }
  // The Session (and with it the ThreadTeam) is constructed inside the
  // dispatcher thread, which therefore becomes the team's thread 0: the
  // whole worker complement — pinning included — belongs to the service,
  // not to whichever client thread happened to build it.
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

Service::~Service() { stop(); }

ServiceCounters Service::counters(core::PriorityClass c) const {
  const int i = class_index(c);
  ServiceCounters out;
  out.accepted = accepted_[i].load(std::memory_order_relaxed);
  out.rejected = rejected_[i].load(std::memory_order_relaxed);
  out.completed = completed_[i].load(std::memory_order_relaxed);
  return out;
}

void Service::notify_dispatcher() {
  // Store half of the Dekker pair with the dispatcher's park sequence
  // (parked flag set, then signal re-checked): bump the eventcount, then
  // wake only if the dispatcher advertised itself parked.  A wake racing
  // ahead of the sleep is absorbed by the kernel's word re-check.
  signal_.fetch_add(1, std::memory_order_seq_cst);
  if (dispatcher_parked_.load(std::memory_order_seq_cst) != 0)
    detail::futex_wake(&signal_, 1);
}

Submission Service::submit(ServiceRequest req) {
  // A malformed request throws here, on the client, before the admission
  // window: nothing is counted or queued, and the dispatcher never sees
  // it.
  if (const char* why = core::input_defect(req.a, req.rhs, req.options))
    throw std::invalid_argument(std::string("Service::submit: ") + why);
  Submission out;
  submitters_.fetch_add(1, std::memory_order_seq_cst);
  // Everything below must reach the return through the matching
  // fetch_sub; the admission window is what lets the shutdown drain wait
  // out in-flight submitters instead of racing them.
  if (stopping_.load(std::memory_order_seq_cst)) {
    submitters_.fetch_sub(1, std::memory_order_seq_cst);
    out.status = SubmitStatus::ShuttingDown;
    return out;
  }

  const int cls = class_index(req.options.priority_class);
  // Exact admission bound on the per-class depth counter (the ring is
  // rounded up to a power of two and can never be the binding limit).
  for (;;) {
    const std::size_t depth =
        queued_[cls].fetch_add(1, std::memory_order_relaxed) + 1;
    if (depth <= opt_.queue_depth) break;
    queued_[cls].fetch_sub(1, std::memory_order_relaxed);
    if (!opt_.block_on_full) {
      rejected_[cls].fetch_add(1, std::memory_order_relaxed);
      submitters_.fetch_sub(1, std::memory_order_seq_cst);
      out.status = SubmitStatus::Rejected;
      return out;
    }
    if (stopping_.load(std::memory_order_seq_cst)) {
      submitters_.fetch_sub(1, std::memory_order_seq_cst);
      out.status = SubmitStatus::ShuttingDown;
      return out;
    }
    std::this_thread::yield();
  }

  auto pending = std::make_unique<Pending>();
  pending->req = std::move(req);
  pending->submitted = std::chrono::steady_clock::now();
  out.response = pending->promise.get_future();
  accepted_[cls].fetch_add(1, std::memory_order_relaxed);
  const bool pushed = rings_[cls]->try_push(std::move(pending));
  (void)pushed;  // cannot fail: depth counter admitted us under capacity
  notify_dispatcher();
  submitters_.fetch_sub(1, std::memory_order_seq_cst);
  out.status = SubmitStatus::Accepted;
  return out;
}

std::size_t Service::drain_ring(int cls, std::size_t room,
                                std::vector<std::unique_ptr<Pending>>& batch) {
  std::size_t taken = 0;
  std::unique_ptr<Pending> p;
  while (taken < room && rings_[cls]->try_pop(p)) {
    p->dequeued = std::chrono::steady_clock::now();
    queued_[cls].fetch_sub(1, std::memory_order_relaxed);
    batch.push_back(std::move(p));
    ++taken;
  }
  return taken;
}

void Service::run_batch(std::vector<std::unique_ptr<Pending>>& batch) {
  // Adapt the requests into the fused batch path.  The service engine is
  // forced onto every job (fused mode requires engine agreement); the
  // per-request priority_class rides through Options into the task
  // graphs, where Batch-class jobs lose urgent-queue promotion.
  std::vector<core::BatchJob> jobs(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    jobs[i].a = batch[i]->req.a;
    jobs[i].rhs = batch[i]->req.rhs;
    jobs[i].options = batch[i]->req.options;
    jobs[i].options.engine = opt_.engine;
  }
  core::BatchRunResult run =
      core::batched_run(jobs, *session_, core::BatchMode::Fused);
  fused_runs_.fetch_add(1, std::memory_order_relaxed);

  const auto now = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Pending& p = *batch[i];
    ServiceResponse resp;
    resp.result = std::move(run.jobs[i]);
    resp.priority_class = p.req.options.priority_class;
    resp.queue_seconds = seconds_between(p.submitted, p.dequeued);
    resp.latency_seconds = seconds_between(p.submitted, now);
    // Callback first (it sees the final response), then the future: a
    // future-waiter observing completion implies the callback already ran.
    if (p.req.on_complete) p.req.on_complete(resp);
    p.promise.set_value(std::move(resp));
    completed_[class_index(p.req.options.priority_class)].fetch_add(
        1, std::memory_order_relaxed);
  }
  batch.clear();
  {
    // Empty critical section: pairs the counter updates with drain()'s
    // predicate re-check so its condvar wait cannot miss the last batch.
    std::lock_guard lk(done_mu_);
  }
  done_cv_.notify_all();
}

void Service::dispatcher_loop() {
  session_ = std::make_unique<Session>(opt_.session);
  std::vector<std::unique_ptr<Pending>> batch;
  batch.reserve(std::size_t(opt_.max_batch));
  const std::size_t max_batch = std::size_t(std::max(1, opt_.max_batch));
  for (;;) {
    // Snapshot the eventcount BEFORE checking the rings: any push that
    // lands after the check bumps signal_ past the snapshot, so the park
    // below either refuses to sleep or is woken.
    const std::uint32_t s = signal_.load(std::memory_order_seq_cst);

    // Interactive first, every round; batch-class requests only fill
    // whatever room the interactive ring left in this fused run.
    std::size_t room = max_batch;
    room -= drain_ring(0, room, batch);
    drain_ring(1, room, batch);

    if (!batch.empty()) {
      run_batch(batch);
      continue;
    }

    if (stopping_.load(std::memory_order_seq_cst)) {
      // Wait out submitters still inside their admission window, then
      // make one final pass; after that the rings are provably empty
      // (late submitters observe stopping_ and refuse).
      while (submitters_.load(std::memory_order_seq_cst) != 0)
        std::this_thread::yield();
      drain_ring(0, max_batch, batch);
      drain_ring(1, max_batch - batch.size(), batch);
      if (!batch.empty()) {
        run_batch(batch);
        continue;
      }
      break;
    }

    // Idle: park on the eventcount (see notify_dispatcher for the pair).
    dispatcher_parked_.store(1, std::memory_order_seq_cst);
    if (signal_.load(std::memory_order_seq_cst) == s)
      detail::futex_wait(&signal_, s);
    dispatcher_parked_.store(0, std::memory_order_relaxed);
  }
  session_.reset();  // team torn down on the dispatcher thread
}

void Service::drain() {
  std::unique_lock lk(done_mu_);
  done_cv_.wait(lk, [&] {
    for (int c = 0; c < kClasses; ++c)
      if (completed_[c].load(std::memory_order_relaxed) !=
          accepted_[c].load(std::memory_order_relaxed))
        return false;
    return true;
  });
}

void Service::stop() {
  std::lock_guard lk(stop_mu_);
  if (!dispatcher_.joinable()) return;
  stopping_.store(true, std::memory_order_seq_cst);
  notify_dispatcher();
  dispatcher_.join();
}

}  // namespace calu::sched
