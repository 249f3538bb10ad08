// service_test.cpp — the async Service front-end lifecycle contract, plus
// the nearest-rank percentile helper the latency benches share.
//
// The torture tests run under the TSan stress label (CALU_STRESS_TESTS):
// submissions from many client threads, backpressure accounting under a
// deliberately stalled dispatcher, priority-class ordering under
// saturation, shutdown with requests in flight, and callback
// exactly-once.  The dispatcher-stall technique: on_complete callbacks
// run on the dispatcher thread, so a callback blocking on a flag freezes
// dispatch deterministically while client threads flood the rings.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/core/calu.h"
#include "src/layout/matrix.h"
#include "src/sched/mpsc_queue.h"
#include "src/sched/service.h"
#include "src/util/percentile.h"
#include "tests/test_util.h"

namespace calu {
namespace {

using core::Options;
using core::PriorityClass;
using layout::Matrix;
using sched::Service;
using sched::ServiceOptions;
using sched::ServiceRequest;
using sched::ServiceResponse;
using sched::Submission;
using sched::SubmitStatus;

// -------------------------------------------------- percentile helper ---

TEST(Percentile, NearestRankSmallSamples) {
  // p50 of two samples is the FIRST element (rank ceil(0.5·2) = 1); the
  // floor-indexing bug this replaces returned the max.
  EXPECT_EQ(util::percentile({1.0, 9.0}, 50.0), 1.0);
  EXPECT_EQ(util::percentile({7.0}, 50.0), 7.0);
  EXPECT_EQ(util::percentile({7.0}, 99.0), 7.0);
  EXPECT_EQ(util::percentile({1.0, 2.0, 3.0, 4.0}, 50.0), 2.0);
  EXPECT_EQ(util::percentile({1.0, 2.0, 3.0, 4.0}, 75.0), 3.0);
  EXPECT_EQ(util::percentile({1.0, 2.0, 3.0, 4.0}, 99.0), 4.0);
  EXPECT_EQ(util::percentile({1.0, 2.0, 3.0, 4.0}, 0.0), 1.0);
  EXPECT_EQ(util::percentile({1.0, 2.0, 3.0, 4.0}, 100.0), 4.0);
  EXPECT_EQ(util::percentile({}, 50.0), 0.0);
}

TEST(Percentile, NearestRankHundredSamples) {
  std::vector<double> v(100);
  for (int i = 0; i < 100; ++i) v[i] = double(i + 1);  // 1..100
  EXPECT_EQ(util::percentile(v, 50.0), 50.0);
  EXPECT_EQ(util::percentile(v, 95.0), 95.0);
  EXPECT_EQ(util::percentile(v, 99.0), 99.0);  // floor bug returned 100
  EXPECT_EQ(util::percentile(v, 100.0), 100.0);
}

// -------------------------------------------------------- mpsc queue ---

TEST(MpscQueue, FifoAndFullEmptyDetection) {
  sched::MpscQueue<int> q(3);  // rounds up to 4
  EXPECT_EQ(q.capacity(), 4u);
  int out = 0;
  EXPECT_FALSE(q.try_pop(out));
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.try_push(int(i)));
  EXPECT_FALSE(q.try_push(99));  // full
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.try_pop(out));
    EXPECT_EQ(out, i);  // single-consumer order is FIFO
  }
  EXPECT_FALSE(q.try_pop(out));
  EXPECT_TRUE(q.try_push(5));  // reusable after a full lap
  ASSERT_TRUE(q.try_pop(out));
  EXPECT_EQ(out, 5);
}

// ----------------------------------------------------------- service ---

Options request_options(PriorityClass cls = PriorityClass::Interactive) {
  Options o;
  o.b = 16;
  o.pin_threads = false;
  o.pr = 2;
  o.pc = 2;
  o.priority_class = cls;
  return o;
}

ServiceOptions small_service(std::size_t depth = 64, int max_batch = 8) {
  ServiceOptions o;
  o.session = sched::SessionOptions{4, false};
  o.queue_depth = depth;
  o.max_batch = max_batch;
  return o;
}

TEST(Service, SolvesAndFactorsMatchOneShot) {
  Matrix a = Matrix::random(64, 64, 9001);
  const Matrix b = Matrix::random(64, 1, 9002);
  Options opt = request_options();

  Service svc(small_service());
  Submission solve = svc.submit({&a, &b, opt, nullptr});
  ASSERT_EQ(solve.status, SubmitStatus::Accepted);
  ServiceResponse r = solve.response.get();
  EXPECT_LT(r.result.residual, 1e-13);
  EXPECT_EQ(test::max_abs_diff(a, Matrix::random(64, 64, 9001)), 0.0)
      << "gesv-shaped request must leave a untouched";
  EXPECT_GE(r.latency_seconds, r.queue_seconds);

  // Without rhs: getrf semantics, bit-identical to the one-shot driver
  // under the same (service-forced) engine.
  Matrix ref = Matrix::random(64, 64, 9001);
  Options ref_opt = opt;
  ref_opt.engine = svc.options().engine;
  ref_opt.threads = 4;
  const core::Factorization ref_f = core::getrf(ref, ref_opt);
  Submission factor = svc.submit({&a, nullptr, opt, nullptr});
  ASSERT_EQ(factor.status, SubmitStatus::Accepted);
  ServiceResponse rf = factor.response.get();
  EXPECT_EQ(rf.result.factorization.ipiv, ref_f.ipiv);
  EXPECT_EQ(test::max_abs_diff(a, ref), 0.0);
}

TEST(Service, SubmitFromManyThreads) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 6;
  std::vector<Matrix> as, bs;
  for (int i = 0; i < kThreads * kPerThread; ++i) {
    as.push_back(Matrix::random(48, 48, 7000 + std::uint64_t(i)));
    bs.push_back(Matrix::random(48, 1, 8000 + std::uint64_t(i)));
  }

  Service svc(small_service(/*depth=*/256, /*max_batch=*/8));
  std::vector<std::future<ServiceResponse>> futures(as.size());
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t)
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int id = t * kPerThread + i;
        const PriorityClass cls =
            (id % 3 == 0) ? PriorityClass::Batch : PriorityClass::Interactive;
        Submission s =
            svc.submit({&as[id], &bs[id], request_options(cls), nullptr});
        ASSERT_EQ(s.status, SubmitStatus::Accepted);
        futures[id] = std::move(s.response);
      }
    });
  for (auto& c : clients) c.join();

  for (std::size_t i = 0; i < futures.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    ServiceResponse r = futures[i].get();
    EXPECT_LT(r.result.residual, 1e-13);
  }
  svc.drain();
  const auto inter = svc.counters(PriorityClass::Interactive);
  const auto batch = svc.counters(PriorityClass::Batch);
  EXPECT_EQ(inter.accepted + batch.accepted, as.size());
  EXPECT_EQ(inter.completed, inter.accepted);
  EXPECT_EQ(batch.completed, batch.accepted);
  EXPECT_EQ(inter.rejected + batch.rejected, 0u);
  EXPECT_GE(svc.fused_runs(), 1u);
}

TEST(Service, BackpressureRejectionAccounting) {
  constexpr std::size_t kDepth = 4;
  constexpr int kOverflow = 3;
  Matrix a = Matrix::random(48, 48, 7100);
  const Matrix b = Matrix::random(48, 1, 7101);

  Service svc(small_service(kDepth, /*max_batch=*/1));
  // Stall the dispatcher: callbacks run on it, so blocking the first
  // request's callback freezes dispatch while we flood the ring.
  std::atomic<bool> stalled{false}, release{false};
  ServiceRequest r0{&a, &b, request_options(), nullptr};
  r0.on_complete = [&](const ServiceResponse&) {
    stalled.store(true);
    while (!release.load()) std::this_thread::yield();
  };
  Submission s0 = svc.submit(std::move(r0));
  ASSERT_EQ(s0.status, SubmitStatus::Accepted);
  while (!stalled.load()) std::this_thread::yield();

  // Queue empty (r0 was dequeued before stalling): exactly kDepth more
  // fit, everything past that must be Rejected — and accounted.
  std::vector<std::future<ServiceResponse>> accepted;
  int rejected = 0;
  for (std::size_t i = 0; i < kDepth + kOverflow; ++i) {
    Submission s = svc.submit({&a, &b, request_options(), nullptr});
    if (s.status == SubmitStatus::Accepted)
      accepted.push_back(std::move(s.response));
    else
      ++rejected;
  }
  EXPECT_EQ(accepted.size(), kDepth);
  EXPECT_EQ(rejected, kOverflow);

  release.store(true);
  for (auto& f : accepted) EXPECT_LT(f.get().result.residual, 1e-13);
  svc.drain();
  const auto c = svc.counters(PriorityClass::Interactive);
  EXPECT_EQ(c.accepted, kDepth + 1);
  EXPECT_EQ(c.rejected, std::uint64_t(kOverflow));
  EXPECT_EQ(c.completed, c.accepted);
}

TEST(Service, PriorityClassOrderingUnderSaturation) {
  constexpr int kPerClass = 4;
  Matrix a = Matrix::random(48, 48, 7200);
  const Matrix b = Matrix::random(48, 1, 7201);

  Service svc(small_service(/*depth=*/16, /*max_batch=*/1));
  std::atomic<bool> stalled{false}, release{false};
  ServiceRequest r0{&a, &b, request_options(PriorityClass::Batch), nullptr};
  r0.on_complete = [&](const ServiceResponse&) {
    stalled.store(true);
    while (!release.load()) std::this_thread::yield();
  };
  ASSERT_EQ(svc.submit(std::move(r0)).status, SubmitStatus::Accepted);
  while (!stalled.load()) std::this_thread::yield();

  // Saturate while stalled: batch-class requests enqueued FIRST, then
  // interactive.  Every interactive request must still complete before
  // any batch-class one (callbacks fire in dispatch order).
  std::mutex mu;
  std::vector<PriorityClass> order;
  auto record = [&](const ServiceResponse& r) {
    std::lock_guard lk(mu);
    order.push_back(r.priority_class);
  };
  std::vector<std::future<ServiceResponse>> futures;
  for (int i = 0; i < kPerClass; ++i)
    futures.push_back(
        svc.submit({&a, &b, request_options(PriorityClass::Batch), record})
            .response);
  for (int i = 0; i < kPerClass; ++i)
    futures.push_back(
        svc.submit(
               {&a, &b, request_options(PriorityClass::Interactive), record})
            .response);

  release.store(true);
  for (auto& f : futures) f.get();
  ASSERT_EQ(order.size(), std::size_t(2 * kPerClass));
  for (int i = 0; i < kPerClass; ++i) {
    EXPECT_EQ(order[i], PriorityClass::Interactive) << "position " << i;
    EXPECT_EQ(order[kPerClass + i], PriorityClass::Batch)
        << "position " << kPerClass + i;
  }
}

TEST(Service, ShutdownWithInflightRequests) {
  constexpr int kJobs = 12;
  std::vector<Matrix> as, bs;
  for (int i = 0; i < kJobs; ++i) {
    as.push_back(Matrix::random(48, 48, 7300 + std::uint64_t(i)));
    bs.push_back(Matrix::random(48, 1, 7400 + std::uint64_t(i)));
  }
  Service svc(small_service(/*depth=*/64, /*max_batch=*/4));
  std::vector<std::future<ServiceResponse>> futures;
  for (int i = 0; i < kJobs; ++i)
    futures.push_back(
        svc.submit({&as[i], &bs[i], request_options(), nullptr}).response);

  // Stop with everything still in flight: graceful drain-then-stop means
  // every accepted request is fulfilled, never abandoned.
  svc.stop();
  for (auto& f : futures) EXPECT_LT(f.get().result.residual, 1e-13);
  const auto c = svc.counters(PriorityClass::Interactive);
  EXPECT_EQ(c.completed, c.accepted);

  Submission late = svc.submit({&as[0], &bs[0], request_options(), nullptr});
  EXPECT_EQ(late.status, SubmitStatus::ShuttingDown);
}

TEST(Service, CallbackExactlyOnce) {
  constexpr int kJobs = 16;
  std::vector<Matrix> as, bs;
  for (int i = 0; i < kJobs; ++i) {
    as.push_back(Matrix::random(48, 48, 7500 + std::uint64_t(i)));
    bs.push_back(Matrix::random(48, 1, 7600 + std::uint64_t(i)));
  }
  std::vector<std::atomic<int>> fired(kJobs);
  for (auto& f : fired) f.store(0);

  Service svc(small_service(/*depth=*/32, /*max_batch=*/4));
  std::vector<std::future<ServiceResponse>> futures;
  for (int i = 0; i < kJobs; ++i) {
    const PriorityClass cls =
        (i % 2 == 0) ? PriorityClass::Interactive : PriorityClass::Batch;
    futures.push_back(svc.submit({&as[i], &bs[i], request_options(cls),
                                  [&fired, i](const ServiceResponse& r) {
                                    EXPECT_LT(r.result.residual, 1e-13);
                                    fired[i].fetch_add(1);
                                  }})
                          .response);
  }
  svc.drain();
  // drain() returning means every callback already ran (callbacks fire
  // before futures are fulfilled, and completion counters after both).
  for (int i = 0; i < kJobs; ++i) EXPECT_EQ(fired[i].load(), 1) << i;
  for (auto& f : futures) f.get();
  svc.stop();
  for (int i = 0; i < kJobs; ++i) EXPECT_EQ(fired[i].load(), 1) << i;
}

TEST(Service, MalformedRequestThrowsOnTheClientAndTheServiceLivesOn) {
  // A tile size of 0 or a null matrix used to reach the dispatcher and end
  // the process from there, and a NaN dratio aborts a tiled plan's build
  // there in a debug build.  submit() now rejects all three on the
  // client, before admission: nothing is counted, no future exists, and
  // the callback never fires.  A valid request submitted next completes.
  Matrix a = Matrix::random(48, 48, 7700);
  const Matrix b = Matrix::random(48, 1, 7701);
  std::atomic<int> fired{0};
  auto count = [&fired](const ServiceResponse&) { fired.fetch_add(1); };
  Options zero_b = request_options();
  zero_b.b = 0;
  Options nan_dratio = request_options();
  nan_dratio.dratio = std::numeric_limits<double>::quiet_NaN();

  Service svc(small_service());
  const ServiceRequest bad[] = {{&a, &b, zero_b, count},
                                {nullptr, &b, request_options(), count},
                                {&a, &b, nan_dratio, count}};
  for (const ServiceRequest& req : bad)
    EXPECT_THROW(svc.submit(req), std::invalid_argument);
  for (PriorityClass cls : {PriorityClass::Interactive, PriorityClass::Batch}) {
    const sched::ServiceCounters c = svc.counters(cls);
    EXPECT_EQ(c.accepted, 0u);
    EXPECT_EQ(c.rejected, 0u);
    EXPECT_EQ(c.completed, 0u);
  }

  Submission good = svc.submit({&a, &b, request_options(), count});
  ASSERT_EQ(good.status, SubmitStatus::Accepted);
  EXPECT_LT(good.response.get().result.residual, 1e-13);
  svc.drain();
  EXPECT_EQ(fired.load(), 1);
  EXPECT_EQ(svc.counters(PriorityClass::Interactive).completed, 1u);
}

}  // namespace
}  // namespace calu
