// calu_bench.cpp — the seeded end-to-end benchmark of the solver stack,
// with a per-layer breakdown.  One process runs one workload:
//
//   calu_bench --workload W --seed S [--seconds T] [--trace 0|1]
//              [--out DIR] [--rev GIT_REV]
//
//   large_solve  core::gesv, n=1536 b=96, hybrid dratio 0.1, closed loop
//   small_batch  core::batched_run(Fused), 64 jobs of n=64 b=32, closed loop
//   service_mix  sched::Service: open-loop Poisson at 500 req/s, then
//                closed loop with 32 requests outstanding
//   mixed_solve  core::gesv_mixed, n=1024 b=64, closed loop
//
// README.md says why each workload exists and what every metric means.
//
// --trace 0 calls the public entry points as a user would and reports the
// end-to-end metrics.  --trace 1 rebuilds the same call sequence stage by
// stage from the public functions those entry points are made of
// (with_tune_key, PackedMatrix::pack, GetrfJob, Session::run / run_fused,
// GetrfJob::finish, unpack, solve_factored / refine_mixed), times every
// stage and every task body, and reports the per-layer metrics; the spans
// are written to trace_<workload>.json when the run ends.
//
// Every solution is checked against a backward error of 100·n·ε computed
// here, not by the library.  The last line of standard output is one JSON
// object {correct, attempted, failed, metrics}; a result file with a
// provenance stamp goes to --out.  The exit status is non-zero when any
// request failed.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <exception>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/batch.h"
#include "src/core/calu.h"
#include "src/core/solve.h"
#include "src/model/lu_cost.h"
#include "src/sched/service.h"
#include "src/sched/session.h"
#include "src/sched/topology.h"
#include "src/util/percentile.h"

namespace {

using namespace calu;
using Clock = std::chrono::steady_clock;

// Two team threads, because on a 4-CPU host they repeat: fused n=64
// batches ran 8.5k-8.8k jobs/s across identical runs at 2 threads but
// 7.7k-11.1k at 4.  service_mix adds one client thread, so at most three
// threads ever compete for the four CPUs.
constexpr int kTeam = 2;
constexpr int kWarmups = 3;  // requests each set-up sends before it ends
// Requests whose task bodies are also written as spans (a timeline
// sample); later requests only accumulate per-thread task time.
constexpr std::size_t kTimelineRequests = 2;

const Clock::time_point kEpoch = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}

double ms_of(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

double elapsed_s(std::int64_t t0) { return (now_ns() - t0) * 1e-9; }

double pct(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  return util::percentile(v, p);
}

double median(std::vector<double> v) { return pct(std::move(v), 50.0); }

// ---------------------------------------------------------------- inputs --

/// The one input generator every workload draws from (splitmix64): the
/// same --seed gives the same matrices, right-hand sides, arrival times
/// and request mix.
class Gen {
 public:
  explicit Gen(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double uniform() {  // [0, 1)
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  double exponential(double rate) { return -std::log1p(-uniform()) / rate; }
  layout::Matrix matrix(int m, int n) {
    layout::Matrix a(m, n);
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < m; ++i) a(i, j) = 2.0 * uniform() - 1.0;
    return a;
  }

 private:
  std::uint64_t state_;
};

/// A x = b with one right-hand side.  `a` is non-const only because the
/// request types take a mutable pointer; with an rhs the library leaves
/// it untouched.
struct System {
  layout::Matrix a, b;
};

std::vector<System> make_systems(Gen& gen, int count, int n) {
  std::vector<System> out;
  for (int i = 0; i < count; ++i) {
    layout::Matrix a = gen.matrix(n, n);
    out.push_back({std::move(a), gen.matrix(n, 1)});
  }
  return out;
}

// ----------------------------------------------------------- correctness --

/// ||A x - b||_inf / (||A||_inf ||x||_inf + ||b||_inf), the normalized
/// backward error, computed here so a broken library residual cannot pass
/// its own check.  NaN for a non-finite or misshapen x.
double backward_error(const System& s, const layout::Matrix& x) {
  const int n = s.a.rows();
  if (x.rows() != n || x.cols() != 1)
    return std::numeric_limits<double>::quiet_NaN();
  std::vector<double> r(static_cast<std::size_t>(n)), row(r.size(), 0.0);
  for (int i = 0; i < n; ++i) r[i] = -s.b(i, 0);
  double xmax = 0.0, bmax = 0.0;
  for (int j = 0; j < n; ++j) {
    const double xj = x(j, 0);
    if (!std::isfinite(xj)) return std::numeric_limits<double>::quiet_NaN();
    xmax = std::max(xmax, std::fabs(xj));
    bmax = std::max(bmax, std::fabs(s.b(j, 0)));
    for (int i = 0; i < n; ++i) {
      r[i] += s.a(i, j) * xj;
      row[i] += std::fabs(s.a(i, j));
    }
  }
  double rmax = 0.0, amax = 0.0;
  for (int i = 0; i < n; ++i) {
    rmax = std::max(rmax, std::fabs(r[i]));
    amax = std::max(amax, row[i]);
  }
  const double denom = amax * xmax + bmax;
  return denom > 0.0 ? rmax / denom : rmax;
}

/// Correctness accounting.  Every solve is one attempt; it fails when its
/// backward error exceeds 100·n·ε (NaN included), or when the request
/// was rejected or threw.
struct Tally {
  std::uint64_t attempted = 0, failed = 0;
  double residual_max = 0.0;

  void check(const System& s, const layout::Matrix& x) {
    ++attempted;
    const double r = backward_error(s, x);
    const double bound =
        100.0 * s.a.rows() * std::numeric_limits<double>::epsilon();
    if (!(r <= bound)) ++failed;
    const double worst = std::numeric_limits<double>::max();
    residual_max = std::max(residual_max, std::isfinite(r) ? r : worst);
  }
  void fail() {
    ++attempted;
    ++failed;
  }
};

// ----------------------------------------------------------------- trace --

/// One traced interval.  `parent` indexes the caller-thread span list (-1
/// for a request root); `req` is the request id; `tid` is the team thread
/// that recorded it (stage spans: 0, the caller).
struct Span {
  const char* name = "";
  std::int64_t start = 0, end = 0;
  int parent = -1;
  std::int64_t req = -1;
  int tid = 0;
};

/// Task accounting of one team thread, padded so task bodies on different
/// threads never write a shared cache line.  Reset before every run.
struct alignas(64) TaskSlot {
  std::int64_t kind_ns[trace::kKindCount] = {};
  std::int64_t busy_ns = 0;
  std::int64_t last_end = 0;
  std::vector<Span> spans;  // task spans of the timeline-sampled requests
};

/// The traced run's instrumentation, all in memory until write(): stage
/// spans from the caller thread, task timings in per-thread slots.
class Tracer {
 public:
  explicit Tracer(int threads) : slots_(static_cast<std::size_t>(threads)) {}

  int add(const Span& s) {
    spans_.push_back(s);
    return static_cast<int>(spans_.size()) - 1;
  }
  int open(const char* name, int parent, std::int64_t req) {
    return add({name, now_ns(), 0, parent, req, 0});
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end = now_ns(); }
  const Span& span(int id) const {
    return spans_[static_cast<std::size_t>(id)];
  }

  /// Arms the task slots for one engine run under span `run`.  Called on
  /// the caller thread before the run; the team's dispatch orders it
  /// before every task body.
  void begin_run(int run, std::int64_t req, bool timeline) {
    for (TaskSlot& s : slots_) {
      std::fill(std::begin(s.kind_ns), std::end(s.kind_ns), 0);
      s.busy_ns = 0;
      s.last_end = 0;
    }
    run_span_ = run;
    req_ = req;
    timeline_ = timeline;
  }

  /// Runs one task body on team thread `tid` and books its time.
  template <class Body>
  void task(int tid, trace::Kind kind, const Body& body) {
    const std::int64_t t0 = now_ns();
    body();
    const std::int64_t t1 = now_ns();
    TaskSlot& s = slots_[static_cast<std::size_t>(tid)];
    s.kind_ns[static_cast<int>(kind)] += t1 - t0;
    s.busy_ns += t1 - t0;
    s.last_end = t1;
    if (timeline_)
      s.spans.push_back({trace::kind_name(kind), t0, t1, run_span_, req_, tid});
  }

  const std::vector<TaskSlot>& slots() const { return slots_; }

  /// Chrome trace-event JSON (chrome://tracing, Perfetto): one complete
  /// event per span, with its id, parent and request in args.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    int id = 0;
    auto emit = [&](const Span& s) {
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 0, "
                   "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %d, \"parent\": %d, \"req\": %lld}}",
                   id == 0 ? "" : ",\n", s.name, s.tid, s.start * 1e-3,
                   (s.end - s.start) * 1e-3, id, s.parent,
                   static_cast<long long>(s.req));
      ++id;
    };
    for (const Span& s : spans_) emit(s);
    for (const TaskSlot& slot : slots_)
      for (const Span& s : slot.spans) emit(s);
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<TaskSlot> slots_;
  int run_span_ = -1;
  std::int64_t req_ = -1;
  bool timeline_ = false;
};

/// One traced request's breakdown, ms unless noted.  A request is one
/// gesv / gesv_mixed call, or one fused engine run of a batch.
struct Sample {
  // Stages, the request's child spans (with_tune_key is booked as plan).
  double copy = 0.0, plan = 0.0, pack = 0.0, run = 0.0, finish = 0.0;
  double unpack = 0.0, solve = 0.0;
  double staged = 0.0;  // sum of the stages
  double total = 0.0;   // the request span
  double serial_frac = 0.0;
  // The engine run, from the per-thread task slots.
  double busy = 0.0, idle_overhead = 0.0, efficiency = 0.0, tail = 0.0;
  double spread = 0.0, gflops_busy = 0.0;  // spread: (max - mean) / mean
  double panel = 0.0, l = 0.0, u = 0.0, update = 0.0, blas_pack = 0.0;
  double tasks = 0.0, dynamic_share = 0.0, steals = 0.0, promotions = 0.0;
  // The request's solves.
  double jobs = 1.0, refine_steps = 0.0, fallbacks = 0.0;
  double reqs_per_run = 1.0;  // solves per engine run
};

/// Times a request's stages back to back, as child spans of its root.
class StageTimer {
 public:
  StageTimer(Tracer& tr, Sample& s, std::int64_t req)
      : tr_(tr), s_(s), req_(req), root_(tr.open("request", -1, req)) {}

  /// Ends the current stage and starts `name`, booked into `field`.
  int next(const char* name, double Sample::*field) {
    close_current();
    cur_ = tr_.open(name, root_, req_);
    field_ = field;
    return cur_;
  }
  void done() {
    close_current();
    tr_.close(root_);
    s_.total = ms_of(tr_.span(root_).end - tr_.span(root_).start);
  }

 private:
  void close_current() {
    if (cur_ < 0) return;
    tr_.close(cur_);
    const double ms = ms_of(tr_.span(cur_).end - tr_.span(cur_).start);
    s_.*field_ += ms;
    s_.staged += ms;
    cur_ = -1;
  }

  Tracer& tr_;
  Sample& s_;
  std::int64_t req_;
  int root_;
  int cur_ = -1;
  double Sample::*field_ = nullptr;
};

/// Fills the engine-run half of `s` from the task slots of the run under
/// span `run`; call after the request's StageTimer is done.
void book_run(const Tracer& tr, int run, const sched::EngineStats& es,
              int tasks, double flops, Sample& s) {
  const Span& r = tr.span(run);
  std::int64_t busy = 0, busy_max = 0, earliest_last = r.end;
  std::int64_t kind[trace::kKindCount] = {};
  for (const TaskSlot& slot : tr.slots()) {
    busy += slot.busy_ns;
    busy_max = std::max(busy_max, slot.busy_ns);
    for (int k = 0; k < trace::kKindCount; ++k) kind[k] += slot.kind_ns[k];
    earliest_last =
        std::min(earliest_last, slot.busy_ns > 0 ? slot.last_end : r.start);
  }
  auto kind_ms = [&](trace::Kind k) {
    return ms_of(kind[static_cast<int>(k)]);
  };
  const double mean = static_cast<double>(busy) / tr.slots().size();
  s.busy = ms_of(busy);
  s.idle_overhead = kTeam * s.run - s.busy;
  s.efficiency = s.busy / (kTeam * s.run);
  s.tail = ms_of(r.end - earliest_last);
  s.spread = mean > 0.0 ? (busy_max - mean) / mean : 0.0;
  s.gflops_busy = flops / s.busy * 1e-6;
  s.serial_frac = 1.0 - s.run / s.total;
  s.panel = kind_ms(trace::Kind::P);
  s.l = kind_ms(trace::Kind::L);
  s.u = kind_ms(trace::Kind::U);
  s.update = kind_ms(trace::Kind::S);
  s.blas_pack = kind_ms(trace::Kind::PackL) + kind_ms(trace::Kind::PackU);
  s.tasks = tasks;
  const double pops = static_cast<double>(es.static_pops + es.dynamic_pops);
  s.dynamic_share = pops > 0.0 ? es.dynamic_pops / pops : 0.0;
  s.steals = static_cast<double>(es.steals);
  s.promotions = static_cast<double>(es.promotions);
}

/// gesv / gesv_mixed (src/core/solve.cpp) rebuilt stage by stage from the
/// public functions they are made of, every task body timed.
core::SolveResult staged_solve(sched::Session& session, System& sys,
                               const core::Options& opt, bool mixed,
                               Tracer& tr, Sample& s, std::int64_t req,
                               bool timeline) {
  const int n = sys.a.rows();
  StageTimer st(tr, s, req);
  st.next("copy", &Sample::copy);
  layout::Matrix lu = sys.a;
  st.next("tune_key", &Sample::plan);
  core::Options o = opt;
  if (mixed) o.precision = core::Precision::Float32;
  o = core::with_tune_key(o, n, n);
  o.b = o.resolved_b();
  st.next("pack", &Sample::pack);
  layout::PackedMatrix p =
      layout::PackedMatrix::pack(lu, o.layout, o.b, o.resolved_grid(),
                                 core::owner_runner_from(o, session.team()));
  st.next("plan", &Sample::plan);
  core::GetrfJob job(p, o);
  const int run = st.next("run", &Sample::run);
  std::unique_ptr<noise::Injector> injector;
  const sched::RunHooks hooks =
      core::run_hooks_from(o, session.threads(), injector);
  const sched::TaskGraph& g = job.graph();
  tr.begin_run(run, req, timeline);
  const sched::EngineStats es = session.run(
      g,
      [&](int id, int tid) {
        tr.task(tid, g.task(id).kind, [&] { job.exec(id, tid); });
      },
      hooks, o.resolved_engine());
  st.next("finish", &Sample::finish);
  core::SolveResult res;
  res.factorization = job.finish(session.team());
  st.next("unpack", &Sample::unpack);
  p.unpack(lu);
  st.next("solve", &Sample::solve);
  if (mixed)
    core::refine_mixed(sys.a, sys.b, lu, opt, session, res);
  else
    core::solve_factored(sys.a, sys.b, lu, res.factorization.ipiv,
                         o.max_refine, res);
  st.done();
  book_run(tr, run, es, g.num_tasks(), model::lu_flops(n, n), s);
  s.refine_steps = res.refine_steps;
  s.fallbacks = res.used_fallback ? 1.0 : 0.0;
  s.reqs_per_run = res.used_fallback ? 0.5 : 1.0;  // fallback: a 2nd run
  return res;
}

/// batched_run(Fused) (src/core/batch.cpp) rebuilt stage by stage.  Each
/// stage is one loop over the jobs, so it is one span per batch.  Every
/// job carries an rhs and runs in double precision.
std::vector<core::SolveResult> staged_batch(sched::Session& session,
                                            std::vector<core::BatchJob>& jobs,
                                            Tracer& tr, Sample& s,
                                            std::int64_t req, bool timeline) {
  const std::size_t n = jobs.size();
  StageTimer st(tr, s, req);
  st.next("tune_key", &Sample::plan);
  for (core::BatchJob& job : jobs) {
    job.options =
        core::with_tune_key(job.options, job.a->rows(), job.a->cols());
    job.options.b = job.options.resolved_b();
  }
  const std::string engine = jobs[0].options.resolved_engine();
  st.next("copy", &Sample::copy);
  std::vector<layout::Matrix> lu(n);
  for (std::size_t i = 0; i < n; ++i) lu[i] = *jobs[i].a;
  st.next("pack", &Sample::pack);
  std::vector<layout::PackedMatrix> packed;
  packed.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const core::Options& o = jobs[i].options;
    packed.push_back(layout::PackedMatrix::pack(
        lu[i], o.layout, o.b, o.resolved_grid(),
        core::owner_runner_from(o, session.team())));
  }
  st.next("plan", &Sample::plan);
  std::vector<core::GetrfJob> prepared;
  prepared.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    prepared.emplace_back(packed[i], jobs[i].options);
  const int run = st.next("run", &Sample::run);
  std::vector<sched::FusedJob> fused(n);
  for (std::size_t i = 0; i < n; ++i) {
    fused[i].graph = &prepared[i].graph();
    fused[i].exec = [&prepared, &tr, i](int id, int tid) {
      tr.task(tid, prepared[i].graph().task(id).kind,
              [&] { prepared[i].exec(id, tid); });
    };
  }
  std::unique_ptr<noise::Injector> injector;
  const sched::RunHooks hooks =
      core::run_hooks_from(jobs[0].options, session.threads(), injector);
  tr.begin_run(run, req, timeline);
  const sched::FusedRunResult fr = session.run_fused(fused, hooks, engine);
  st.next("finish", &Sample::finish);
  std::vector<core::SolveResult> res(n);
  for (std::size_t i = 0; i < n; ++i)
    res[i].factorization = prepared[i].finish(session.team());
  st.next("unpack", &Sample::unpack);
  for (std::size_t i = 0; i < n; ++i) packed[i].unpack(lu[i]);
  st.next("solve", &Sample::solve);
  for (std::size_t i = 0; i < n; ++i)
    core::solve_factored(*jobs[i].a, *jobs[i].rhs, lu[i],
                         res[i].factorization.ipiv, jobs[i].options.max_refine,
                         res[i]);
  st.done();
  double flops = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    flops += model::lu_flops(jobs[i].a->rows(), jobs[i].a->cols());
    s.refine_steps += res[i].refine_steps / static_cast<double>(n);
  }
  book_run(tr, run, fr.engine, fr.fused_tasks, flops, s);
  s.jobs = static_cast<double>(n);
  s.reqs_per_run = s.jobs;
  return res;
}

// --------------------------------------------------------------- results --

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  Tally tally;
  std::vector<Metric> metrics;  // BENCHMARK.json's set for this mode
  std::vector<Metric> extras;   // result-file detail
  std::string kernel = "unknown";
  std::string phases;     // JSON object of phase durations
  int setups = 0;         // set-ups measured
  double coverage = 0.0;  // stage spans / request spans (traced)
  Tracer tracer{kTeam};

  void put(const std::string& name, double v, const std::string& unit) {
    metrics.push_back({name, v, unit});
  }
  void extra(const std::string& name, double v, const std::string& unit) {
    extras.push_back({name, v, unit});
  }
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The end-to-end set, the same on every workload.
void put_end_to_end(Result& r, const std::vector<double>& setup_s,
                    const std::vector<double>& latency_ms, double jobs_per_s) {
  r.put("setup_s", median(setup_s), "s");
  r.put("latency_p50_ms", pct(latency_ms, 50.0), "ms");
  r.put("latency_p90_ms", pct(latency_ms, 90.0), "ms");
  r.put("jobs_per_s", jobs_per_s, "1/s");
  r.put("peak_rss_mb", peak_rss_mb(), "MB");
  r.extra("latency_p99_ms", pct(latency_ms, 99.0), "ms");
  r.extra("latency_samples", static_cast<double>(latency_ms.size()), "count");
}

/// The service layer's figures (service_mix only).
struct ServiceLayer {
  double queue_p50 = 0.0, queue_p99 = 0.0, exec_p50 = 0.0;
  double reqs_per_run = 0.0, gen_late_p99 = 0.0;
};

/// The per-layer set, the same on every workload: medians per request.
/// Without `svc` the requests were direct calls: no queue and no
/// generator, the whole request is execution, and each engine run serves
/// the request's own solves.
void put_per_layer(Result& r, const std::vector<Sample>& samples,
                   const std::vector<double>& setup_ms,
                   const ServiceLayer* svc) {
  auto med = [&](double Sample::*field) {
    std::vector<double> v;
    for (const Sample& s : samples) v.push_back(s.*field);
    return median(v);
  };
  double jobs = 0.0, fallbacks = 0.0, staged = 0.0, total = 0.0;
  for (const Sample& s : samples) {
    jobs += s.jobs;
    fallbacks += s.fallbacks;
    staged += s.staged;
    total += s.total;
  }
  r.coverage = total > 0.0 ? staged / total : 0.0;
  const ServiceLayer direct{0.0, 0.0, med(&Sample::total),
                            med(&Sample::reqs_per_run), 0.0};
  const ServiceLayer& l = svc ? *svc : direct;

  r.put("layout.pack_ms", med(&Sample::pack), "ms");
  r.put("layout.unpack_ms", med(&Sample::unpack), "ms");
  r.put("core.copy_ms", med(&Sample::copy), "ms");
  r.put("core.plan_ms", med(&Sample::plan), "ms");
  r.put("core.finish_ms", med(&Sample::finish), "ms");
  r.put("core.solve_ms", med(&Sample::solve), "ms");
  r.put("core.refine_steps", med(&Sample::refine_steps), "count");
  r.put("core.fallback_frac", jobs > 0.0 ? fallbacks / jobs : 0.0, "ratio");
  r.put("core.serial_frac", med(&Sample::serial_frac), "ratio");
  r.put("core.residual_max", r.tally.residual_max, "ratio");
  r.put("sched.setup_ms", median(setup_ms), "ms");
  r.put("sched.run_ms", med(&Sample::run), "ms");
  r.put("sched.busy_ms", med(&Sample::busy), "ms");
  r.put("sched.idle_overhead_ms", med(&Sample::idle_overhead), "ms");
  r.put("sched.efficiency", med(&Sample::efficiency), "ratio");
  r.put("sched.tail_ms", med(&Sample::tail), "ms");
  r.put("sched.thread_busy_spread", med(&Sample::spread), "ratio");
  r.put("sched.tasks", med(&Sample::tasks), "count");
  r.put("sched.dynamic_share", med(&Sample::dynamic_share), "ratio");
  r.put("sched.steals", med(&Sample::steals), "count");
  r.put("sched.promotions", med(&Sample::promotions), "count");
  r.put("sched.queue_ms_p50", l.queue_p50, "ms");
  r.put("sched.queue_ms_p99", l.queue_p99, "ms");
  r.put("sched.exec_ms_p50", l.exec_p50, "ms");
  r.put("sched.reqs_per_run", l.reqs_per_run, "count");
  r.put("sched.gen_late_ms_p99", l.gen_late_p99, "ms");
  r.put("blas.panel_ms", med(&Sample::panel), "ms");
  r.put("blas.l_ms", med(&Sample::l), "ms");
  r.put("blas.u_ms", med(&Sample::u), "ms");
  r.put("blas.update_ms", med(&Sample::update), "ms");
  r.put("blas.pack_ms", med(&Sample::blas_pack), "ms");
  r.put("blas.gflops_busy", med(&Sample::gflops_busy), "GF/s");
}

// ------------------------------------------------------------- workloads --

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;  // 0: the workload's default
  bool trace = false;
  std::string out = ".bench_build/results";
  std::string rev = "unknown";
};

/// Runs `body` until `seconds` of wall time have passed (at least once).
template <class Body>
void for_seconds(double seconds, const Body& body) {
  const std::int64_t t0 = now_ns();
  do body();
  while (elapsed_s(t0) < seconds);
}

/// Set-up, measured several times: construct the Session or Service and
/// send it kWarmups requests; repeated at least kMinReps times and until
/// kBudgetS seconds went into it.  Appends each set-up's seconds and its
/// constructor's ms, and returns the last instance.
template <class T, class Make, class Warm>
std::unique_ptr<T> set_up(const Make& make, const Warm& warm,
                          std::vector<double>& setup_s,
                          std::vector<double>& ctor_ms) {
  constexpr int kMinReps = 5, kMaxReps = 50;
  constexpr double kBudgetS = 1.0;
  std::unique_ptr<T> obj;
  double spent = 0.0;
  for (int rep = 0; rep < kMaxReps && (rep < kMinReps || spent < kBudgetS);
       ++rep) {
    obj.reset();
    const std::int64_t t0 = now_ns();
    obj = make();
    ctor_ms.push_back(ms_of(now_ns() - t0));
    for (int w = 0; w < kWarmups; ++w) warm(*obj, w);
    setup_s.push_back(elapsed_s(t0));
    spent += setup_s.back();
  }
  return obj;
}

/// A closed-loop workload: one client issuing requests back to back on
/// one reused Session.  `request(session, req, timeline, sample)` runs
/// request `req` (staged and traced under --trace), checks its solves
/// outside the timing, and returns the seconds of the timed call.
template <class Request>
void run_closed(const Args& args, double default_seconds, int jobs_per_request,
                Result& r, const Request& request) {
  std::vector<Sample> samples;
  std::vector<double> latency_ms;
  double busy_s = 0.0;
  std::int64_t req = 0;
  auto call = [&](sched::Session& session, bool measured) {
    Sample s;
    const bool timeline = measured && samples.size() < kTimelineRequests;
    try {
      const double dt = request(session, req, timeline, s);
      if (measured) {
        latency_ms.push_back(dt * 1e3);
        busy_s += dt;
        if (args.trace) samples.push_back(s);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "request %lld failed: %s\n",
                   static_cast<long long>(req), e.what());
      for (int i = 0; i < jobs_per_request; ++i) r.tally.fail();
    }
    ++req;
  };
  auto make = [] {
    return std::make_unique<sched::Session>(sched::SessionOptions{kTeam, true});
  };
  auto warm = [&](sched::Session& session, int) { call(session, false); };

  std::vector<double> setup_s, ctor_ms;
  std::unique_ptr<sched::Session> session =
      set_up<sched::Session>(make, warm, setup_s, ctor_ms);
  r.setups = static_cast<int>(setup_s.size());
  const double seconds = args.seconds > 0.0 ? args.seconds : default_seconds;
  for_seconds(seconds, [&] { call(*session, true); });
  r.phases = "{\"closed_loop_s\": " + std::to_string(seconds) + "}";

  const double jobs_per_s = jobs_per_request * latency_ms.size() / busy_s;
  if (!args.trace) {
    put_end_to_end(r, setup_s, latency_ms, jobs_per_s);
    return;
  }
  put_per_layer(r, samples, ctor_ms, nullptr);
  r.extra("traced.latency_p50_ms", pct(latency_ms, 50.0), "ms");
  r.extra("traced.jobs_per_s", jobs_per_s, "1/s");
}

core::Options team_options(int b) {
  core::Options o;
  o.b = b;
  o.threads = kTeam;  // sizes the thread grid to the team
  return o;
}

/// large_solve and mixed_solve: gesv / gesv_mixed back to back.
Result run_solve(const Args& args, int n, int b, int max_refine, bool mixed) {
  Result r;
  Gen gen(args.seed);
  std::vector<System> pool = make_systems(gen, 3, n);
  core::Options opt = team_options(b);
  opt.max_refine = max_refine;
  opt.dratio = 0.1;
  opt.engine = "hybrid";
  auto request = [&](sched::Session& session, std::int64_t req, bool timeline,
                     Sample& s) {
    System& sys = pool[static_cast<std::size_t>(req) % pool.size()];
    const std::int64_t t0 = now_ns();
    core::SolveResult res;
    if (args.trace)
      res = staged_solve(session, sys, opt, mixed, r.tracer, s, req, timeline);
    else if (mixed)
      res = core::gesv_mixed(sys.a, sys.b, opt, session);
    else
      res = core::gesv(sys.a, sys.b, opt, session);
    const double dt = elapsed_s(t0);
    r.kernel = res.factorization.stats.kernel;
    r.tally.check(sys, res.x);
    return dt;
  };
  run_closed(args, mixed ? 15.0 : 20.0, 1, r, request);
  return r;
}

/// small_batch: 64-job fused batches of n=64 systems back to back.
Result run_batch(const Args& args) {
  constexpr int kJobs = 64;
  Result r;
  Gen gen(args.seed);
  std::vector<System> pool = make_systems(gen, 4 * kJobs, 64);
  core::Options opt = team_options(32);
  opt.engine = "hybrid";
  auto request = [&](sched::Session& session, std::int64_t req, bool timeline,
                     Sample& s) {
    std::vector<core::BatchJob> jobs(kJobs);
    std::vector<System*> sys(kJobs);
    for (int i = 0; i < kJobs; ++i) {
      sys[i] = &pool[static_cast<std::size_t>(req * kJobs + i) % pool.size()];
      jobs[i].a = &sys[i]->a;
      jobs[i].rhs = &sys[i]->b;
      jobs[i].options = opt;
    }
    std::vector<layout::Matrix> xs(kJobs);
    const std::int64_t t0 = now_ns();
    if (args.trace) {
      std::vector<core::SolveResult> res =
          staged_batch(session, jobs, r.tracer, s, req, timeline);
      for (int i = 0; i < kJobs; ++i) xs[i] = std::move(res[i].x);
      r.kernel = res[0].factorization.stats.kernel;
    } else {
      core::BatchRunResult res =
          core::batched_run(jobs, session, core::BatchMode::Fused);
      for (int i = 0; i < kJobs; ++i) xs[i] = std::move(res.jobs[i].x);
      r.kernel = res.jobs[0].factorization.stats.kernel;
    }
    const double dt = elapsed_s(t0);
    for (int i = 0; i < kJobs; ++i) r.tally.check(*sys[i], xs[i]);
    return dt;
  };
  run_closed(args, 15.0, kJobs, r, request);
  return r;
}

// Open-loop arrivals, req/s: a fixed absolute rate.  Unbatched requests
// cost ~0.4 ms of service time on average, so this is ~20% utilization.
// At 1000 req/s (~45%) a host slowdown pushed the queue toward
// saturation, and the open-loop latency spread 20-120% across runs.
constexpr double kOfferedRate = 500.0;
constexpr int kOutstanding = 32;  // closed-loop concurrency
constexpr int kMaxBatch = 16;
constexpr const char* kServiceEngine = "priority-lookahead";

/// One service request drawn from service_mix's stream.
struct Draw {
  System* sys = nullptr;
  core::Options options;

  sched::ServiceRequest request() const {
    sched::ServiceRequest q;
    q.a = &sys->a;
    q.rhs = &sys->b;
    q.options = options;
    return q;
  }
};

/// service_mix's request stream: 90% n=64 (b=16) and 10% n=256 (b=64)
/// systems, 30% of requests interactive.
class RequestMix {
 public:
  explicit RequestMix(Gen& gen)
      : small_(make_systems(gen, 64, 64)), large_(make_systems(gen, 16, 256)) {}

  Draw draw(Gen& gen) {
    const bool large = gen.uniform() < 0.10;
    const std::uint64_t i = gen.next();
    return make(large, i, gen.uniform() < 0.30);
  }

  /// Set-up's warm-up request `w`: always the same three shapes (small
  /// interactive, small batch, large interactive), so set-up time does
  /// not depend on what the generator happens to draw.
  Draw warmup(int w) { return make(w == 2, 0, w != 1); }

 private:
  Draw make(bool large, std::uint64_t i, bool interactive) {
    std::vector<System>& pool = large ? large_ : small_;
    Draw d{&pool[i % pool.size()], team_options(large ? 64 : 16)};
    d.options.priority_class = interactive ? core::PriorityClass::Interactive
                                           : core::PriorityClass::Batch;
    return d;
  }

  std::vector<System> small_, large_;
};

/// Resolves one submission and checks its solution; false when the
/// request was refused or failed.
bool settle(Result& r, const Draw& d, sched::Submission& sub,
            sched::ServiceResponse& out) {
  if (sub.status != sched::SubmitStatus::Accepted) {
    r.tally.fail();
    return false;
  }
  try {
    out = sub.response.get();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "service request failed: %s\n", e.what());
    r.tally.fail();
    return false;
  }
  r.kernel = out.result.factorization.stats.kernel;
  r.tally.check(*d.sys, out.result.x);
  return true;
}

/// Whether settle() would return without blocking.
bool ready(const sched::Submission& sub) {
  return sub.status != sched::SubmitStatus::Accepted ||
         sub.response.wait_for(std::chrono::seconds(0)) ==
             std::future_status::ready;
}

/// Pins the calling client thread to the first CPU the service team does
/// not use, so the client never shares a CPU with the dispatcher or a
/// worker.  pthread_setaffinity_np failing only leaves it unpinned.
void pin_client() {
  const std::vector<int> order = sched::system_topology().pin_order();
  if (static_cast<int>(order.size()) <= kTeam) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(order[kTeam], &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

/// What the open-loop phase measured, ms.
struct OpenLoop {
  std::vector<double> interactive, batch;  // latency from the due time
  std::vector<double> queue, exec;         // interactive requests
  std::vector<double> late;                // submit minus due time
};

/// Poisson arrivals at kOfferedRate for `seconds`, drawn up front.  The
/// generator loop sleeps, submits, and, while the next request is not yet
/// due, checks the responses that have arrived (dropping them, so the
/// harness's memory stays flat).  Latency counts from each request's due
/// time, so a stall also charges the requests it delayed.
OpenLoop open_loop(sched::Service& svc, RequestMix& mix, Gen& gen,
                   double seconds, Result& r, bool trace) {
  // `done` is written once by the completion callback on the dispatcher
  // thread, which runs before the request's future becomes ready.
  struct Flight {
    Draw d;
    std::int64_t due = 0, submit = 0, done = 0;
    sched::Submission sub;
  };
  std::vector<Flight> flights;
  for (double t = gen.exponential(kOfferedRate); t < seconds;
       t += gen.exponential(kOfferedRate)) {
    Flight f;
    f.d = mix.draw(gen);
    f.due = static_cast<std::int64_t>(t * 1e9);
    flights.push_back(std::move(f));
  }

  OpenLoop out;
  std::size_t settled = 0;
  // Settles flights [settled, end) in order until one is not ready or
  // the deadline passes.
  auto settle_upto = [&](std::size_t end, std::int64_t deadline) {
    for (; settled < end; ++settled) {
      Flight& f = flights[settled];
      if (now_ns() > deadline || !ready(f.sub)) break;
      const auto req = static_cast<std::int64_t>(settled);
      out.late.push_back(ms_of(f.submit - f.due));
      sched::ServiceResponse resp;
      if (!settle(r, f.d, f.sub, resp)) continue;
      if (f.d.options.priority_class == core::PriorityClass::Batch) {
        out.batch.push_back(ms_of(f.done - f.due));
        continue;
      }
      out.interactive.push_back(ms_of(f.done - f.due));
      out.queue.push_back(resp.queue_seconds * 1e3);
      out.exec.push_back((resp.latency_seconds - resp.queue_seconds) * 1e3);
      if (!trace) continue;
      // Spans from the stamps the request carries; they tile it.
      const std::int64_t dequeued =
          f.submit + static_cast<std::int64_t>(resp.queue_seconds * 1e9);
      const int root =
          r.tracer.add({"service.request", f.due, f.done, -1, req, 0});
      r.tracer.add({"service.late", f.due, f.submit, root, req, 0});
      r.tracer.add({"service.queue", f.submit, dequeued, root, req, 0});
      r.tracer.add({"service.exec", dequeued, f.done, root, req, 0});
    }
  };

  constexpr std::int64_t kSlackNs = 200000;  // outlasts one check
  constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();
  const std::int64_t start = now_ns() + 1000000;  // 1 ms from now
  for (Flight& f : flights) f.due += start;
  for (std::size_t i = 0; i < flights.size(); ++i) {
    Flight& f = flights[i];
    std::this_thread::sleep_until(kEpoch + std::chrono::nanoseconds(f.due));
    sched::ServiceRequest q = f.d.request();
    q.on_complete = [done = &f.done](const sched::ServiceResponse&) {
      *done = now_ns();
    };
    f.submit = now_ns();
    f.sub = svc.submit(std::move(q));
    const bool last = i + 1 == flights.size();
    settle_upto(i + 1, last ? kNever : flights[i + 1].due - kSlackNs);
  }
  svc.drain();
  settle_upto(flights.size(), kNever);
  return out;
}

/// kOutstanding requests kept in flight for `seconds`: each completion
/// returns a credit the client spends on the next submission.  Returns
/// the completed requests per second; sets the requests per fused run.
double closed_loop(sched::Service& svc, RequestMix& mix, Gen& gen,
                   double seconds, Result& r, double& reqs_per_run) {
  std::mutex mu;
  std::condition_variable cv;
  int credits = kOutstanding;
  auto on_complete = [&](const sched::ServiceResponse&) {
    {
      std::lock_guard<std::mutex> lk(mu);
      ++credits;
    }
    cv.notify_one();
  };
  // Responses are checked and dropped as they arrive, so the harness's
  // memory does not grow with the throughput it measures.
  std::deque<std::pair<Draw, sched::Submission>> inflight;
  std::uint64_t completed = 0;
  auto settle_ready = [&](bool wait) {
    while (!inflight.empty()) {
      auto& [d, sub] = inflight.front();
      if (!wait && !ready(sub)) break;
      sched::ServiceResponse resp;
      if (settle(r, d, sub, resp)) ++completed;
      inflight.pop_front();
    }
  };

  const std::uint64_t runs0 = svc.fused_runs();
  const std::int64_t t0 = now_ns();
  while (elapsed_s(t0) < seconds) {
    {
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&] { return credits > 0; });
      --credits;
    }
    Draw d = mix.draw(gen);
    sched::ServiceRequest q = d.request();
    q.on_complete = on_complete;
    sched::Submission sub = svc.submit(std::move(q));
    if (sub.status != sched::SubmitStatus::Accepted) {
      std::lock_guard<std::mutex> lk(mu);
      ++credits;
    }
    inflight.emplace_back(d, std::move(sub));
    settle_ready(false);
  }
  svc.drain();
  const double elapsed = elapsed_s(t0);
  const double runs = static_cast<double>(svc.fused_runs() - runs0);
  settle_ready(true);
  reqs_per_run = runs > 0.0 ? completed / runs : 0.0;
  return completed / elapsed;
}

/// service_mix: a Service with priority-lookahead, max_batch 16 and
/// queue_depth 256, under the open loop and then the closed loop.  The
/// traced run gives a quarter of its time to a staged replay of the
/// service's fused runs.
Result run_service(const Args& args) {
  pin_client();
  Result r;
  Gen gen(args.seed);
  RequestMix mix(gen);
  sched::ServiceOptions so;
  so.session = sched::SessionOptions{kTeam, true};
  so.engine = kServiceEngine;
  so.max_batch = kMaxBatch;
  so.queue_depth = 256;
  auto make = [&] { return std::make_unique<sched::Service>(so); };
  auto warm = [&](sched::Service& svc, int w) {
    const Draw d = mix.warmup(w);
    sched::Submission sub = svc.submit(d.request());
    sched::ServiceResponse resp;
    settle(r, d, sub, resp);
  };

  std::vector<double> setup_s, ctor_ms;
  std::unique_ptr<sched::Service> svc =
      set_up<sched::Service>(make, warm, setup_s, ctor_ms);
  r.setups = static_cast<int>(setup_s.size());
  const double seconds = args.seconds > 0.0 ? args.seconds : 20.0;
  const double open_s = seconds * (args.trace ? 0.45 : 0.6);
  const double closed_s = seconds * (args.trace ? 0.30 : 0.4);
  const double replay_s = args.trace ? seconds * 0.25 : 0.0;
  r.phases = "{\"open_loop_s\": " + std::to_string(open_s) +
             ", \"closed_loop_s\": " + std::to_string(closed_s) +
             ", \"replay_s\": " + std::to_string(replay_s) + "}";

  const OpenLoop open = open_loop(*svc, mix, gen, open_s, r, args.trace);
  double reqs_per_run = 0.0;
  const double capacity =
      closed_loop(*svc, mix, gen, closed_s, r, reqs_per_run);
  svc.reset();
  if (!args.trace) {
    put_end_to_end(r, setup_s, open.interactive, capacity);
    r.extra("batch_latency_p50_ms", pct(open.batch, 50.0), "ms");
    r.extra("batch_latency_p90_ms", pct(open.batch, 90.0), "ms");
    r.extra("gen_late_ms_p99", pct(open.late, 99.0), "ms");
    r.extra("reqs_per_run", reqs_per_run, "count");
    return r;
  }

  // The core, layout and blas layers of a request are not observable
  // through the Service, so replay its work: fused runs of the measured
  // coalescing width, drawn from the same mix and staged on a Session
  // with the service's engine.
  const int width =
      std::clamp(static_cast<int>(std::lround(reqs_per_run)), 1, kMaxBatch);
  sched::Session session(sched::SessionOptions{kTeam, true});
  std::vector<Sample> samples;
  std::int64_t req = 0;
  for_seconds(replay_s, [&] {
    std::vector<core::BatchJob> jobs(static_cast<std::size_t>(width));
    std::vector<System*> sys(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      Draw d = mix.draw(gen);
      sys[i] = d.sys;
      jobs[i].a = &d.sys->a;
      jobs[i].rhs = &d.sys->b;
      jobs[i].options = d.options;
      jobs[i].options.engine = kServiceEngine;
    }
    Sample s;
    const bool timeline = samples.size() < kTimelineRequests;
    try {
      std::vector<core::SolveResult> res =
          staged_batch(session, jobs, r.tracer, s, req, timeline);
      for (std::size_t i = 0; i < jobs.size(); ++i)
        r.tally.check(*sys[i], res[i].x);
      samples.push_back(s);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "replay batch failed: %s\n", e.what());
      for (std::size_t i = 0; i < jobs.size(); ++i) r.tally.fail();
    }
    ++req;
  });
  ServiceLayer layer;
  layer.queue_p50 = pct(open.queue, 50.0);
  layer.queue_p99 = pct(open.queue, 99.0);
  layer.exec_p50 = pct(open.exec, 50.0);
  layer.reqs_per_run = reqs_per_run;
  layer.gen_late_p99 = pct(open.late, 99.0);
  put_per_layer(r, samples, ctor_ms, &layer);
  r.extra("replay_width", width, "count");
  return r;
}

// ---------------------------------------------------------------- output --

std::string json_num(double v) {
  if (!std::isfinite(v)) v = v > 0 ? std::numeric_limits<double>::max() : 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i)
    s += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " +
         json_num(ms[i].value) + ", \"unit\": \"" + ms[i].unit + "\"}";
  return s + "}";
}

bool stale(const Result& r) { return std::fabs(1.0 - r.coverage) > 0.05; }

/// The result file: provenance, correctness, and every metric (plus the
/// extras) of this run.
bool write_result(const Args& args, const Result& r, double wall_s,
                  const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const double fail_frac =
      r.tally.attempted ? double(r.tally.failed) / double(r.tally.attempted)
                        : 1.0;
  const auto seed = static_cast<unsigned long long>(args.seed);
  std::fprintf(f, "{\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n",
               args.workload.c_str(), seed);
  std::fprintf(f, "  \"trace\": %d,\n", args.trace ? 1 : 0);
  std::fprintf(f,
               "  \"provenance\": {\"git_rev\": \"%s\", \"build_type\": "
               "\"%s\", \"kernel\": \"%s\", \"nproc\": %u, \"affinity\": %d, "
               "\"team\": %d, \"seed\": %llu, \"phases\": %s, "
               "\"setups\": %d, \"warmups\": %d, \"wall_s\": %s},\n",
               args.rev.c_str(), CALU_BENCH_BUILD_TYPE, r.kernel.c_str(),
               std::thread::hardware_concurrency(),
               sched::ThreadTeam::hardware_threads(), kTeam, seed,
               r.phases.c_str(), r.setups, kWarmups, json_num(wall_s).c_str());
  std::fprintf(f,
               "  \"correct\": %s,\n  \"attempted\": %llu,\n  \"failed\": "
               "%llu,\n  \"fail_frac\": %s,\n",
               r.tally.failed == 0 ? "true" : "false",
               static_cast<unsigned long long>(r.tally.attempted),
               static_cast<unsigned long long>(r.tally.failed),
               json_num(fail_frac).c_str());
  if (args.trace)
    std::fprintf(f, "  \"breakdown\": {\"coverage\": %s, \"stale\": %s},\n",
                 json_num(r.coverage).c_str(), stale(r) ? "true" : "false");
  std::fprintf(f, "  \"metrics\": %s,\n  \"extras\": %s\n}\n",
               json_metrics(r.metrics).c_str(), json_metrics(r.extras).c_str());
  return std::fclose(f) == 0;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i], val;
    const std::size_t eq = key.find('=');
    if (eq != std::string::npos) {
      val = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      val = argv[++i];
    } else {
      return false;
    }
    try {
      if (key == "--workload") a.workload = val;
      else if (key == "--seed") a.seed = std::stoull(val);
      else if (key == "--seconds") a.seconds = std::stod(val);
      else if (key == "--trace") a.trace = std::stoi(val) != 0;
      else if (key == "--out") a.out = val;
      else if (key == "--rev") a.rev = val;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds >= 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: calu_bench --workload large_solve|small_batch|"
                 "service_mix|mixed_solve --seed S [--seconds T] "
                 "[--trace 0|1] [--out DIR] [--rev REV]\n");
    return 2;
  }
  const std::int64_t t0 = now_ns();
  Result r;
  try {
    if (args.workload == "large_solve") {
      r = run_solve(args, 1536, 96, 1, false);
    } else if (args.workload == "mixed_solve") {
      r = run_solve(args, 1024, 64, 2, true);
    } else if (args.workload == "small_batch") {
      r = run_batch(args);
    } else if (args.workload == "service_mix") {
      r = run_service(args);
    } else {
      std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", args.workload.c_str(), e.what());
    return 1;
  }

  const std::string stem = args.out + "/" + args.workload + "-s" +
                           std::to_string(args.seed) + "-t" +
                           (args.trace ? "1" : "0");
  if (!write_result(args, r, elapsed_s(t0), stem + ".json")) {
    std::fprintf(stderr, "cannot write %s.json\n", stem.c_str());
    return 1;
  }
  if (args.trace) {
    const std::string path = args.out + "/trace_" + args.workload + ".json";
    if (!r.tracer.write(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    if (stale(r))
      std::printf(
          "warning: stale breakdown: stage spans cover %.1f%% of the "
          "request time\n",
          100.0 * r.coverage);
  }
  for (const Metric& m : r.metrics)
    std::printf("%-26s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      r.tally.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(r.tally.attempted),
      static_cast<unsigned long long>(r.tally.failed),
      json_metrics(r.metrics).c_str());
  return r.tally.failed == 0 ? 0 : 1;
}
