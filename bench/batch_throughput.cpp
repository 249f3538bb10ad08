// batch_throughput.cpp — the batch-execution bench: jobs/s and open-loop
// per-job latency percentiles for batches of small/medium factorize+solve
// jobs, across three submission modes:
//
//   oneshot     every job is a one-shot gesv spawning its own thread team
//   sequential  one persistent sched::Session, one engine run per job
//               (the PR-5 amortization)
//   fused       one persistent session, every job's task graph merged
//               into ONE engine run (core::batched_run, BatchMode::Fused)
//               so engines steal across jobs — the scheduling itself is
//               amortized, not just the thread spawn
//
//   batch_throughput [--json=PATH] [--engine=NAME] [--threads=N]
//
// Environment: CALU_BENCH_FULL / CALU_BENCH_REPS / CALU_BENCH_THREADS as
// in every bench.  --threads may exceed the hardware count (unlike the
// CALU_BENCH_THREADS cap): spawning an oversubscribed team per call is
// exactly the overhead under measurement, and small containers would
// otherwise hide it.  --json writes BENCH_batch.json (committed at the
// repo root as the perf-trajectory artifact; CI smoke-validates its
// shape).
// Timed regions include team construction — that is the cost under
// measurement — and `teams_spawned` is counted via
// ThreadTeam::teams_constructed(), not inferred from timing.  Latency is
// open-loop: seconds from batch start to each job's completion (DAG
// retirement in fused mode), pooled across reps before taking
// percentiles.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/batch.h"
#include "src/core/solve.h"
#include "src/util/percentile.h"

namespace {

using namespace calu;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

enum class Mode { OneShot, Sequential, Fused };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::OneShot:
      return "oneshot";
    case Mode::Sequential:
      return "sequential";
    default:
      return "fused";
  }
}

struct Config {
  int n = 0, b = 0, jobs = 0;
  Mode mode = Mode::OneShot;
  bool reuse() const { return mode != Mode::OneShot; }
};

struct Result {
  Config cfg;
  double seconds = 0.0;  // median over reps, whole batch
  double jobs_per_s = 0.0;
  double latency_ms = 0.0;   // mean per-job, seconds / jobs
  double lat_p50_ms = 0.0;   // open-loop completion-latency percentiles
  double lat_p95_ms = 0.0;
  double lat_p99_ms = 0.0;
  std::uint64_t teams_spawned = 0;
  std::uint64_t dag_runs = 0;
};

std::string json_flag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--json=", 0) == 0) return a.substr(7);
  }
  return {};
}

int threads_flag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--threads=", 0) == 0) return std::atoi(a.c_str() + 10);
  }
  return 0;
}

double percentile_ms(const std::vector<double>& sorted_s, double p) {
  return util::percentile(sorted_s, p) * 1e3;
}

Result run_config(const Config& cfg, const core::Options& opt, int reps) {
  std::vector<layout::Matrix> as, bs;
  for (int i = 0; i < cfg.jobs; ++i) {
    as.push_back(layout::Matrix::random(
        cfg.n, cfg.n, 4000 + static_cast<std::uint64_t>(i)));
    bs.push_back(layout::Matrix::random(
        cfg.n, 1, 5000 + static_cast<std::uint64_t>(i)));
  }

  Result res;
  res.cfg = cfg;
  std::vector<double> secs;
  std::vector<double> lat;  // per-job open-loop latency, pooled over reps
  lat.reserve(static_cast<std::size_t>(cfg.jobs) * reps);
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t teams0 = sched::ThreadTeam::teams_constructed();
    const auto t0 = std::chrono::steady_clock::now();
    if (cfg.mode == Mode::OneShot) {
      for (int i = 0; i < cfg.jobs; ++i) {
        core::gesv(as[i], bs[i], opt);
        lat.push_back(seconds_since(t0));
      }
      res.dag_runs = static_cast<std::uint64_t>(cfg.jobs);
    } else {
      sched::Session session(core::session_options_from(opt));
      std::vector<core::BatchJob> jobs(as.size());
      for (std::size_t i = 0; i < as.size(); ++i) {
        jobs[i].a = &as[i];
        jobs[i].rhs = &bs[i];
        jobs[i].options = opt;
      }
      core::BatchRunResult batch = core::batched_run(
          jobs, session,
          cfg.mode == Mode::Fused ? core::BatchMode::Fused
                                  : core::BatchMode::Sequential);
      res.dag_runs = batch.stats.dag_runs;
      for (const core::BatchJobResult& j : batch.jobs)
        lat.push_back(j.completed_at);
    }
    secs.push_back(seconds_since(t0));
    if (r == 0)
      res.teams_spawned = sched::ThreadTeam::teams_constructed() - teams0;
  }
  std::sort(secs.begin(), secs.end());
  res.seconds = secs[secs.size() / 2];
  res.jobs_per_s = cfg.jobs / res.seconds;
  res.latency_ms = res.seconds / cfg.jobs * 1e3;
  std::sort(lat.begin(), lat.end());
  res.lat_p50_ms = percentile_ms(lat, 50.0);
  res.lat_p95_ms = percentile_ms(lat, 95.0);
  res.lat_p99_ms = percentile_ms(lat, 99.0);
  return res;
}

void write_json(const char* path, const std::vector<Result>& results,
                int threads, const std::string& engine, int reps) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"batch_throughput\",\n");
  std::fprintf(f, "  \"threads\": %d,\n", threads);
  std::fprintf(f, "  \"engine\": \"%s\",\n", engine.c_str());
  std::fprintf(f, "  \"reps\": %d,\n", reps);
  std::fprintf(f, "  \"full_scale\": %s,\n",
               bench::full_scale() ? "true" : "false");
  std::fprintf(f, "  \"configs\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(f,
                 "    {\"n\": %d, \"b\": %d, \"jobs\": %d, "
                 "\"mode\": \"%s\", \"session_reuse\": %s, "
                 "\"seconds\": %.6f, \"jobs_per_s\": %.2f, "
                 "\"latency_ms\": %.3f, \"lat_p50_ms\": %.3f, "
                 "\"lat_p95_ms\": %.3f, \"lat_p99_ms\": %.3f, "
                 "\"teams_spawned\": %llu, \"dag_runs\": %llu}%s\n",
                 r.cfg.n, r.cfg.b, r.cfg.jobs, mode_name(r.cfg.mode),
                 r.cfg.reuse() ? "true" : "false", r.seconds, r.jobs_per_s,
                 r.latency_ms, r.lat_p50_ms, r.lat_p95_ms, r.lat_p99_ms,
                 static_cast<unsigned long long>(r.teams_spawned),
                 static_cast<unsigned long long>(r.dag_runs),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace calu::bench;

  const std::string engine_arg = engine_flag(argc, argv);
  const std::string engine = engine_arg.empty() ? "hybrid" : engine_arg;
  const std::string json_path = json_flag(argc, argv);
  const int arg_threads = threads_flag(argc, argv);
  const int threads = arg_threads > 0 ? arg_threads : numa_threads();
  const int nreps = reps();

  core::Options opt;
  opt.threads = threads;
  opt.engine = engine;
  opt.max_refine = 1;

  print_banner("batch_throughput",
               "jobs/s for batched factorize+solve: oneshot vs sequential "
               "session vs fused multi-DAG",
               "amortization target: fused >= sequential >= oneshot, gap "
               "largest at small n x many jobs");

  const std::vector<int> ns = sizes({64, 160}, {256, 512});
  const std::vector<int> job_counts =
      full_scale() ? std::vector<int>{4, 16, 64}
                   : std::vector<int>{1, 4, 16, 48};

  std::printf("%6s %4s %5s %11s %10s %10s %10s %9s %9s %6s\n", "n", "b",
              "jobs", "mode", "seconds", "jobs/s", "lat_p50", "lat_p95",
              "lat_p99", "teams");
  std::vector<Result> results;
  for (int n : ns)
    for (int jobs : job_counts)
      for (Mode mode : {Mode::OneShot, Mode::Sequential, Mode::Fused}) {
        Config cfg;
        cfg.n = n;
        cfg.b = default_b(n);
        cfg.jobs = jobs;
        cfg.mode = mode;
        core::Options o = opt;
        o.b = cfg.b;
        results.push_back(run_config(cfg, o, nreps));
        const Result& r = results.back();
        std::printf("%6d %4d %5d %11s %10.4f %10.1f %10.3f %9.3f %9.3f "
                    "%6llu\n",
                    r.cfg.n, r.cfg.b, r.cfg.jobs, mode_name(r.cfg.mode),
                    r.seconds, r.jobs_per_s, r.lat_p50_ms, r.lat_p95_ms,
                    r.lat_p99_ms,
                    static_cast<unsigned long long>(r.teams_spawned));
      }

  if (!json_path.empty())
    write_json(json_path.c_str(), results, threads, engine, nreps);
  return 0;
}
