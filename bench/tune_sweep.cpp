// tune_sweep.cpp — TuneMode::Auto versus the best hand-tuned d-ratio
// point of the Figure-6/9 sweeps, on this machine.
//
//   tune_sweep [--json[=path]] [--threads=N]
//
// For each size the bench first reproduces the fig06-style hand sweep
// (the paper's d-ratio grid at default_b(n), hybrid schedule mapping) and
// keeps its fastest point, then times the same factorization under
// TuneMode::Auto — model-seeded candidates calibrated through the real
// measure function.  The "auto_vs_best" ratio (auto seconds / best hand
// seconds) is the ROADMAP-item-5 acceptance number: ~1.0 means the tuner
// found the hand point (or better) without anyone sweeping knobs by
// hand.  Calibration cost is reported separately (each process pays it
// once per size, not per factorization).  bench/run_bench.sh splices
// the emitted object into BENCH_kernels.json as its top-level "tuning"
// section.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench/bench_common.h"
#include "src/blas/microkernel.h"

namespace {

using namespace calu;

int run(const char* path, int threads, int nreps) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 1;
  }
  if (threads <= 0) threads = bench::intel_threads();
  sched::Session session(sched::SessionOptions{threads, true});
  // Calibration measurements get the same best-of treatment as the timed
  // rows, so a noise spike cannot crown the wrong candidate.
  tune::global_autotuner().set_measure(tune::real_measure(nreps));

  // Sizes start where a factorization outruns scheduler jitter (sub-ms
  // runs make every ratio a coin flip); paper scale under CALU_BENCH_FULL.
  const std::vector<int> ns =
      bench::sizes({512, 768, 1024}, {2048, 4096});
  const double dratios[] = {0.0, 0.10, 0.20, 0.30, 0.50, 0.75, 1.0};

  std::fprintf(f, "{\n  \"bench\": \"tune_sweep\",\n");
  std::fprintf(f, "  \"dispatched\": \"%s\",\n", blas::active_kernel().name);
  std::fprintf(f, "  \"threads\": %d, \"reps\": %d,\n", threads, nreps);
  std::fprintf(f, "  \"sweep\": [\n");
  std::printf("%-8s %-14s %-12s %-24s %-12s %s\n", "n", "hand-best",
              "hand-s", "auto {d,b,engine}", "auto-s", "auto/best");

  for (std::size_t ni = 0; ni < ns.size(); ++ni) {
    const int n = ns[ni];
    const layout::Matrix a0 = layout::Matrix::random(n, n, 42);

    // Hand sweep: the fig06/fig09 grid at the bench default tile size.
    double best_s = 0.0, best_g = 0.0, best_d = 0.0;
    for (double d : dratios) {
      core::Options opt;
      opt.b = bench::default_b(n);
      opt.layout = layout::Layout::BlockCyclic;
      opt.dratio = d;
      opt.schedule = d == 0.0   ? core::Schedule::Static
                     : d == 1.0 ? core::Schedule::Dynamic
                                : core::Schedule::Hybrid;
      const bench::Timing t = bench::time_calu(a0, opt, session, nreps);
      if (best_s == 0.0 || t.seconds < best_s) {
        best_s = t.seconds;
        best_g = t.gflops;
        best_d = d;
      }
    }

    // Auto: one calibration (timed separately), then the tuned run.
    core::Options opt;
    opt.tune = core::TuneMode::Auto;
    opt.layout = layout::Layout::BlockCyclic;
    opt.threads = threads;
    opt = core::with_tune_key(opt, n, n);
    const auto c0 = std::chrono::steady_clock::now();
    const tune::Decision dec = tune::decision_for(opt);
    const double calib_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - c0)
            .count();
    opt.b = opt.resolved_b();  // materialize for the shared packer
    const bench::Timing t = bench::time_calu(a0, opt, session, nreps);
    const double ratio = t.seconds / best_s;

    std::fprintf(
        f,
        "    {\"n\": %d,\n"
        "     \"hand_best\": {\"dratio\": %.2f, \"b\": %d, "
        "\"seconds\": %.6f, \"gflops\": %.2f},\n"
        "     \"auto\": {\"dratio\": %.4f, \"b\": %d, \"engine\": \"%s\", "
        "\"lookahead_depth\": %d, \"seconds\": %.6f, \"gflops\": %.2f, "
        "\"calibration_seconds\": %.6f},\n"
        "     \"auto_vs_best\": %.4f}%s\n",
        n, best_d, bench::default_b(n), best_s, best_g, dec.dratio, opt.b,
        dec.engine.c_str(), dec.lookahead_depth, t.seconds, t.gflops,
        calib_s, ratio, ni + 1 < ns.size() ? "," : "");
    std::printf("%-8d d=%-12.2f %-12.4f {%.2f,%d,%s}%*s %-12.4f %.3f\n", n,
                best_d, best_s, dec.dratio, opt.b, dec.engine.c_str(),
                std::max(0, 10 - static_cast<int>(dec.engine.size())), "",
                t.seconds, ratio);
    std::fflush(stdout);
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = "BENCH_tuning.json";
  int threads = 0;
  int reps = 3;
  if (const char* env = std::getenv("CALU_BENCH_REPS")) reps = std::atoi(env);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) path = argv[i] + 7;
    else if (std::strncmp(argv[i], "--threads=", 10) == 0)
      threads = std::atoi(argv[i] + 10);
  }
  return run(path, threads, reps < 1 ? 1 : reps);
}
