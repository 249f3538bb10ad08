// Section 6 / Theorem 1: validate the performance-model bound
//   fs <= 1 - (δmax - δavg) / Tp
// under controlled injected noise, then print the Section-7 exascale
// projection for the minimum dynamic fraction.
//
// Protocol: measure T1 (single-thread factor time, no noise); run a
// dratio sweep under seeded noise; report (a) the model's minimum dynamic
// fraction computed from the *measured* δmax/δavg of each run, and (b) the
// empirically best dratio.  The paper's claim is qualitative: the best
// fraction is small but nonzero, and it must not be smaller than what the
// bound allows once overheads are accounted.
#include "bench/bench_common.h"

int main() {
  using namespace calu;
  using namespace calu::bench;
  print_banner("Theorem 1 (Section 6)",
               "static-fraction bound under injected noise",
               "measured best dynamic fraction is small but nonzero and "
               "respects the model's lower bound");
  const int n = full_scale() ? 4000 : 2048;
  const int threads = intel_threads();
  const int b = default_b(n);
  std::printf("# n=%d b=%d threads=%d noise: phi=0.5, 600us bursts\n", n, b,
              threads);

  layout::Matrix a0 = layout::Matrix::random(n, n, 42);
  sched::Session session(sched::SessionOptions{threads, true});

  // T1: serial time (the model's numerator), measured without noise.
  core::Options opt;
  opt.b = b;
  opt.layout = layout::Layout::BlockCyclic;
  opt.dratio = 0.1;
  sched::Session solo(sched::SessionOptions{1, true});
  const double t1 = time_calu(a0, opt, solo, 1).seconds;
  std::printf("# measured T1 = %.3f s, Tp = T1/p = %.3f s\n", t1,
              t1 / threads);

  noise::NoiseSpec spec;
  spec.prob = 0.5;
  spec.mean_us = 600.0;
  spec.jitter_us = 200.0;

  std::printf("%-10s %-10s %-12s %-12s %-14s %-14s\n", "dynamic%", "Gflop/s",
              "seconds", "ideal-gap%", "delta_max(s)", "model-min-dyn%");
  double best_seconds = 1e300;
  double best_d = 0.0;
  for (double d : {0.0, 0.05, 0.10, 0.20, 0.30, 0.50, 0.75, 1.0}) {
    opt.dratio = d;
    opt.noise = spec;
    Timing t = time_calu(a0, opt, session, reps());
    model::ModelParams m;
    m.t1 = t1;
    m.p = threads;
    m.delta_max = t.stats.noise_delta_max;
    m.delta_avg = t.stats.noise_delta_avg;
    const double ideal = model::ideal_time(m);
    std::printf("%-10.0f %-10.2f %-12.4f %-12.1f %-14.4f %-14.1f\n", d * 100,
                t.gflops, t.seconds, (t.seconds / ideal - 1.0) * 100.0,
                m.delta_max, model::min_dynamic_fraction(m) * 100.0);
    if (t.seconds < best_seconds) {
      best_seconds = t.seconds;
      best_d = d;
    }
    std::fflush(stdout);
  }
  std::printf("# empirically best dynamic fraction: %.0f%%\n", best_d * 100);

  // Section 7 projection: constant work per core, noise amplification
  // grows as sqrt(p); minimum dynamic fraction must grow with scale.
  std::printf("\n# Section 7 projection (work/core fixed, noise spread ~ "
              "sqrt(p/p0)):\n");
  std::printf("%-10s %-16s %-16s\n", "p", "delta-spread(s)", "min-dynamic%");
  for (const auto& pt : model::project_min_dynamic(
           t1 / threads, 0.02 * t1 / threads, threads, 0.5,
           {threads, 4 * threads, 16 * threads, 64 * threads,
            256 * threads})) {
    std::printf("%-10d %-16.4f %-16.2f\n", pt.p, pt.delta_spread,
                pt.min_dynamic * 100.0);
  }
  return 0;
}
