// Extension bench (paper §7): performance *consistency*.  "The early
// results of the reduced standard deviations of wall clock times across
// multiple runs of our code under our tuned scheduling strategy is in
// accord with the performance consistency results shown in [16]."
// Measures mean and relative stddev of the factor time across repeated
// runs, with and without injected noise, per schedule.
#include <cmath>
#include <utility>

#include "bench/bench_common.h"

int main() {
  using namespace calu;
  using namespace calu::bench;
  print_banner("Extension: consistency (Section 7)",
               "run-to-run wall-clock variability per schedule",
               "the tuned hybrid schedule reduces the standard deviation of "
               "wall clock times across runs, especially under noise");
  const int n = full_scale() ? 5000 : 2048;
  const int threads = intel_threads();
  const int runs = std::max(5, reps() * 3);
  std::printf("# n=%d threads=%d runs=%d\n", n, threads, runs);
  std::printf("%-22s %-8s %-12s %-10s\n", "schedule", "noise", "mean(s)",
              "rel-stddev%");

  layout::Matrix a0 = layout::Matrix::random(n, n, 42);
  sched::Session session(sched::SessionOptions{threads, true});
  noise::NoiseSpec spec;
  spec.prob = 0.3;
  spec.mean_us = 400.0;
  spec.jitter_us = 150.0;

  for (auto [d, name] : {std::pair{0.0, "static"},
                         std::pair{0.10, "hybrid(10%)"},
                         std::pair{1.0, "dynamic"}}) {
    for (bool noisy : {false, true}) {
      core::Options opt;
      opt.b = default_b(n);
      opt.threads = threads;
      opt.dratio = d;
      opt.noise = noisy ? spec : noise::NoiseSpec{};
      double sum = 0.0, sum2 = 0.0;
      for (int r = 0; r < runs; ++r) {
        // Vary the noise seed per run — same distribution, fresh draws.
        opt.noise.seed = 42 + r;
        layout::PackedMatrix p = layout::PackedMatrix::pack(
            a0, opt.layout, opt.b, opt.resolved_grid());
        const double s = core::getrf(p, opt, session).stats.factor_seconds;
        sum += s;
        sum2 += s * s;
      }
      const double mean = sum / runs;
      const double var = std::max(0.0, sum2 / runs - mean * mean);
      std::printf("%-22s %-8s %-12.4f %-10.2f\n", name,
                  noisy ? "yes" : "no", mean,
                  100.0 * std::sqrt(var) / mean);
      std::fflush(stdout);
    }
  }
  return 0;
}
