// Extension bench (paper §9 future work): the hybrid scheduler applied to
// the Cholesky factorization.  Cholesky has no pivoting — the panel is a
// single cheap POTRF tile — so this isolates how much of the hybrid's win
// comes from load balance vs from hiding the panel's critical path.
#include "bench/bench_common.h"

int main() {
  using namespace calu;
  using namespace calu::bench;
  print_banner("Extension: Cholesky (Section 9)",
               "hybrid static/dynamic scheduling applied to tiled Cholesky",
               "the paper predicts the technique carries over; expect the "
               "same hybrid-beats-extremes shape with smaller margins than "
               "LU (no pivoted panel on the critical path)");
  const int threads = numa_threads();
  std::printf("%-8s %-10s %-10s %-12s %-10s %-12s\n", "n", "layout",
              "schedule", "dynamic%", "Gflop/s", "seconds");
  sched::Session session(sched::SessionOptions{threads, true});
  for (int n : sizes({2048, 4096}, {5000, 10000})) {
    layout::Matrix a0 = core::spd_matrix(n, 42);
    for (layout::Layout lay :
         {layout::Layout::BlockCyclic, layout::Layout::TwoLevelBlock}) {
      for (double d : {0.0, 0.10, 0.30, 1.0}) {
        core::Options opt;
        opt.b = default_b(n);
        opt.threads = threads;
        opt.layout = lay;
        opt.dratio = d;
        // Median of reps.
        double best = 1e300, gf = 0;
        for (int r = 0; r < reps(); ++r) {
          layout::PackedMatrix p = layout::PackedMatrix::pack(
              a0, lay, opt.b, opt.resolved_grid());
          core::Factorization f = core::potrf(p, opt, session);
          if (f.stats.factor_seconds < best) {
            best = f.stats.factor_seconds;
            gf = f.stats.gflops;
          }
        }
        const char* name = d == 0.0   ? "static"
                           : d == 1.0 ? "dynamic"
                                      : "hybrid";
        std::printf("%-8d %-10s %-10s %-12.0f %-10.2f %-12.4f\n", n,
                    layout::layout_name(lay), name, d * 100, gf, best);
        std::fflush(stdout);
      }
    }
  }
  return 0;
}
