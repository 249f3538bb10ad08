// Extension bench: tall-and-skinny factorization — the shape CALU was
// built for.  Section 3 recalls the authors' prior multithreaded CALU [8]:
// "the algorithm performed well on tall and skinny matrices" because the
// tournament parallelizes the panel that GEPP serializes.  Compares
// parallel CALU against the sequential-panel baseline on m x b panels and
// m x n tall matrices, plus sequential TSLU vs recursive GEPP.
#include "bench/bench_common.h"

int main() {
  using namespace calu;
  using namespace calu::bench;
  print_banner("Extension: tall-skinny panels (Section 3 / ref [8])",
               "CALU vs sequential-panel GEPP on tall matrices",
               "tournament pivoting parallelizes the panel; the advantage "
               "grows with m/n (panel fraction of total work)");
  const int threads = intel_threads();
  sched::Session session(sched::SessionOptions{threads, true});
  std::printf("# threads=%d\n", threads);
  std::printf("%-10s %-8s %-26s %-10s %-12s\n", "m", "n", "routine",
              "Gflop/s", "seconds");
  const int scale = full_scale() ? 4 : 1;
  for (auto [m, n] : {std::pair{16384 * scale, 128}, {32768 * scale, 128},
                      {16384 * scale, 512}, {8192 * scale, 1024}}) {
    layout::Matrix a0 = layout::Matrix::random(m, n, 42);
    core::Options opt;
    opt.b = 128;
    opt.threads = threads;
    opt.layout = layout::Layout::BlockCyclic;
    opt.dratio = 0.10;
    Timing t = time_calu(a0, opt, session);
    std::printf("%-10d %-8d %-26s %-10.2f %-12.4f\n", m, n,
                "CALU hybrid10", t.gflops, t.seconds);
    t = time_getrf_pp(a0, 128, session);
    std::printf("%-10d %-8d %-26s %-10.2f %-12.4f\n", m, n,
                "getrf_pp (seq. panel)", t.gflops, t.seconds);
    std::fflush(stdout);
  }

  // Sequential panel kernels: TSLU's tournament vs recursive GEPP — the
  // reduction operator trade (extra leaf flops for fewer synchronizations).
  std::printf("\n# sequential panel kernel (m x 128): TSLU(tournament) vs "
              "GEPP(recursive)\n");
  std::printf("%-10s %-26s %-12s\n", "m", "kernel", "seconds");
  for (int m : {8192, 32768}) {
    layout::Matrix p0 = layout::Matrix::random(m, 128, 43);
    for (int chunks : {1, 8}) {
      double best = 1e300;
      for (int r = 0; r < reps(); ++r) {
        layout::Matrix p = p0;
        const auto t0 = std::chrono::steady_clock::now();
        core::tslu_factor(p, chunks);
        best = std::min(best, std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count());
      }
      std::printf("%-10d tslu(chunks=%d)%12s %-12.4f\n", m, chunks, "",
                  best);
    }
    double best = 1e300;
    for (int r = 0; r < reps(); ++r) {
      layout::Matrix p = p0;
      std::vector<int> ipiv(128);
      const auto t0 = std::chrono::steady_clock::now();
      blas::getrf_recursive(m, 128, p.data(), p.ld(), ipiv.data());
      best = std::min(best, std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count());
    }
    std::printf("%-10d getrf_recursive%11s %-12.4f\n", m, "", best);
  }
  return 0;
}
