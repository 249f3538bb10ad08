// libs.h — shared driver for Figures 16/17: CALU static(10% dynamic) vs
// the MKL stand-in (getrf_pp: sequential panel + parallel update) and the
// PLASMA stand-in (getrf_incpiv: tiled incremental pivoting).
#pragma once

#include "bench/bench_common.h"

namespace calu::bench {

/// `engine` "" keeps the hybrid default for the CALU rows; any engine
/// name (e.g. "work-stealing") reruns them under that engine.  The
/// MKL/PLASMA stand-in rows are engine-independent.
inline void libs_sweep(const char* fig, int threads,
                       const std::vector<int>& ns, const char* paper_shape,
                       const std::string& engine = "") {
  print_banner(fig, "CALU vs MKL(getrf_pp) vs PLASMA(getrf_incpiv)",
               paper_shape);
  std::printf("# threads=%d\n", threads);
  if (!engine.empty())
    std::printf("# engine=%s (CALU rows)\n", engine.c_str());
  std::printf("%-8s %-26s %-10s %-12s\n", "n", "routine", "Gflop/s",
              "seconds");
  sched::Session session(sched::SessionOptions{threads, true});
  for (int n : ns) {
    layout::Matrix a0 = layout::Matrix::random(n, n, 42);
    const int b = default_b(n);

    core::Options opt;
    opt.b = b;
    opt.schedule = core::Schedule::Hybrid;
    opt.dratio = 0.10;
    opt.engine = engine;
    opt.layout = layout::Layout::BlockCyclic;
    Timing t = time_calu(a0, opt, session);
    std::printf("%-8d %-26s %-10.2f %-12.4f\n", n, "CALU hybrid10 (BCL)",
                t.gflops, t.seconds);

    opt.layout = layout::Layout::TwoLevelBlock;
    t = time_calu(a0, opt, session);
    std::printf("%-8d %-26s %-10.2f %-12.4f\n", n, "CALU hybrid10 (2l-BL)",
                t.gflops, t.seconds);

    t = time_getrf_pp(a0, b, session);
    std::printf("%-8d %-26s %-10.2f %-12.4f\n", n, "getrf_pp (MKL sub)",
                t.gflops, t.seconds);

    t = time_incpiv(a0, b, session);
    std::printf("%-8d %-26s %-10.2f %-12.4f\n", n, "incpiv (PLASMA sub)",
                t.gflops, t.seconds);
    std::fflush(stdout);
  }
}

}  // namespace calu::bench
