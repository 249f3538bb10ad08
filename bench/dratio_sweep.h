// dratio_sweep.h — shared driver for Figures 6/7/9/10: performance of CALU
// static / dynamic / static(number% dynamic) while varying the percentage
// of dynamically scheduled work.
#pragma once

#include "bench/bench_common.h"

namespace calu::bench {

/// `engine` "" keeps the hybrid default; any engine name
/// (e.g. "priority-lookahead") reruns the identical sweep under that
/// engine so the paper's d-ratio curves can be compared across all
/// engines.
inline void dratio_sweep(const char* fig, layout::Layout lay, int threads,
                         const std::vector<int>& ns,
                         const char* paper_shape,
                         const std::string& engine = "") {
  print_banner(fig, "CALU static/dynamic scheduling, varying dynamic %",
               paper_shape);
  std::printf("# layout=%s threads=%d b per n: default_b(n)\n",
              layout::layout_name(lay), threads);
  if (!engine.empty()) std::printf("# engine=%s (all rows)\n", engine.c_str());
  std::printf("%-8s %-10s %-12s %-10s %-12s\n", "n", "schedule", "dynamic%",
              "Gflop/s", "seconds");
  sched::Session session(sched::SessionOptions{threads, true});
  const double dratios[] = {0.0, 0.10, 0.20, 0.30, 0.50, 0.75, 1.0};
  for (int n : ns) {
    layout::Matrix a0 = layout::Matrix::random(n, n, 42);
    for (double d : dratios) {
      core::Options opt;
      opt.b = default_b(n);
      opt.layout = lay;
      opt.dratio = d;
      opt.engine = engine;
      Timing t = time_calu(a0, opt, session);
      const char* name = d == 0.0   ? "static"
                         : d == 1.0 ? "dynamic"
                                    : "hybrid";
      std::printf("%-8d %-10s %-12.0f %-10.2f %-12.4f\n", n, name, d * 100,
                  t.gflops, t.seconds);
    }
    std::fflush(stdout);
  }
}

}  // namespace calu::bench
