// improvement.h — shared driver for Figures 8/11: percentage improvement
// of CALU static(10%/20% dynamic) over fully static and fully dynamic
// CALU, on half and all of the machine's cores.
#pragma once

#include "bench/bench_common.h"

namespace calu::bench {

inline void improvement_sweep(const char* fig, layout::Layout lay,
                              const std::vector<int>& ns,
                              const char* paper_shape) {
  print_banner(fig, "improvement of hybrid(10%/20%) over static & dynamic",
               paper_shape);
  std::printf("# layout=%s\n", layout::layout_name(lay));
  // packs/step: operand packs feeding the S gemms per factorization step —
  // O(nb) with the pack-once arena (pL/pU tasks), O(nb^2) without.
  std::printf("%-8s %-8s %-9s %-13s %-13s %-10s\n", "cores", "n", "hybrid%",
              "vs-static%", "vs-dynamic%", "packs/step");
  const int all = numa_threads();
  for (int threads : {std::max(1, all / 2), all}) {
    sched::Session session(sched::SessionOptions{threads, true});
    for (int n : ns) {
      layout::Matrix a0 = layout::Matrix::random(n, n, 42);
      core::Options opt;
      opt.b = default_b(n);
      opt.layout = lay;
      opt.dratio = 0.0;
      const Timing ts = time_calu(a0, opt, session);
      opt.dratio = 1.0;
      const Timing td = time_calu(a0, opt, session);
      for (double d : {0.10, 0.20}) {
        opt.dratio = d;
        const Timing th = time_calu(a0, opt, session);
        std::printf("%-8d %-8d %-9.0f %-13.1f %-13.1f %-10.1f\n", threads, n,
                    d * 100, (ts.seconds / th.seconds - 1.0) * 100.0,
                    (td.seconds / th.seconds - 1.0) * 100.0,
                    static_cast<double>(th.stats.s_operand_packs) /
                        std::max(1, th.stats.npanels));
      }
      std::fflush(stdout);
    }
  }
}

}  // namespace calu::bench
