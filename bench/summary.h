// summary.h — shared driver for Figures 12/13: impact of data layout and
// scheduling across matrix sizes ("dynamic rectangular" in the paper is
// the column-major layout under fully dynamic scheduling).
#pragma once

#include "bench/bench_common.h"

namespace calu::bench {

/// `engine` "" keeps the hybrid default; any engine name (e.g.
/// "work-stealing") reruns every row under that engine.
inline void summary_sweep(const char* fig, int threads,
                          const std::vector<int>& ns,
                          const char* paper_shape,
                          const std::string& engine = "") {
  print_banner(fig, "impact of data layout and scheduling", paper_shape);
  std::printf("# threads=%d; variant = layout/schedule\n", threads);
  if (!engine.empty()) std::printf("# engine=%s (all rows)\n", engine.c_str());
  std::printf("%-8s %-26s %-10s %-12s\n", "n", "variant", "Gflop/s",
              "seconds");
  sched::Session session(sched::SessionOptions{threads, true});

  struct Variant {
    const char* name;
    layout::Layout lay;
    core::Schedule sched;
    double dratio;
  };
  const Variant variants[] = {
      {"BCL/static", layout::Layout::BlockCyclic, core::Schedule::Static, 0},
      {"BCL/dynamic", layout::Layout::BlockCyclic, core::Schedule::Dynamic, 1},
      {"BCL/static(10%dyn)", layout::Layout::BlockCyclic,
       core::Schedule::Hybrid, 0.10},
      {"2l-BL/static", layout::Layout::TwoLevelBlock, core::Schedule::Static,
       0},
      {"2l-BL/dynamic", layout::Layout::TwoLevelBlock,
       core::Schedule::Dynamic, 1},
      {"2l-BL/static(10%dyn)", layout::Layout::TwoLevelBlock,
       core::Schedule::Hybrid, 0.10},
      {"CM/dynamic (rectangular)", layout::Layout::ColumnMajor,
       core::Schedule::Dynamic, 1},
  };
  for (int n : ns) {
    layout::Matrix a0 = layout::Matrix::random(n, n, 42);
    for (const Variant& v : variants) {
      core::Options opt;
      opt.b = default_b(n);
      opt.layout = v.lay;
      opt.schedule = v.sched;
      opt.dratio = v.dratio;
      opt.engine = engine;
      Timing t = time_calu(a0, opt, session);
      std::printf("%-8d %-26s %-10.2f %-12.4f\n", n, v.name, t.gflops,
                  t.seconds);
    }
    std::fflush(stdout);
  }
}

}  // namespace calu::bench
