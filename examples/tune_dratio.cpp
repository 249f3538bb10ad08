// tune_dratio.cpp — the paper's tuning knob in action: sweep the dynamic
// percentage on *this* machine and report the best configuration per
// layout.  "In practice, a particular scheduling technique can be highly
// efficient on one architecture, but less efficient on another" (§3); this
// is the experiment a user runs once per machine.
//
//   ./example_tune_dratio [n] [threads]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "src/calu.h"

int main(int argc, char** argv) {
  using namespace calu;
  const int n = argc > 1 ? std::atoi(argv[1]) : 2048;
  const int threads =
      argc > 2 ? std::atoi(argv[2]) : sched::ThreadTeam::hardware_threads();

  std::printf("tuning CALU on %d threads, n=%d\n", threads, n);
  layout::Matrix a0 = layout::Matrix::random(n, n, 7);
  sched::Session session(sched::SessionOptions{threads, true});

  double best_gf = 0.0;
  layout::Layout best_lay = layout::Layout::BlockCyclic;
  double best_d = 0.0;
  for (layout::Layout lay :
       {layout::Layout::BlockCyclic, layout::Layout::TwoLevelBlock}) {
    std::printf("\nlayout %-6s  ", layout::layout_name(lay));
    std::printf("%8s %10s\n", "dyn%", "Gflop/s");
    for (double d : {0.0, 0.05, 0.10, 0.20, 0.30, 0.50, 1.0}) {
      core::Options opt;
      opt.b = 128;
      opt.threads = threads;
      opt.layout = lay;
      opt.dratio = d;
      layout::PackedMatrix p =
          layout::PackedMatrix::pack(a0, lay, opt.b, opt.resolved_grid());
      core::Factorization f = core::getrf(p, opt, session);
      std::printf("%22.0f %10.2f\n", d * 100, f.stats.gflops);
      if (f.stats.gflops > best_gf) {
        best_gf = f.stats.gflops;
        best_lay = lay;
        best_d = d;
      }
    }
  }
  std::printf("\nbest on this machine: %s with %.0f%% dynamic "
              "(%.2f Gflop/s)\n",
              layout::layout_name(best_lay), best_d * 100, best_gf);
  std::printf("paper's recommendation: ~10%% dynamic usually wins — the "
              "best compromise between locality, balance, and dequeue "
              "overhead (§9).\n");
  return 0;
}
