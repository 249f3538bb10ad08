// Extension bench (paper §9 future work): locality-tagged dynamic queues —
// "tasks are chosen from the queue such that the data that these tasks
// operate on is highly likely to be in a core's cache already".  Compares
// the plain shared DFS queue against per-tag buckets for fully dynamic and
// hybrid CALU.
#include "bench/bench_common.h"

int main() {
  using namespace calu;
  using namespace calu::bench;
  print_banner("Extension: locality tags (Section 9)",
               "locality-aware dynamic task selection vs shared DFS queue",
               "fewer task migrations should recover part of the static "
               "schedule's locality inside the dynamic section");
  const int threads = numa_threads();
  std::printf("%-8s %-10s %-22s %-10s %-12s\n", "n", "layout", "variant",
              "Gflop/s", "seconds");
  sched::Session session(sched::SessionOptions{threads, true});
  for (int n : sizes({2048, 4096}, {5000, 10000})) {
    layout::Matrix a0 = layout::Matrix::random(n, n, 42);
    for (layout::Layout lay :
         {layout::Layout::BlockCyclic, layout::Layout::TwoLevelBlock}) {
      for (auto [sched, d, base] :
           {std::tuple{core::Schedule::Dynamic, 1.0, "dynamic"},
            std::tuple{core::Schedule::Hybrid, 0.3, "hybrid(30%)"}}) {
        for (bool tags : {false, true}) {
          core::Options opt;
          opt.b = default_b(n);
          opt.layout = lay;
          opt.schedule = sched;
          opt.dratio = d;
          opt.engine = tags ? "locality-tags" : "hybrid";
          Timing t = time_calu(a0, opt, session);
          std::printf("%-8d %-10s %-12s%-10s %-10.2f %-12.4f\n", n,
                      layout::layout_name(lay), base,
                      tags ? "+tags" : "", t.gflops, t.seconds);
          std::fflush(stdout);
        }
      }
    }
  }
  return 0;
}
