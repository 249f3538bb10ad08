// Table 1: the design space — data layout x scheduling.  The paper marks
// the cells it explores (BCL and 2l-BL under static/dynamic/hybrid; CM
// under dynamic only); this bench measures every explored cell, plus the
// work-stealing baseline of Section 8 as an extra row.
#include "bench/bench_common.h"

int main() {
  using namespace calu;
  using namespace calu::bench;
  print_banner("Table 1", "design space: layout x scheduling",
               "hybrid dominates its column for BCL/2l-BL; CM is paired "
               "with dynamic only");
  const int n = full_scale() ? 5000 : 2048;
  const int threads = numa_threads();
  std::printf("# n=%d b=%d threads=%d; cells in Gflop/s\n", n, default_b(n),
              threads);

  sched::Session session(sched::SessionOptions{threads, true});
  layout::Matrix a0 = layout::Matrix::random(n, n, 42);

  struct Cell {
    core::Schedule sched;
    double dratio;
    const char* name;
    const char* engine;
  };
  const Cell cells[] = {
      {core::Schedule::Static, 0.0, "static", "hybrid"},
      {core::Schedule::Dynamic, 1.0, "dynamic", "hybrid"},
      {core::Schedule::Hybrid, 0.10, "static(10%dyn)", "hybrid"},
      {core::Schedule::Hybrid, 0.0, "work-steal*", "work-stealing"},
  };
  std::printf("%-22s", "layout\\schedule");
  for (const Cell& c : cells) std::printf("%-16s", c.name);
  std::printf("\n");

  for (layout::Layout lay :
       {layout::Layout::BlockCyclic, layout::Layout::TwoLevelBlock,
        layout::Layout::ColumnMajor}) {
    std::printf("%-22s", layout::layout_name(lay));
    for (const Cell& c : cells) {
      const bool in_paper =
          lay != layout::Layout::ColumnMajor ||
          c.sched == core::Schedule::Dynamic;
      core::Options opt;
      opt.b = default_b(n);
      opt.layout = lay;
      opt.schedule = c.sched;
      opt.dratio = c.dratio;
      opt.engine = c.engine;
      Timing t = time_calu(a0, opt, session);
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.2f%s", t.gflops,
                    in_paper ? "" : "+");
      std::printf("%-16s", buf);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf("\n* work-stealing and '+' cells are beyond-paper ablations "
              "(Section 8 discussion / untested combinations).\n");
  return 0;
}
