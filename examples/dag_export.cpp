// dag_export.cpp — reproduce the paper's Figures 2 and 3: the task
// dependency graph of CALU static/dynamic on a matrix partitioned into 4x4
// blocks, and a step-by-step execution log with P = 4 threads.
//
//   ./dag_export [tiles] [dyn_percent]
//
// Writes calu_dag.dot (render with: dot -Tpng calu_dag.dot -o dag.png) and
// prints which thread executed each task, in order — the exponents of
// Figure 2.  The tile size is the smallest multiple of 8 whose matrix is
// above core::kWholeJobFlops, so the run executes the tiled DAG rather
// than the one-task plan of small jobs.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <vector>

#include "src/calu.h"

int main(int argc, char** argv) {
  using namespace calu;
  const int tiles = argc > 1 ? std::atoi(argv[1]) : 4;
  const double dyn = argc > 2 ? std::atof(argv[2]) / 100.0 : 0.25;
  if (tiles < 1) {
    std::fprintf(stderr, "usage: %s [tiles >= 1] [dyn_percent]\n", argv[0]);
    return 2;
  }
  int b = 8;
  while (core::plan_kind(tiles * b, tiles * b) != core::PlanKind::Tiled) b += 8;
  const int n = tiles * b;

  // Figure 3: the DAG with its static/dynamic split (20% dynamic on a 4x4
  // tile matrix = last panel dynamic).
  layout::Tiling tiling{n, n, b};
  layout::Grid grid{2, 2};  // P = 4 threads
  core::CaluPlan plan = core::build_plan(
      tiling, grid, layout::Layout::BlockCyclic, dyn, /*group_factor=*/1);
  {
    std::ofstream f("calu_dag.dot");
    f << core::plan_to_dot(plan);
  }
  std::printf("Figure 3: task DAG for a %dx%d-tile matrix (n = %d, b = %d), "
              "%d of %d panels static -> calu_dag.dot (%d tasks)\n",
              tiles, tiles, n, b, plan.nstatic, plan.npanels,
              plan.graph.num_tasks());

  // Figure 2: execution log.  Run the real factorization on 4 threads with
  // a tracing recorder and print tasks in start order with their executor.
  layout::Matrix a = layout::Matrix::random(n, n, 7);
  trace::Recorder rec;
  core::Options opt;
  opt.b = b;
  opt.threads = 4;
  opt.pr = 2;
  opt.pc = 2;
  opt.dratio = dyn;
  opt.group_factor = 1;  // run the DAG exported above, task for task
  opt.recorder = &rec;
  const core::Factorization f = core::getrf(a, opt);

  struct Row {
    double t0;
    int tid;
    trace::Event e;
  };
  std::vector<Row> rows;
  for (int t = 0; t < rec.threads(); ++t)
    for (const auto& e : rec.thread_events(t)) rows.push_back({e.t0, t, e});
  std::sort(rows.begin(), rows.end(),
            [](const Row& x, const Row& y) { return x.t0 < y.t0; });

  std::printf("\nFigure 2: execution order of the %s plan (task^thread, "
              "* = pulled from the dynamic queue):\n",
              f.stats.plan == core::PlanKind::Tiled ? "tiled" : "whole-job");
  int col = 0;
  for (const Row& r : rows) {
    std::printf("%s(%d", trace::kind_name(r.e.kind), r.e.step);
    if (r.e.kind == trace::Kind::S || r.e.kind == trace::Kind::L)
      std::printf(",%d", r.e.i);
    if (r.e.j >= 0 && r.e.j != r.e.step) std::printf(",%d", r.e.j);
    std::printf(")^%d%s ", r.tid, r.e.dynamic ? "*" : "");
    if (++col % 8 == 0) std::printf("\n");
  }
  std::printf("\n\ntotal tasks executed: %zu\n", rows.size());
  return 0;
}
