// quickstart.cpp — factor a dense matrix with hybrid-scheduled CALU, solve
// a linear system, and verify the backward error.
//
//   ./example_quickstart [n]
#include <cstdio>
#include <cstdlib>

#include "src/calu.h"

int main(int argc, char** argv) {
  using namespace calu;
  const int n = argc > 1 ? std::atoi(argv[1]) : 2000;

  // A random dense system A x = b.
  layout::Matrix a = layout::Matrix::random(n, n, /*seed=*/7);
  layout::Matrix a0 = a;  // keep the original for verification
  layout::Matrix b = layout::Matrix::random(n, 1, /*seed=*/8);

  // CALU with the paper's recommended configuration: block-cyclic layout,
  // static scheduling with a 10% dynamic section, b = 100.  The engine
  // is picked by name (sched::run_engine) and defaults to "hybrid" (set
  // opt.engine to override, e.g. "work-stealing").
  core::Options opt;
  opt.b = 100;
  opt.dratio = 0.10;
  opt.layout = layout::Layout::BlockCyclic;

  core::Factorization f = core::getrf(a, opt);  // a now holds [L\U]
  std::printf("factored %dx%d in %.3f s (%.2f Gflop/s) — %d tasks, "
              "%d of %d panels static\n",
              n, n, f.stats.factor_seconds, f.stats.gflops, f.stats.tasks,
              f.stats.nstatic_panels, f.stats.npanels);
  std::printf("engine [%s] %s\n", opt.resolved_engine().c_str(),
              f.stats.engine.report().c_str());

  // Solve and verify.
  layout::Matrix x = b;
  core::getrs(a, f.ipiv, x);
  const double res = core::solve_residual(a0, x, b);
  std::printf("normalized solve residual ||Ax-b|| / (||A||*||x||+||b||): "
              "%.2e %s\n",
              res, res < 1e-12 ? "(OK)" : "(SUSPICIOUS)");

  // Factorization backward error.
  const double lu_res = blas::lu_residual(
      n, n, a0.data(), a0.ld(), a.data(), a.ld(), f.ipiv.data(),
      static_cast<int>(f.ipiv.size()));
  std::printf("LU backward error ||PA-LU|| / (||A||*n*eps): %.2f %s\n",
              lu_res, lu_res < 100.0 ? "(OK)" : "(SUSPICIOUS)");
  return res < 1e-10 && lu_res < 100.0 ? 0 : 1;
}
