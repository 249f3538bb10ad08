// solver_refinement.cpp — the library as a linear-system solver: compare
// the backward error of the three pivoting strategies in this repo —
// tournament pivoting (CALU), partial pivoting (getrf_pp, the MKL
// structure), and incremental pivoting (the PLASMA structure) — and show
// iterative refinement cleaning up an ill-conditioned solve.
//
//   ./example_solver_refinement [n]
#include <cstdio>
#include <cstdlib>

#include "src/calu.h"

int main(int argc, char** argv) {
  using namespace calu;
  const int n = argc > 1 ? std::atoi(argv[1]) : 1024;
  const int b = 64;
  const int threads = std::min(8, sched::ThreadTeam::hardware_threads());
  sched::Session session(sched::SessionOptions{threads, false});

  layout::Matrix a0 = layout::Matrix::random(n, n, 7);
  layout::Matrix x_true = layout::Matrix::random(n, 1, 8);
  layout::Matrix rhs(n, 1);
  blas::gemm(blas::Trans::No, blas::Trans::No, n, 1, n, 1.0, a0.data(),
             a0.ld(), x_true.data(), x_true.ld(), 0.0, rhs.data(), rhs.ld());

  std::printf("solving a random %dx%d system with all three pivoting "
              "strategies (%d threads):\n\n", n, n, threads);
  std::printf("%-34s %14s\n", "method", "residual");

  {  // CALU, tournament pivoting.
    core::Options opt;
    opt.b = b;
    opt.threads = threads;
    layout::Matrix lu = a0;
    core::Factorization f = core::getrf(lu, opt);
    layout::Matrix x = rhs;
    core::getrs(lu, f.ipiv, x);
    std::printf("%-34s %14.2e\n", "CALU (tournament pivoting)",
                core::solve_residual(a0, x, rhs));
  }
  {  // Partial pivoting.
    layout::Matrix lu = a0;
    core::Factorization f = core::getrf_pp(lu, b, session.team());
    layout::Matrix x = rhs;
    core::getrs(lu, f.ipiv, x);
    std::printf("%-34s %14.2e\n", "getrf_pp (partial pivoting)",
                core::solve_residual(a0, x, rhs));
  }
  {  // Incremental pivoting.
    layout::PackedMatrix p = layout::PackedMatrix::pack(
        a0, layout::Layout::TwoLevelBlock, b, layout::Grid::best(threads));
    core::IncpivFactor f = core::getrf_incpiv(p, core::Options{}, session);
    layout::Matrix x = rhs;
    f.solve(x);
    std::printf("%-34s %14.2e\n", "incpiv (pairwise pivoting)",
                core::solve_residual(a0, x, rhs));
  }

  {  // SPD path: hybrid-scheduled Cholesky (the Section-9 extension).
    layout::Matrix s = core::spd_matrix(n, 10);
    layout::Matrix s0 = s;
    layout::Matrix xs = layout::Matrix::random(n, 1, 11);
    layout::Matrix bs(n, 1);
    blas::gemm(blas::Trans::No, blas::Trans::No, n, 1, n, 1.0, s0.data(),
               s0.ld(), xs.data(), xs.ld(), 0.0, bs.data(), bs.ld());
    layout::Matrix x = bs;
    core::Options opt;
    opt.b = b;
    opt.threads = threads;
    core::potrf(s, opt);
    core::potrs(s, x);
    std::printf("%-34s %14.2e  (SPD system)\n", "potrf (hybrid Cholesky)",
                core::solve_residual(s0, x, bs));
  }

  // Iterative refinement on an ill-conditioned system.
  std::printf("\nill-conditioned (Hilbert-like) system + refinement:\n");
  const int hn = 48;
  layout::Matrix h(hn, hn);
  for (int j = 0; j < hn; ++j)
    for (int i = 0; i < hn; ++i) h(i, j) = 1.0 / (1.0 + i + j);
  layout::Matrix hb = layout::Matrix::random(hn, 1, 9);
  core::Options opt;
  opt.b = 16;
  opt.threads = threads;
  for (int steps : {0, 1, 3}) {
    opt.max_refine = steps;
    auto res = core::gesv(h, hb, opt);
    std::printf("  refinement steps <= %d: residual %.2e (used %d)\n", steps,
                res.residual, res.refine_steps);
  }
  return 0;
}
