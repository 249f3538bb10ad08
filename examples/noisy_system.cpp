// noisy_system.cpp — robustness to transient OS noise (the paper's core
// motivation, §1/§6): inject seeded daemon-like bursts into the workers and
// compare how static, dynamic, and hybrid scheduling degrade.
//
//   ./example_noisy_system [n] [burst_us]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "src/calu.h"

int main(int argc, char** argv) {
  using namespace calu;
  const int n = argc > 1 ? std::atoi(argv[1]) : 2048;
  const double burst = argc > 2 ? std::atof(argv[2]) : 500.0;
  const int threads = std::min(16, sched::ThreadTeam::hardware_threads());

  layout::Matrix a0 = layout::Matrix::random(n, n, 7);
  sched::Session session(sched::SessionOptions{threads, true});

  noise::NoiseSpec spec;
  spec.prob = 0.4;          // φ: injection probability per task boundary
  spec.mean_us = burst;     // δ burst length
  spec.jitter_us = burst / 3;

  std::printf("n=%d, %d threads, noise bursts ~%.0fus with phi=%.1f\n", n,
              threads, burst, spec.prob);
  {
    // Warm up the team, pages, and clock frequency so the first measured
    // configuration isn't penalized.
    core::Options warm;
    warm.b = 128;
    warm.threads = threads;
    layout::PackedMatrix p = layout::PackedMatrix::pack(
        a0, warm.layout, warm.b, warm.resolved_grid());
    core::getrf(p, warm, session);
  }
  std::printf("%-22s %12s %12s %14s\n", "schedule", "clean(s)", "noisy(s)",
              "slowdown");

  for (auto [d, name] : {std::pair{0.0, "static"},
                         std::pair{0.10, "hybrid(10% dyn)"},
                         std::pair{0.30, "hybrid(30% dyn)"},
                         std::pair{1.0, "dynamic"}}) {
    core::Options opt;
    opt.b = 128;
    opt.threads = threads;
    opt.dratio = d;
    opt.layout = layout::Layout::BlockCyclic;

    auto run = [&](bool noisy) {
      // Median of 5: the effect under study is itself timing noise, so
      // single runs would be meaningless.
      std::vector<double> times;
      for (int r = 0; r < 5; ++r) {
        opt.noise = noisy ? spec : noise::NoiseSpec{};
        opt.noise.seed = 42 + r;
        layout::PackedMatrix p = layout::PackedMatrix::pack(
            a0, opt.layout, opt.b, opt.resolved_grid());
        times.push_back(core::getrf(p, opt, session).stats.factor_seconds);
      }
      std::sort(times.begin(), times.end());
      return times[times.size() / 2];
    };
    const double clean = run(false);
    const double noisy = run(true);
    std::printf("%-22s %12.4f %12.4f %13.1f%%\n", name, clean, noisy,
                (noisy / clean - 1.0) * 100.0);
  }
  std::printf("\nexpectation (paper §6): static degrades by roughly the "
              "max per-core noise — it cannot rebalance; a small dynamic "
              "section absorbs most of it at far lower locality cost than "
              "fully dynamic.\n");
  return 0;
}
