// bench_common.h — shared harness for the figure/table reproduction
// benches.
//
// Environment knobs (all optional):
//   CALU_BENCH_FULL=1     use paper-scale matrix sizes (minutes per bench)
//   CALU_BENCH_REPS=N     repetitions per configuration (median reported)
//   CALU_BENCH_THREADS=N  cap the "NUMA-class" thread count
//
// Machine mapping (documented in DESIGN.md): the paper uses a 16-core
// Intel Xeon and a 48-core AMD Opteron.  Here "intel-class" = min(16, hw)
// threads and "numa-class" = all hardware threads.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/calu.h"

namespace calu::bench {

inline int env_int(const char* name, int def) {
  const char* v = std::getenv(name);
  return v ? std::atoi(v) : def;
}

inline bool full_scale() { return env_int("CALU_BENCH_FULL", 0) != 0; }
inline int reps() { return std::max(1, env_int("CALU_BENCH_REPS", 2)); }

/// Value of a `--engine=NAME` argument ("" when absent).  The profile and
/// d-ratio sweep drivers accept it so the same figure can be reproduced
/// under any engine (hybrid / work-stealing / priority-lookahead) and
/// compared.
inline std::string engine_flag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--engine=", 0) == 0) return a.substr(9);
  }
  return {};
}

inline int numa_threads() {
  const int hw = sched::ThreadTeam::hardware_threads();
  return std::min(hw, env_int("CALU_BENCH_THREADS", hw));
}
inline int intel_threads() { return std::min(16, numa_threads()); }

/// Sizes for a figure: scaled-down defaults, paper sizes under
/// CALU_BENCH_FULL=1.
inline std::vector<int> sizes(std::vector<int> scaled,
                              std::vector<int> paper) {
  return full_scale() ? paper : scaled;
}

struct Timing {
  double seconds = 0.0;
  double gflops = 0.0;
  core::Stats stats;
  /// Engine counters merged across every rep (the per-rep stats sit in
  /// `stats.engine`); `engine_total.report()` is the bench summary line.
  sched::EngineStats engine_total;
};

/// Median-of-reps CALU factorization.  Packing is redone per rep (fresh
/// data) and excluded from the timing, matching a library whose matrices
/// already live in the target layout.
inline Timing time_calu(const layout::Matrix& a0, core::Options opt,
                        sched::Session& session, int nreps = reps()) {
  opt.threads = session.threads();
  std::vector<Timing> runs;
  sched::EngineStats total;
  for (int r = 0; r < nreps; ++r) {
    layout::PackedMatrix p = layout::PackedMatrix::pack(
        a0, opt.layout, opt.b, opt.resolved_grid());
    core::Factorization f = core::getrf(p, opt, session);
    total.merge(f.stats.engine);
    runs.push_back({f.stats.factor_seconds, f.stats.gflops, f.stats, {}});
  }
  std::sort(runs.begin(), runs.end(), [](const Timing& x, const Timing& y) {
    return x.seconds < y.seconds;
  });
  Timing median = runs[runs.size() / 2];
  median.engine_total = total;
  return median;
}

inline Timing time_getrf_pp(const layout::Matrix& a0, int b,
                            sched::Session& session, int nreps = reps()) {
  std::vector<Timing> runs;
  sched::EngineStats total;
  for (int r = 0; r < nreps; ++r) {
    layout::Matrix a = a0;
    core::Factorization f = core::getrf_pp(a, b, session.team());
    total.merge(f.stats.engine);
    runs.push_back({f.stats.factor_seconds, f.stats.gflops, f.stats, {}});
  }
  std::sort(runs.begin(), runs.end(), [](const Timing& x, const Timing& y) {
    return x.seconds < y.seconds;
  });
  Timing median = runs[runs.size() / 2];
  median.engine_total = total;
  return median;
}

inline Timing time_incpiv(const layout::Matrix& a0, int b,
                          sched::Session& session, int nreps = reps()) {
  std::vector<Timing> runs;
  sched::EngineStats total;
  for (int r = 0; r < nreps; ++r) {
    layout::PackedMatrix p = layout::PackedMatrix::pack(
        a0, layout::Layout::TwoLevelBlock, b,
        layout::Grid::best(session.threads()));
    core::IncpivFactor f = core::getrf_incpiv(p, core::Options{}, session);
    total.merge(f.stats.engine);
    runs.push_back({f.stats.factor_seconds, f.stats.gflops, f.stats, {}});
  }
  std::sort(runs.begin(), runs.end(), [](const Timing& x, const Timing& y) {
    return x.seconds < y.seconds;
  });
  Timing median = runs[runs.size() / 2];
  median.engine_total = total;
  return median;
}

/// Default tile size: the paper uses b = 100; we keep a power-of-two
/// friendly 128 at bench scale (same tile-count regime).
inline int default_b(int n) { return std::min(128, std::max(32, n / 16)); }

inline void print_banner(const char* fig, const char* what,
                         const char* paper_shape) {
  std::printf("# %s — %s\n", fig, what);
  std::printf("# paper result (shape to reproduce): %s\n", paper_shape);
  std::printf("# machine: %d hw threads; intel-class=%d, numa-class=%d; %s\n",
              sched::ThreadTeam::hardware_threads(), intel_threads(),
              numa_threads(),
              full_scale()
                  ? "FULL paper sizes"
                  : "scaled sizes (CALU_BENCH_FULL=1 for paper sizes)");
}

}  // namespace calu::bench
