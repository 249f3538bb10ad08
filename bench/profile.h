// profile.h — shared driver for the timeline-profile figures (1, 4, 14,
// 15): run one traced factorization, print idle statistics and an ASCII
// timeline, and write the paper-style SVG Gantt chart next to the binary.
#pragma once

#include "bench/bench_common.h"

namespace calu::bench {

inline void profile_run(const char* fig, core::Schedule sched, double dratio,
                        layout::Layout lay, const char* svg_name,
                        const char* paper_shape, const char* engine = "") {
  print_banner(fig, "execution timeline profile", paper_shape);
  const int n = full_scale() ? 5000 : 2500;
  const int b = 100;  // the paper's profile setup: n=2500, b=100, 16 cores
  const int threads = intel_threads();
  std::printf("# n=%d b=%d threads=%d schedule=%s(%.0f%% dyn) layout=%s\n",
              n, b, threads, core::schedule_name(sched), dratio * 100,
              layout::layout_name(lay));

  layout::Matrix a0 = layout::Matrix::random(n, n, 42);
  sched::Session session(sched::SessionOptions{threads, true});
  trace::Recorder rec;
  core::Options opt;
  opt.b = b;
  opt.schedule = sched;
  opt.dratio = dratio;
  opt.layout = lay;
  opt.threads = threads;
  opt.recorder = &rec;
  opt.engine = engine;  // "" keeps the hybrid default
  layout::PackedMatrix p =
      layout::PackedMatrix::pack(a0, lay, b, opt.resolved_grid());
  core::Factorization f = core::getrf(p, opt, session);

  const trace::TimelineStats st = trace::analyze(rec);
  // Idle fraction and the static/dynamic split are inside summarize().
  std::printf("engine [%s]\n%s", opt.resolved_engine().c_str(),
              trace::summarize(st, f.stats.engine).c_str());
  std::printf("factor time        : %.4f s (%.2f Gflop/s)\n",
              f.stats.factor_seconds, f.stats.gflops);
  std::printf("90%% threads done by: %.0f%% of makespan\n",
              st.finish_time_fraction(0.9) * 100.0);
  std::printf("50%% threads done by: %.0f%% of makespan\n",
              st.finish_time_fraction(0.5) * 100.0);
  std::printf("\ntimeline (P=panel L=Lfactor U=swap+U S=update .=idle):\n%s",
              trace::ascii_timeline(rec, 100).c_str());
  if (trace::write_svg_timeline(svg_name, rec))
    std::printf("\nSVG timeline written to %s\n", svg_name);
}

}  // namespace calu::bench
