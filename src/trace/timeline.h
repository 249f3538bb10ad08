// timeline.h — analysis and ASCII rendering of recorded traces.
#pragma once

#include <string>
#include <vector>

#include "src/trace/trace.h"

namespace calu::sched {
struct EngineStats;  // src/sched/engine.h (kept forward to avoid a cycle)
}  // namespace calu::sched

namespace calu::trace {

struct ThreadStats {
  double busy = 0.0;       // seconds inside tasks
  double idle = 0.0;       // makespan - busy
  double last_end = 0.0;   // end time of the thread's last task
  int tasks = 0;
  int dynamic_tasks = 0;   // tasks pulled from the global queue
  int promoted_tasks = 0;  // look-ahead promotions served by this thread
};

struct TimelineStats {
  double makespan = 0.0;
  double total_busy = 0.0;
  double total_idle = 0.0;
  double idle_fraction = 0.0;          // total idle / (p * makespan)
  int total_promoted = 0;              // promotion events across threads
  std::vector<ThreadStats> threads;

  /// Fraction of threads whose *last* task ends at or before
  /// `time_fraction * makespan` — the Figure-14 statistic ("90% of threads
  /// become idle after only 60% of the total factorization time").
  double threads_finished_by(double time_fraction) const;

  /// Earliest time fraction at which `thread_fraction` of the threads have
  /// run their final task (inverse of the above).
  double finish_time_fraction(double thread_fraction) const;
};

TimelineStats analyze(const Recorder& rec);

/// Render the trace as an ASCII timeline: one row per thread, one column
/// per time bucket; the busiest kind in a bucket gives the glyph
/// (P/L/U/S/W), '.' = idle.  Matches the paper's profile figures closely
/// enough to eyeball pockets of idle time in a terminal.
std::string ascii_timeline(const Recorder& rec, int width = 100);

/// Multi-line summary combining timeline statistics with merged engine
/// counters (sched::EngineStats::report()) — the shared reporting path for
/// the profile benches and examples.
std::string summarize(const TimelineStats& ts,
                      const sched::EngineStats& engine);

}  // namespace calu::trace
