#include "src/trace/timeline.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>

#include "src/sched/engine.h"

namespace calu::trace {

double TimelineStats::threads_finished_by(double time_fraction) const {
  if (threads.empty() || makespan <= 0.0) return 0.0;
  const double cutoff = time_fraction * makespan;
  int done = 0;
  for (const auto& t : threads)
    if (t.last_end <= cutoff) ++done;
  return static_cast<double>(done) / threads.size();
}

double TimelineStats::finish_time_fraction(double thread_fraction) const {
  if (threads.empty() || makespan <= 0.0) return 0.0;
  std::vector<double> ends;
  ends.reserve(threads.size());
  for (const auto& t : threads) ends.push_back(t.last_end);
  std::sort(ends.begin(), ends.end());
  const int need = std::max(
      1, static_cast<int>(std::ceil(thread_fraction * threads.size())));
  return ends[need - 1] / makespan;
}

TimelineStats analyze(const Recorder& rec) {
  TimelineStats s;
  s.makespan = rec.makespan();
  s.threads.resize(rec.threads());
  for (int t = 0; t < rec.threads(); ++t) {
    ThreadStats& ts = s.threads[t];
    for (const Event& e : rec.thread_events(t)) {
      ts.busy += e.t1 - e.t0;
      ts.last_end = std::max(ts.last_end, e.t1);
      ++ts.tasks;
      if (e.dynamic) ++ts.dynamic_tasks;
      if (e.promoted) ++ts.promoted_tasks;
    }
    s.total_promoted += ts.promoted_tasks;
    ts.idle = std::max(0.0, s.makespan - ts.busy);
    s.total_busy += ts.busy;
    s.total_idle += ts.idle;
  }
  const double denom = s.makespan * std::max(1, rec.threads());
  s.idle_fraction = denom > 0.0 ? s.total_idle / denom : 0.0;
  return s;
}

std::string ascii_timeline(const Recorder& rec, int width) {
  const double span = rec.makespan();
  std::string out;
  if (span <= 0.0 || width <= 0) return out;
  for (int t = 0; t < rec.threads(); ++t) {
    // Per bucket, accumulate busy time per kind; pick the dominant kind.
    std::vector<std::array<double, kKindCount>> buckets(
        width, std::array<double, kKindCount>{});
    for (const Event& e : rec.thread_events(t)) {
      const int b0 = std::clamp(static_cast<int>(e.t0 / span * width), 0,
                                width - 1);
      const int b1 = std::clamp(static_cast<int>(e.t1 / span * width), 0,
                                width - 1);
      for (int b = b0; b <= b1; ++b) {
        const double lo = std::max(e.t0, b * span / width);
        const double hi = std::min(e.t1, (b + 1) * span / width);
        if (hi > lo) buckets[b][static_cast<int>(e.kind)] += hi - lo;
      }
    }
    out += "T";
    out += std::to_string(t);
    out += t < 10 ? "  |" : " |";
    for (int b = 0; b < width; ++b) {
      int best = -1;
      double bestv = 0.0;
      for (int k = 0; k < kKindCount; ++k)
        if (buckets[b][k] > bestv) {
          bestv = buckets[b][k];
          best = k;
        }
      // A bucket counts as idle if tasks cover less than half of it.
      if (best < 0 || bestv < 0.5 * span / width)
        out += '.';
      else
        out += kind_name(static_cast<Kind>(best))[0];
    }
    out += "|\n";
  }
  return out;
}

std::string summarize(const TimelineStats& ts,
                      const sched::EngineStats& engine) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "makespan=%.4fs busy=%.4fs idle=%.1f%% threads=%d\n",
                ts.makespan, ts.total_busy, ts.idle_fraction * 100.0,
                static_cast<int>(ts.threads.size()));
  std::string out = buf;
  if (ts.total_promoted > 0) {
    std::snprintf(buf, sizeof(buf),
                  "look-ahead: %d promoted panel tasks served\n",
                  ts.total_promoted);
    out += buf;
  }
  out += "engine: ";
  out += engine.report();
  out += '\n';
  return out;
}

}  // namespace calu::trace
