// trace.h — per-thread task event recording.
//
// The paper's evaluation leans on execution timelines (Figures 1, 4, 14,
// 15): white gaps between a thread's tasks are idle time.  The Recorder
// stores one event per executed task per thread; the analysis and the
// ASCII/SVG renderers live in timeline.h / svg.h.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace calu::trace {

/// Task kinds, matching the paper's notation (Section 2).  Generic DAG
/// users may use Other.
enum class Kind : std::uint8_t {
  P = 0,      // panel preprocessing (TSLU reduction step)
  L = 1,      // panel L computation
  U = 2,      // right swap + U block
  S = 3,      // trailing-matrix update
  Swap = 4,   // deferred left swaps
  Other = 5,
  PackL = 6,  // pack one L tile for the step's shared gemm operand
  PackU = 7,  // pack one U block-row tile likewise
};

/// Number of Kind values — the size of any per-kind table.
inline constexpr int kKindCount = 8;

const char* kind_name(Kind k);

struct Event {
  Kind kind = Kind::Other;
  std::int32_t step = -1;  // K
  std::int32_t i = -1;     // tile row (or -1)
  std::int32_t j = -1;     // tile col (or -1)
  double t0 = 0.0;         // seconds since run start
  double t1 = 0.0;
  bool dynamic = false;    // executed from the dynamic (global) queue
  /// Served from a look-ahead urgent queue ("priority-lookahead" panel
  /// promotion) — the timeline marks these to show panel overlap.
  bool promoted = false;
};

class Recorder {
 public:
  Recorder() = default;

  void start(int nthreads);
  void stop();  // records the makespan endpoint

  /// Seconds since start().
  double now() const {
    return std::chrono::duration<double>(clock::now() - t0_).count();
  }

  void record(int tid, const Event& e) { events_[tid].push_back(e); }

  bool active() const { return active_; }
  int threads() const { return static_cast<int>(events_.size()); }
  double makespan() const { return makespan_; }
  const std::vector<Event>& thread_events(int tid) const {
    return events_[tid];
  }

 private:
  using clock = std::chrono::steady_clock;
  bool active_ = false;
  clock::time_point t0_{};
  double makespan_ = 0.0;
  std::vector<std::vector<Event>> events_;
};

}  // namespace calu::trace
