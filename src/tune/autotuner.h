// autotuner.h — model-driven selection of {dratio, b, engine,
// lookahead_depth} per (n, threads, kernel variant, topology).
//
// ROADMAP item 5: the paper's headline result is that the best static
// fraction is machine- and load-dependent (Theorem 1 bounds it by the
// noise spread over T1/p), so hand-set knobs cannot survive deployment.
// The Autotuner turns src/model/theorem1.* into a runtime policy:
//
//   model seed  ->  Theorem 1 + the Section-6 overhead terms rank a small
//                   candidate grid (dratio from min_dynamic_fraction, b
//                   from the task-granularity trade, engine from the
//                   team size);
//   calibrate   ->  the kTopK best-ranked candidates are measured through
//                   an injectable MeasureFn (production: one real small
//                   factorization per candidate; tests: synthetic costs,
//                   zero wall clock);
//   remember    ->  the winner is kept in memory for the life of the
//                   process.  Nothing is written to disk, so each process
//                   pays for the calibration of every key it resolves
//                   (README.md lists the cost per n).
//
// Consumers never talk to this header directly: core::Options grows
// `tune = TuneMode::{Off,Auto}` and its resolved_dratio() /
// resolved_b() / resolved_engine() / resolved_lookahead() consult
// decision_for(), so Session, Service, and batched_run inherit tuned
// choices with zero call-site changes.
#pragma once

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace calu::core {
struct Options;  // calu.h; bridged by decision_for() without a cycle
}

namespace calu::tune {

/// What a tuning decision is keyed by: any change to one of these fields
/// invalidates nothing but its own bucket — a different team size or
/// SIMD variant recalibrates, decisions for other keys stay.
struct Key {
  int n = 0;         ///< problem size (min(m, n)); 0 = size-agnostic
  int threads = 1;   ///< team size the decision applies to
  std::string kernel;    ///< dispatched micro-kernel variant name
  std::string topology;  ///< sched::Topology::summary() shape string

  /// Stable serialization used as the decision map key.
  std::string str() const;
};

/// Theorem-1 / Section-6 model inputs for candidate seeding, all in flop
/// units relative to T1 = lu_flops(n, n).
struct SeedParams {
  /// (δmax − δavg) / (T1/p): the measured noise spread that Theorem 1
  /// turns into a minimum dynamic fraction.  The default models the few
  /// percent of transient OS load the paper's Section 1 motivates with.
  double spread_frac = 0.05;
  /// Section-6 Toverhead: dequeue + dependency bookkeeping per task.
  double task_overhead_flops = 5.0e4;
  /// Section-6 Tmigration: coherence-miss cost of running a task on a
  /// core that does not own its data, paid by the dynamic fraction.
  double migration_frac = 0.03;
  /// Scale on the Section-6 TcriticalPath term (model::lu_cost's
  /// calu_critical_path_flops); 0 drops the term.
  double critical_path_frac = 1.0;
};

/// One resolved knob set for a tuning key.  `measured` is the calibration
/// cost that won (seconds under the real measure function, arbitrary
/// units under an injected one); < 0 means the decision was model-seeded
/// only and never measured.
struct Decision {
  double dratio = 0.10;
  int b = 100;
  std::string engine = "hybrid";
  int lookahead_depth = 4;
  double predicted = 0.0;  ///< model score used for candidate ordering
  double measured = -1.0;
};

/// Candidate cost under the model (arbitrary flop-denominated units;
/// only the ordering matters).  Exposed so tests can assert the seeding
/// is exactly Theorem 1 + overhead terms and nothing else.
double predicted_cost(const Key& key, const Decision& d,
                      const SeedParams& sp);

/// The model-seeded candidate grid for `key`, ordered by predicted_cost
/// ascending (deterministic tie-break on engine/b/dratio).  The first
/// entry is the pure model pick — what TuneMode::Auto degrades to when
/// no measurement is possible.
std::vector<Decision> seed_candidates(const Key& key, const SeedParams& sp);

/// candidate -> cost seam.  Production measures wall clock; unit tests
/// inject synthetic costs so every decision path is deterministic.
using MeasureFn = std::function<double(const Key&, const Decision&)>;

/// Candidates measured per calibration: the model's top kTopK.
inline constexpr int kTopK = 4;

/// The tuner.  Thread-safe: resolve() serializes on an internal mutex
/// (concurrent callers of the same key wait for one calibration instead
/// of racing N).
class Autotuner {
 public:
  explicit Autotuner(MeasureFn measure);

  /// The decision for `key`: the remembered one when this tuner has
  /// resolved the key before, otherwise model seed -> measure the top
  /// kTopK -> remember the cheapest.  With no measure function the
  /// model's first pick is remembered unmeasured.
  Decision resolve(const Key& key);

  /// Swaps the measure function (test seam for the global tuner; also
  /// how the bench lane runs the real calibration with custom reps).
  void set_measure(MeasureFn measure);

  /// Introspection for tests and bench reporting.
  int calibrations() const;  ///< measure-based resolutions so far
  int memo_hits() const;     ///< resolutions served from memory

 private:
  mutable std::mutex mu_;
  MeasureFn measure_;
  std::map<std::string, Decision> decisions_;  ///< by Key::str()
  int calibrations_ = 0;
  int hits_ = 0;
};

/// Process-wide tuner with the real (wall-clock) measure function.
/// Constructed lazily on first use; never destroyed (resolutions may
/// happen during static teardown).
Autotuner& global_autotuner();

/// The production MeasureFn: factors one random n×n matrix (n from the
/// key, capped for sanity) under the candidate's knobs with tune = Off
/// and returns factor_seconds.  Exposed so the bench lane can rebuild
/// the global recipe with its own reps.
MeasureFn real_measure(int reps = 1);

/// Bridges core::Options (TuneMode::Auto) to the global tuner:
/// builds the Key from {tune_n, resolved_threads, active kernel variant,
/// system topology} and resolves it.  Called by the resolved_*()
/// accessors in core/calu.cpp.
Decision decision_for(const core::Options& opt);

}  // namespace calu::tune
