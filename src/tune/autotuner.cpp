#include "src/tune/autotuner.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/blas/microkernel.h"
#include "src/core/calu.h"
#include "src/layout/matrix.h"
#include "src/model/lu_cost.h"
#include "src/model/theorem1.h"
#include "src/sched/topology.h"

namespace calu::tune {
namespace {

/// The nominal size used when a key carries no problem size (n = 0):
/// resolutions still need a model instance, and a mid-range dense shape
/// keeps the seeded dratio in the paper's regime.
constexpr int kNominalN = 1024;

int key_n(const Key& key) { return key.n > 0 ? key.n : kNominalN; }

/// Theorem-1 ModelParams for one (key, b) pair, flop units.
model::ModelParams model_for(const Key& key, int b, const SeedParams& sp) {
  const int n = key_n(key);
  const int p = std::max(1, key.threads);
  const int nb = (n + b - 1) / b;
  model::ModelParams m;
  m.t1 = model::lu_flops(n, n);
  m.p = p;
  m.delta_max = sp.spread_frac * (m.t1 / p);
  m.delta_avg = 0.0;  // spread_frac is already the max − avg gap
  m.t_critical =
      sp.critical_path_frac * model::calu_critical_path_flops(nb, nb, b);
  // S tasks dominate the count: ~nb^3/3 of them, plus the nb^2 panel/U
  // column tasks.  Each costs a dequeue + dependency decrement.
  const double ntasks =
      static_cast<double>(nb) * nb * nb / 3.0 + static_cast<double>(nb) * nb;
  m.t_overhead = sp.task_overhead_flops * ntasks / p;
  return m;
}

std::vector<double> dratio_candidates(double d_model) {
  std::vector<double> ds{d_model, 0.5 * d_model, d_model + 0.10, 0.10};
  for (double& d : ds) d = std::clamp(d, 0.0, 1.0);
  std::sort(ds.begin(), ds.end());
  ds.erase(std::unique(ds.begin(), ds.end(),
                       [](double a, double b) { return std::abs(a - b) < 1e-3; }),
           ds.end());
  return ds;
}

std::vector<int> b_candidates(int n) {
  std::vector<int> bs;
  for (int b : {64, 96, 128, 192})
    if (2 * b <= n) bs.push_back(b);
  // The bench default (paper's b = 100 regime, power-of-two friendly).
  const int def = std::min(128, std::max(32, n / 16));
  if (std::find(bs.begin(), bs.end(), def) == bs.end() && 2 * def <= n)
    bs.push_back(def);
  if (bs.empty()) bs.push_back(std::max(8, n / 2));  // tiny problems
  std::sort(bs.begin(), bs.end());
  return bs;
}

std::vector<std::string> engine_candidates(const Key& key) {
  if (key.threads <= 1) return {"hybrid"};  // engines coincide at p = 1
  return {"hybrid", "priority-lookahead"};
}

}  // namespace

std::string Key::str() const {
  return "n=" + std::to_string(n) + ";t=" + std::to_string(threads) +
         ";k=" + kernel + ";topo=" + topology;
}

double predicted_cost(const Key& key, const Decision& d,
                      const SeedParams& sp) {
  const model::ModelParams m = model_for(key, d.b, sp);
  const double fs = 1.0 - d.dratio;
  // static_time already includes the Theorem-1 worst case vs the ideal
  // floor; dynamic tasks additionally pay the Section-6 migration cost
  // proportional to the work they move between caches.
  const double migration =
      sp.migration_frac * d.dratio * (m.t1 / std::max(1, m.p));
  return model::static_time(m, fs) + migration;
}

std::vector<Decision> seed_candidates(const Key& key, const SeedParams& sp) {
  std::vector<Decision> out;
  for (const std::string& engine : engine_candidates(key)) {
    const std::vector<int> lookaheads =
        engine == "priority-lookahead" ? std::vector<int>{2, 4}
                                       : std::vector<int>{4};
    for (int b : b_candidates(key_n(key))) {
      const model::ModelParams m = model_for(key, b, sp);
      for (double dr : dratio_candidates(model::min_dynamic_fraction(m))) {
        for (int look : lookaheads) {
          Decision d;
          d.dratio = dr;
          d.b = b;
          d.engine = engine;
          d.lookahead_depth = look;
          d.predicted = predicted_cost(key, d, sp);
          out.push_back(std::move(d));
        }
      }
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Decision& a, const Decision& b) {
                     if (a.predicted != b.predicted)
                       return a.predicted < b.predicted;
                     if (a.engine != b.engine) return a.engine < b.engine;
                     if (a.b != b.b) return a.b < b.b;
                     if (a.dratio != b.dratio) return a.dratio < b.dratio;
                     return a.lookahead_depth < b.lookahead_depth;
                   });
  return out;
}

Autotuner::Autotuner(MeasureFn measure) : measure_(std::move(measure)) {}

Decision Autotuner::resolve(const Key& key) {
  std::lock_guard lk(mu_);
  const std::string id = key.str();
  if (auto it = decisions_.find(id); it != decisions_.end()) {
    ++hits_;
    return it->second;
  }
  const std::vector<Decision> cands = seed_candidates(key, SeedParams{});
  Decision best = cands.front();  // grids are never empty by construction
  if (measure_) {
    const int k = std::min<int>(kTopK, static_cast<int>(cands.size()));
    for (int i = 0; i < k; ++i) {
      const double cost = measure_(key, cands[i]);
      if (i == 0 || cost < best.measured) {
        best = cands[i];
        best.measured = cost;
      }
    }
    ++calibrations_;
  }
  decisions_.emplace(id, best);
  return best;
}

void Autotuner::set_measure(MeasureFn measure) {
  std::lock_guard lk(mu_);
  measure_ = std::move(measure);
}

int Autotuner::calibrations() const {
  std::lock_guard lk(mu_);
  return calibrations_;
}

int Autotuner::memo_hits() const {
  std::lock_guard lk(mu_);
  return hits_;
}

MeasureFn real_measure(int reps) {
  return [reps](const Key& key, const Decision& d) -> double {
    // Calibration cost is bounded: one (or `reps`) real factorization(s)
    // of the keyed size, capped so a huge production shape doesn't turn
    // first-touch tuning into a minutes-long stall — the knobs of a
    // 2048-class run transfer to larger n far better than guesses do.
    const int n = std::min(key.n > 0 ? key.n : 512, 2048);
    core::Options o;
    o.tune = core::TuneMode::Off;  // no re-entry into the tuner
    o.b = std::min(d.b, std::max(1, n));
    o.dratio = d.dratio;
    o.engine = d.engine;
    o.lookahead_depth = d.lookahead_depth;
    o.threads = key.threads;
    o.pin_threads = false;  // calibration must not fight the host mask
    double best = 0.0;
    for (int r = 0; r < std::max(1, reps); ++r) {
      layout::Matrix a = layout::Matrix::random(n, n, 0x7a7e5eedULL + r);
      const core::Factorization f = core::getrf(a, o);
      if (r == 0 || f.stats.factor_seconds < best)
        best = f.stats.factor_seconds;
    }
    return best;
  };
}

Autotuner& global_autotuner() {
  // Leaked on purpose: Options::resolved_*() may run during static
  // teardown of user code, and a destructed tuner there is a crash for
  // zero benefit.
  static Autotuner* tuner = new Autotuner(real_measure());
  return *tuner;
}

Decision decision_for(const core::Options& opt) {
  Key key;
  key.n = opt.tune_n;
  key.threads = opt.resolved_threads();
  key.kernel = blas::active_kernel().name;
  key.topology = sched::system_topology().summary();
  return global_autotuner().resolve(key);
}

}  // namespace calu::tune
