#include "src/model/theorem1.h"

#include <algorithm>
#include <cmath>

namespace calu::model {

double parallel_time(const ModelParams& m) {
  return m.t1 / std::max(1, m.p) + m.t_critical + m.t_migration +
         m.t_overhead;
}

double ideal_time(const ModelParams& m) {
  const int p = std::max(1, m.p);
  return (m.t1 + p * m.delta_avg) / p + m.t_critical + m.t_migration +
         m.t_overhead;
}

double static_time(const ModelParams& m, double fs) {
  // The proof's tactual: the core hit with δmax finishes its static share
  // at fs·Tp + δmax while the others drain the (1−fs) dynamic remainder,
  // which cannot complete before the perfectly-rebalanced floor — so the
  // schedule's completion time is the max of the two.  (Without the
  // floor, fs → 0 would report a schedule faster than ideal, and any
  // ranking of static fractions by this function would chase it.)
  return std::max(fs * parallel_time(m) + m.delta_max, ideal_time(m));
}

double max_static_fraction(const ModelParams& m) {
  const double tp = parallel_time(m);
  if (tp <= 0.0) return 0.0;
  const double fs = 1.0 - (m.delta_max - m.delta_avg) / tp;
  return std::clamp(fs, 0.0, 1.0);
}

double min_dynamic_fraction(const ModelParams& m) {
  return 1.0 - max_static_fraction(m);
}

std::vector<ProjectionPoint> project_min_dynamic(
    double work_per_core, double spread0, int p0, double alpha,
    const std::vector<int>& scales) {
  std::vector<ProjectionPoint> out;
  out.reserve(scales.size());
  for (int p : scales) {
    ModelParams m;
    m.p = p;
    m.t1 = work_per_core * p;  // constant work per core
    const double spread =
        spread0 * std::pow(static_cast<double>(p) / std::max(1, p0), alpha);
    m.delta_max = spread;  // δavg folded into the spread definition
    m.delta_avg = 0.0;
    out.push_back({p, spread, min_dynamic_fraction(m)});
  }
  return out;
}

}  // namespace calu::model
