// theorem1.h — the paper's performance model (Section 6).
//
// Theorem 1: with excess work δi forced on core i, the largest static
// fraction fs that still attains the ideal (fully balanced) execution time
// satisfies
//
//     fs <= 1 - (δmax - δavg) / Tp ,      Tp = T1 / p.
//
// Section 6 extends the denominator with the costs a full analysis cannot
// ignore: Tp' = T1/p + TcriticalPath + Tmigration + Toverhead.  These
// functions implement both forms plus the Section-7 exascale projection
// (noise amplification grows δmax - δavg while per-core work stays fixed,
// so the minimum dynamic fraction must grow with p).
#pragma once

#include <vector>

namespace calu::model {

struct ModelParams {
  double t1 = 0.0;         // serial computation time (seconds or flops)
  int p = 1;               // cores
  double delta_max = 0.0;  // max excess work across cores
  double delta_avg = 0.0;  // average excess work across cores
  // Section-6 extensions (0 = the pure Theorem-1 form):
  double t_critical = 0.0;   // communication on the critical path
  double t_migration = 0.0;  // coherence-miss cost of migrating tasks
  double t_overhead = 0.0;   // dequeue & other load-balancing overheads
};

/// Effective parallel time Tp (denominator of the bound).
double parallel_time(const ModelParams& m);

/// Ideal completion time when excess work can be perfectly rebalanced:
/// (T1 + Σδi) / p, using Σδi = p * δavg.
double ideal_time(const ModelParams& m);

/// Worst-case completion time of a fraction-fs-static schedule:
/// max(fs*Tp + δmax, ideal_time) — the tactual of the proof, floored by
/// the perfectly-rebalanced time the dynamic remainder cannot beat.
/// Consequently static_time(m, fs) >= ideal_time(m) for every fs in
/// [0, 1], with equality exactly on fs <= max_static_fraction(m).
double static_time(const ModelParams& m, double fs);

/// Theorem 1 (with extensions): the largest static fraction attaining
/// ideal time, clamped to [0, 1].
double max_static_fraction(const ModelParams& m);

/// 1 - max_static_fraction: the paper's "minimum percentage dynamic".
double min_dynamic_fraction(const ModelParams& m);

struct ProjectionPoint {
  int p = 0;
  double delta_spread = 0.0;  // δmax - δavg at this scale
  double min_dynamic = 0.0;
};

/// Section-7 projection: keep work per core constant (t1 = work_per_core *
/// p) and let the noise spread grow as spread0 * (p / p0)^alpha (noise
/// amplification); report the minimum dynamic fraction at each scale.
std::vector<ProjectionPoint> project_min_dynamic(
    double work_per_core, double spread0, int p0, double alpha,
    const std::vector<int>& scales);

}  // namespace calu::model
