// calu.h — CALU with hybrid static/dynamic scheduling: the paper's core
// contribution (Algorithms 1 and 2).
//
// One task dependency graph drives every schedule in the Table-1 design
// space.  The first Nstatic = N*(1 - dratio) panels' tasks are owned by
// threads through the 2-D block-cyclic distribution and served from
// per-thread priority queues; tasks of the trailing panels go to a shared
// global queue in DFS order.  Threads always prefer their static queue
// (progress on the critical path, data locality) and fall back to the
// dynamic queue when idle — Algorithm 1's dynamic_tasks().  Static and
// dynamic scheduling are the dratio = 0 / 1 degenerate cases; the
// "work-stealing" engine runs the same graph as the related-work
// baseline.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/layout/grid.h"
#include "src/layout/matrix.h"
#include "src/layout/packed.h"
#include "src/noise/noise.h"
#include "src/sched/engine.h"
#include "src/sched/session.h"
#include "src/sched/thread_team.h"
#include "src/trace/trace.h"

namespace calu::core {

/// Element precision a factorization runs at.  Float32 runs the SAME task
/// graph and engine on a float copy of the packed matrix (the engines are
/// precision-agnostic — they only move task ids); it exists for the
/// mixed-precision solver gesv_mixed, which refines the float factors back
/// to double accuracy.
enum class Precision : std::uint8_t { Double, Float32 };

const char* precision_name(Precision p);

/// Scheduling class for a request inside a fused engine run.  Interactive
/// jobs keep the priority-lookahead engine's urgent-queue promotion for
/// their panel-column tasks; Batch jobs run without promotion, yielding
/// the critical-path fast lane to the interactive traffic sharing the
/// run.  Engines other than priority-lookahead treat both classes alike.
enum class PriorityClass : std::uint8_t { Interactive, Batch };

const char* priority_class_name(PriorityClass c);

/// The shape of a job's task graph.  Tiled is the paper's CALU DAG
/// (core::build_plan).  WholeJob is one dynamic task that factors the
/// entire matrix with recursive GEPP (blas::getrf_recursive), for jobs
/// at or below kWholeJobFlops: a 256x256 job at b = 64 has only four
/// panels to divide, and its tournament, swap and update tasks cost more
/// than the parallelism they buy.  Both shapes run through the same
/// engines, sessions and fused batches.
enum class PlanKind : std::uint8_t { Tiled, WholeJob };

/// The plan-shape crossover: a job with model::lu_flops(m, n) at most
/// this builds a WholeJob plan.  It is the largest flop count at which
/// every cell of the sweep in docs/ARCHITECTURE.md ("Whole-job plans")
/// favoured the one-task plan: lu_flops(256, 256) = 11.18 Mflop, so
/// squares up to n = 256.  At n = 288 a lone 4-thread job at b = 32 ran
/// faster tiled.
inline constexpr double kWholeJobFlops = 11.2e6;

/// The plan-shape rule, in the one place GetrfJob, factor_packed and the
/// fused batch ask it: WholeJob when model::lu_flops(m, n) <=
/// kWholeJobFlops, else Tiled.  It reads only (m, n), never the tile
/// size, threads, engine, layout or precision, so every entry point and
/// engine agrees on a job's plan.
PlanKind plan_kind(int m, int n);

struct Options {
  int b = 100;                // tile size (the paper uses b = 100)
  /// Fraction of panels scheduled dynamically: 0 is fully static, 1
  /// fully dynamic, and the paper's hybrid lies between.
  double dratio = 0.10;
  // Storage of tiled shapes; whole-job shapes run column-major.
  layout::Layout layout = layout::Layout::BlockCyclic;
  int threads = 0;            // 0 = all hardware threads
  int pr = 0, pc = 0;         // thread grid; 0 = near-square auto
  int group_factor = 3;       // k: group k owned tiles per GEMM (BCL static)
  /// Pack each panel's L tiles and U block row once per step (pL/pU DAG
  /// tasks) and feed every S task the shared packed operands — O(nb)
  /// packs per step instead of O(nb^2).  Off: each S task packs its own
  /// operands.  Results are bit-identical either way.
  bool pack_panels = true;
  bool pin_threads = true;
  trace::Recorder* recorder = nullptr;  // optional timeline capture
  noise::NoiseSpec noise{};             // optional transient-load injection
  /// Engine name ("hybrid", "work-stealing" or "priority-lookahead";
  /// sched::run_engine) — the only engine selector.  Empty = "hybrid".
  std::string engine;
  /// "priority-lookahead" window: panel-column tasks within this many
  /// panels of the completion frontier are promoted to the engine's
  /// shared urgent queue.  Other engines ignore it.
  int lookahead_depth = 4;
  /// Iterative-refinement step cap for the solve drivers (gesv and the
  /// batched solve paths).  Formerly a trailing parameter on every gesv
  /// overload; folding it here lets per-job Options carry it through the
  /// batch layer.  0 disables refinement.
  int max_refine = 2;
  /// Factorization element type.  Per-job Options carry it through the
  /// batch layer, so a fused engine run can mix double and float32 jobs.
  Precision precision = Precision::Double;
  /// Urgent-queue eligibility under the priority-lookahead engine; the
  /// async sched::Service maps its two request classes onto this.
  PriorityClass priority_class = PriorityClass::Interactive;

  int resolved_threads() const;
  layout::Grid resolved_grid() const;
  /// `dratio` clamped to [0, 1]; out-of-range values warn once per
  /// process.  A NaN `dratio` throws std::invalid_argument.
  double resolved_dratio() const;
  /// `b`.  No library code calls it; it stays for the benchmark's traced
  /// replay (benchmark/calu_bench.cpp).
  int resolved_b() const;
  /// The engine name actually used: `engine` when set, else "hybrid".
  std::string resolved_engine() const;
};

struct Stats {
  /// Engine run + finish: the deferred left swaps are part of it only
  /// where LAPACK-form factors are returned (getrf, factor-only jobs).
  double factor_seconds = 0.0;
  double plan_seconds = 0.0;    // task-graph construction
  double gflops = 0.0;          // lu_flops / factor_seconds
  sched::EngineStats engine;
  PlanKind plan = PlanKind::Tiled;
  int tasks = 0;
  int npanels = 0;  // the tiling's panel count, whatever the plan kind
  int nstatic_panels = 0;
  /// Operand packs feeding the S-task gemms: pL/pU task executions when
  /// pack_panels is on (O(nb) per step), 2 per S task when off (O(nb^2)).
  std::uint64_t s_operand_packs = 0;
  std::uint64_t pack_tasks = 0;  // pL/pU tasks executed
  double noise_delta_max = 0.0;  // measured δmax/δavg when noise is on
  double noise_delta_avg = 0.0;
  /// Precision the numerics actually ran at and the SIMD kernel variant
  /// they dispatched to — mirrors the "dispatched" stamp the benches put
  /// in BENCH_kernels.json, so traces/results are self-describing.
  Precision precision = Precision::Double;
  std::string kernel;
};

struct Factorization {
  /// Absolute-row swap sequence, LAPACK order: row i was swapped with row
  /// ipiv[i], i ascending.  Length min(m, n).
  std::vector<int> ipiv;
  Stats stats;
};

/// A prepared CALU job: the plan and mutable runtime state of one
/// factorization, with the task graph and task bodies exposed so the
/// batch layer can fuse many jobs into a single engine run
/// (sched::Session::run_fused, src/core/batch.cpp).  getrf() itself is
/// implemented as prepare → run → finish over this class, so fused and
/// sequential execution share every line of numerics and bit-identity
/// between them holds by construction.
class GetrfJob {
 public:
  /// Builds the plan and runtime for `a`, which must have been packed
  /// with opt.b and opt.resolved_grid() and must outlive the job.  The
  /// plan is the tiled CALU DAG, or the one-task whole-job plan when
  /// plan_kind(m, n) says so (Stats::plan says which).  With
  /// opt.precision == Float32 the tasks run on an internally converted
  /// same-geometry float copy, and either finish writes the factors
  /// back into `a` (float -> double conversion is exact, so `a` then
  /// holds the float-accuracy factors bit-for-bit).
  GetrfJob(layout::PackedMatrix& a, const Options& opt);
  ~GetrfJob();
  GetrfJob(GetrfJob&&) noexcept;
  GetrfJob& operator=(GetrfJob&&) noexcept;

  /// The job's finalized task graph.  Ids are job-local: when fused, the
  /// session translates fused ids back before calling exec().
  const sched::TaskGraph& graph() const;

  /// The graph every whole-job plan of class `c` has: one task.  A fused
  /// batch schedules it for a whole-job job before that job is packed,
  /// and prepares the job inside the task.
  static const sched::TaskGraph& whole_job_graph(PriorityClass c);

  /// Executes one task (job-local id).  Thread-safe under the engine's
  /// dependency ordering, like any task body.
  void exec(int id, int tid);

  /// Extracts pivots + plan/task/pack stats and leaves the factors in the
  /// deferred form the engine ran them to: a tiled plan's left swaps
  /// (Algorithm 1, line 43) are not applied, so the L tiles of panel k
  /// carry the swaps of panels <= k only.  The solve drivers substitute
  /// on this form directly (src/core/solve.h).  A whole-job plan's
  /// factors are LAPACK-form already (Stats::plan says which).  A Float32
  /// job writes its factors back into the caller's double matrix.  Call
  /// exactly once, after every task of graph() executed, instead of
  /// finish(team).  Engine counters and wall-clock attribution belong to
  /// the caller that ran the graph.
  Factorization finish_deferred();

  /// finish_deferred() after the deferred left swaps, which run across
  /// `team` (tiled plans only): LAPACK-form factors, as getrf returns
  /// them.  A whole-job plan leaves `team` untouched.
  Factorization finish(sched::ThreadTeam& team);

  double plan_seconds() const;
  double flops() const;  ///< model LU flop count, for gflops attribution

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Factor a packed matrix in place on a caller-provided session: the
/// session's pinned team executes the DAG under the engine named by
/// opt.resolved_engine() (cached in the session), and the run's counters
/// fold into session.totals().  The PackedMatrix must have been packed
/// with opt.b and opt.resolved_grid().  opt.threads does not resize the
/// team (the session owns its lifetime) but still feeds resolved_grid()
/// — pin pr/pc when bit-identity across team sizes matters.
Factorization getrf(layout::PackedMatrix& a, const Options& opt,
                    sched::Session& session);

/// One-shot: an ephemeral session is created for the call (team spawned
/// and torn down).
Factorization getrf(layout::PackedMatrix& a, const Options& opt);

/// Convenience: packs `a` (pack_for_plan), factors, and unpacks the
/// combined L and U factors back into `a` (column-major, LAPACK getrf
/// layout).  A request input_defect rejects throws
/// std::invalid_argument.
Factorization getrf(layout::Matrix& a, const Options& opt);

/// Session variant of the column-major convenience driver.
Factorization getrf(layout::Matrix& a, const Options& opt,
                    sched::Session& session);

/// The one input check of the Matrix-level entry points: why a request
/// on `a` (with right-hand side `rhs`, or none for a factor-only
/// request) cannot run, or nullptr when it can.  Rejected: a null `a`;
/// for a solve, an `a` that is not square or an rhs whose row count
/// differs from a's; opt.b < 1; a NaN opt.dratio.  getrf checks it with
/// rhs = nullptr, gesv / gesv_mixed / batched_run per request, and
/// sched::Service in submit(), so a malformed request throws on the
/// caller before any work instead of failing inside a team or the
/// dispatcher.
const char* input_defect(const layout::Matrix* a, const layout::Matrix* rhs,
                         const Options& opt);

/// Packs `a` (with opt.b and opt.resolved_grid()) for the plan its
/// shape gets: a whole-job shape into one column-major buffer, which its
/// one task factors in place, whatever opt.layout says; a tiled shape
/// into opt.layout, through `place`.
layout::PackedMatrix pack_for_plan(const layout::Matrix& a, const Options& opt,
                                   const layout::OwnerRunner& place = {});

/// The Matrix-level factor step getrf(Matrix&) and the solve drivers
/// share: packs `a` into `packed` (pack_for_plan; a tiled shape through the owner-ordered
/// parallel pack) and factors it on `session`.  `lapack_form` applies the
/// deferred left swaps, as getrf returns them; without them the factors
/// stay in the deferred form the solve substitutes on
/// (GetrfJob::finish_deferred).  `a` is only read.
Factorization factor_packed(const layout::Matrix& a, const Options& opt,
                            sched::Session& session,
                            layout::PackedMatrix& packed, bool lapack_form);

/// `opt` unchanged.  No library code calls it; it stays for the
/// benchmark's traced replay (benchmark/calu_bench.cpp).
Options with_tune_key(const Options& opt, int m, int n);

/// Engine RunHooks from Options — the single source for the Options →
/// hooks wiring every factorization driver (CALU, Cholesky, incpiv)
/// shares, so a new hook field cannot be forgotten in one of them.  When
/// noise is enabled the injector is allocated into `injector`; the caller
/// keeps it alive through the run and reads its delta stats afterwards.
sched::RunHooks run_hooks_from(const Options& opt, int team_size,
                               std::unique_ptr<noise::Injector>& injector);

/// SessionOptions from Options — likewise the single source for the
/// Options → session wiring every one-shot ("ephemeral session, run
/// once") entry point shares.
sched::SessionOptions session_options_from(const Options& opt);

/// The owner-ordered parallel pack for PackedMatrix::pack — owner g
/// fills on team thread g % p, mirroring how the hybrid and look-ahead
/// engines route owned tasks, so each thread first touches the buffers
/// its own tasks will use.  Empty (serial pack) when the team is a
/// single thread; the Options are not read.  It runs a team region, so
/// it must not be used inside one (the fused batch packs without it).
/// The returned runner borrows `team`; use it before the team is torn
/// down.
layout::OwnerRunner owner_runner_from(const Options&,
                                      sched::ThreadTeam& team);

}  // namespace calu::core
