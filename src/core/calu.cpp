// calu.cpp — execution of the CALU plan: task bodies, the schedule
// dispatch, and the user-facing getrf drivers.
//
// The task bodies (Runtime) are templated over the element type: a
// Float32 job runs the identical plan on a converted float copy of the
// packed matrix.  The engines never see the difference — they only move
// task ids — which keeps every scheduler precision-agnostic by
// construction.
#include "src/core/calu.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

#include "src/blas/blas.h"
#include "src/blas/microkernel.h"
#include "src/core/calu_dag.h"
#include "src/core/tslu.h"
#include "src/model/lu_cost.h"
#include "src/sched/session.h"
#include "src/tune/autotuner.h"
#include "src/util/aligned_buffer.h"

namespace calu::core {
namespace {

inline std::size_t pad8(std::size_t v) { return (v + 7) / 8 * 8; }

// Per-thread pack scratch for the pack-per-task (pack_panels off) S path,
// one pair per precision.
template <class T>
util::AlignedBufferT<T>& tl_s_abuf() {
  thread_local util::AlignedBufferT<T> buf;
  return buf;
}

template <class T>
util::AlignedBufferT<T>& tl_s_bbuf() {
  thread_local util::AlignedBufferT<T> buf;
  return buf;
}

// Per-thread column-major scratch for a whole-job task on a tiled layout.
template <class T>
util::AlignedBufferT<T>& tl_whole_buf() {
  thread_local util::AlignedBufferT<T> buf;
  return buf;
}

/// Mutable per-run state: tournament candidates, per-panel swap lists.
/// Distinct tasks touch distinct slots, so no locking is needed beyond the
/// engine's dependency ordering.
template <class T>
class Runtime {
 public:
  Runtime(layout::PackedMatrixT<T>& a, const CaluPlan& plan)
      : a_(a), plan_(plan) {
    cand_.resize(plan.tnodes.size());
    for (std::size_t k = 0; k < plan.tnodes.size(); ++k)
      cand_[k].resize(plan.tnodes[k].size());
    swaps_.resize(plan.npanels);
    if (plan.pack_panels) {
      arenas_.resize(plan.npanels);
      std::vector<int> s_per_step(plan.npanels, 0);
      for (int id = 0; id < plan.graph.num_tasks(); ++id) {
        const sched::Task& t = plan.graph.task(id);
        if (t.kind == trace::Kind::S) ++s_per_step[t.step];
      }
      for (int k = 0; k < plan.npanels; ++k) {
        arenas_[k] = std::make_unique<StepArena>();
        arenas_[k]->s_remaining.store(s_per_step[k],
                                      std::memory_order_relaxed);
      }
    }
  }

  void exec(int id, int tid);

  /// Deferred left swaps (Algorithm 1 line 43), parallel over tile columns.
  void apply_left_swaps(sched::ThreadTeam& team);

  std::vector<int> take_ipiv();

  std::uint64_t pack_tasks() const {
    return pack_tasks_.load(std::memory_order_relaxed);
  }
  std::uint64_t s_operand_packs() const {
    return plan_.pack_panels ? pack_tasks()
                             : s_packs_.load(std::memory_order_relaxed);
  }

 private:
  /// Shared packed operands of one step: every L tile of the panel and
  /// every U tile of the block row, each packed exactly once (by its
  /// pL/pU task) in micro-kernel strip layout.  The buffer is allocated
  /// by the first pack task of the step and freed by the step's last S
  /// task, so live scratch stays proportional to the scheduler's actual
  /// look-ahead depth, not to the matrix.
  struct StepArena {
    util::AlignedBufferT<T> buf;
    std::once_flag once;
    T* lslots = nullptr;
    T* uslots = nullptr;
    std::size_t l_stride = 0, u_stride = 0;
    std::atomic<int> s_remaining{0};
  };

  StepArena& ensure_arena(int k);

  void exec_whole();
  void exec_p(const sched::Task& t);
  void exec_l(const sched::Task& t);
  void exec_u(const sched::Task& t);
  void exec_s(const sched::Task& t);
  void exec_pack_l(const sched::Task& t);
  void exec_pack_u(const sched::Task& t);

  layout::PackedMatrixT<T>& a_;
  const CaluPlan& plan_;
  std::vector<std::vector<CandidatesT<T>>> cand_;
  std::vector<std::vector<int>> swaps_;
  std::vector<std::unique_ptr<StepArena>> arenas_;
  std::atomic<std::uint64_t> pack_tasks_{0};
  std::atomic<std::uint64_t> s_packs_{0};
};

template <class T>
void Runtime<T>::exec(int id, int tid) {
  (void)tid;
  const sched::Task& t = plan_.graph.task(id);
  switch (t.kind) {
    case trace::Kind::P:
      if (plan_.whole_job)
        exec_whole();
      else
        exec_p(t);
      break;
    case trace::Kind::L: exec_l(t); break;
    case trace::Kind::U: exec_u(t); break;
    case trace::Kind::S: exec_s(t); break;
    case trace::Kind::PackL: exec_pack_l(t); break;
    case trace::Kind::PackU: exec_pack_u(t); break;
    default: assert(false);
  }
}

template <class T>
void Runtime<T>::exec_whole() {
  // Recursive GEPP over the whole matrix.  getrf_recursive applies every
  // row swap across full rows (LAPACK getrf), so no deferred left swaps
  // remain for finish().  The drivers pack a whole-job shape column-major
  // (pack_for_plan), which is factored in place; a caller-packed tiled
  // layout is gathered into a column-major scratch and scattered back.
  const layout::Tiling& tl = plan_.tiling;
  const int m = tl.m, n = tl.n;
  std::vector<int> ipiv(std::min(m, n));
  if (a_.layout() == layout::Layout::ColumnMajor) {
    if (!ipiv.empty()) {
      const layout::BlockRefT<T> all = a_.block(0, 0);
      blas::getrf_recursive(m, n, all.ptr, all.ld, ipiv.data());
    }
  } else {
    util::AlignedBufferT<T>& buf = tl_whole_buf<T>();
    buf.reserve(static_cast<std::size_t>(m) * n);
    auto copy_tiles = [&](bool to_tiles) {
      for (int J = 0; J < tl.nb(); ++J)
        for (int I = 0; I < tl.mb(); ++I) {
          const layout::BlockRefT<T> blk = a_.block(I, J);
          for (int j = 0; j < blk.cols; ++j) {
            T* tile = blk.ptr + static_cast<std::size_t>(j) * blk.ld;
            T* dense = buf.data() + tl.row0(I) +
                       static_cast<std::size_t>(tl.col0(J) + j) * m;
            if (to_tiles)
              std::copy_n(dense, blk.rows, tile);
            else
              std::copy_n(tile, blk.rows, dense);
          }
        }
    };
    copy_tiles(false);
    blas::getrf_recursive(m, n, buf.data(), m, ipiv.data());
    copy_tiles(true);
  }
  // Keep the tiled plan's per-panel split of the pivots (take_ipiv).
  for (int k = 0; k < plan_.npanels; ++k) {
    const int lo = tl.row0(k);
    const int hi = std::min(lo + tl.b, static_cast<int>(ipiv.size()));
    swaps_[k].assign(ipiv.begin() + lo, ipiv.begin() + hi);
  }
}

template <class T>
void Runtime<T>::exec_p(const sched::Task& t) {
  const int k = t.step;
  const layout::Tiling& tl = plan_.tiling;
  if (t.aux >= 0) {
    const CaluPlan::TNode& node = plan_.tnodes[k][t.aux];
    if (node.child_a < 0) {
      // Leaf: GEPP over this thread row's tiles of the panel.
      const int pr = plan_.grid.pr;
      cand_[k][t.aux] =
          tslu_leaf(a_, k, k + ((node.thread_row - k) % pr + pr) % pr, pr);
    } else {
      cand_[k][t.aux] =
          tslu_merge(cand_[k][node.child_a], cand_[k][node.child_b]);
      // The children are dead now; release their buffers.
      cand_[k][node.child_a] = CandidatesT<T>{};
      cand_[k][node.child_b] = CandidatesT<T>{};
    }
    return;
  }
  // Finalize: swap the winners into place within the panel column and
  // factor the top tile without pivoting (TSLU second step).
  const CandidatesT<T>& root = cand_[k][plan_.root_node[k]];
  const int row0 = tl.row0(k);
  swaps_[k] = build_swap_list(root.src, row0, root.count);
  const int c0 = tl.col0(k);
  const int c1 = c0 + tl.tile_cols(k);
  for (std::size_t i = 0; i < swaps_[k].size(); ++i)
    if (swaps_[k][i] != row0 + static_cast<int>(i))
      a_.swap_rows_global(c0, c1, row0 + static_cast<int>(i), swaps_[k][i]);
  layout::BlockRefT<T> top = a_.block(k, k);
  blas::getrf_nopiv(top.rows, top.cols, top.ptr, top.ld);
  cand_[k][plan_.root_node[k]] = CandidatesT<T>{};
}

template <class T>
void Runtime<T>::exec_l(const sched::Task& t) {
  // L(I,k) := A(I,k) * Ukk^{-1}.
  layout::BlockRefT<T> top = a_.block(t.step, t.step);
  layout::BlockRefT<T> d = a_.block(t.i, t.step);
  const int kk = std::min(top.rows, top.cols);
  blas::trsm(blas::Side::Right, blas::UpLo::Upper, blas::Trans::No,
             blas::Diag::NonUnit, d.rows, kk, T(1), top.ptr, top.ld, d.ptr,
             d.ld);
}

template <class T>
void Runtime<T>::exec_u(const sched::Task& t) {
  // Right swap of column J by panel k's pivots, then U(k,J) := Lkk^{-1}
  // A(k,J).
  const int k = t.step, J = t.j;
  const layout::Tiling& tl = plan_.tiling;
  const int row0 = tl.row0(k);
  const int c0 = tl.col0(J);
  const int c1 = c0 + tl.tile_cols(J);
  const std::vector<int>& sw = swaps_[k];
  for (std::size_t i = 0; i < sw.size(); ++i)
    if (sw[i] != row0 + static_cast<int>(i))
      a_.swap_rows_global(c0, c1, row0 + static_cast<int>(i), sw[i]);
  layout::BlockRefT<T> top = a_.block(k, k);
  layout::BlockRefT<T> d = a_.block(k, J);
  const int kk = std::min(top.rows, top.cols);
  blas::trsm(blas::Side::Left, blas::UpLo::Lower, blas::Trans::No,
             blas::Diag::Unit, kk, d.cols, T(1), top.ptr, top.ld, d.ptr,
             d.ld);
}

template <class T>
typename Runtime<T>::StepArena& Runtime<T>::ensure_arena(int k) {
  StepArena& ar = *arenas_[k];
  std::call_once(ar.once, [&] {
    const layout::Tiling& tl = plan_.tiling;
    const int kk = std::min(tl.tile_rows(k), tl.tile_cols(k));
    // Uniform slots sized for a full b x kk tile (edge tiles just leave
    // slack); padded to 8 elements so every slot stays 64-byte aligned
    // for doubles and 32-byte for floats (both enough for the kernels).
    ar.l_stride = pad8(blas::packed_a_size<T>(tl.b, kk));
    ar.u_stride = pad8(blas::packed_b_size<T>(kk, tl.b));
    const std::size_t ltiles = tl.mb() - k - 1;
    const std::size_t utiles = tl.nb() - k - 1;
    // NUMA first touch falls out of the allocation discipline here:
    // AlignedBufferT::reserve only calls operator new (no memset), so the
    // arena's pages are not faulted by whichever thread won the
    // call_once race — each slot's pages land on the node of the pL/pU
    // task that first *writes* it, i.e. the owner of that tile's panel
    // column.  Do not "optimize" this into a zero-fill.
    ar.buf.reserve(ltiles * ar.l_stride + utiles * ar.u_stride);
    ar.lslots = ar.buf.data();
    ar.uslots = ar.buf.data() + ltiles * ar.l_stride;
  });
  return ar;
}

template <class T>
void Runtime<T>::exec_pack_l(const sched::Task& t) {
  // Pack finished L tile (I, k) into its arena slot, once per step.
  const int k = t.step, I = t.i;
  StepArena& ar = ensure_arena(k);
  layout::BlockRefT<T> top = a_.block(k, k);
  const int kk = std::min(top.rows, top.cols);
  layout::BlockRefT<T> l = a_.block(I, k);
  blas::gemm_pack_a(blas::Trans::No, l.rows, kk, l.ptr, l.ld,
                    ar.lslots + (I - k - 1) * ar.l_stride);
  pack_tasks_.fetch_add(1, std::memory_order_relaxed);
}

template <class T>
void Runtime<T>::exec_pack_u(const sched::Task& t) {
  // Pack finished U tile (k, J) into its arena slot, once per step.
  const int k = t.step, J = t.j;
  StepArena& ar = ensure_arena(k);
  layout::BlockRefT<T> top = a_.block(k, k);
  const int kk = std::min(top.rows, top.cols);
  layout::BlockRefT<T> u = a_.block(k, J);
  blas::gemm_pack_b(blas::Trans::No, kk, u.cols, u.ptr, u.ld,
                    ar.uslots + (J - k - 1) * ar.u_stride);
  pack_tasks_.fetch_add(1, std::memory_order_relaxed);
}

template <class T>
void Runtime<T>::exec_s(const sched::Task& t) {
  // A(I..,J) -= L(I..,k) * U(k,J), over a group of t.aux owned tiles
  // (one tile unless the static BCL grouping is active).  With
  // pack_panels the operands come pre-packed from the step arena; the
  // fallback packs them per task.  Both run the same register kernels on
  // identically packed data, so the results are bit-identical.
  const int k = t.step, I = t.i, J = t.j, cnt = t.aux;
  layout::BlockRefT<T> top = a_.block(k, k);
  const int kk = std::min(top.rows, top.cols);
  layout::BlockRefT<T> c = a_.column_segment(I, J, cnt);
  if (plan_.pack_panels) {
    StepArena& ar = *arenas_[k];
    const T* upack = ar.uslots + (J - k - 1) * ar.u_stride;
    int rowoff = 0;
    for (int g = 0; g < cnt; ++g) {
      const int Ig = I + g * plan_.grid.pr;
      const int rows = plan_.tiling.tile_rows(Ig);
      blas::gemm_packed(rows, c.cols, kk, T(-1),
                        ar.lslots + (Ig - k - 1) * ar.l_stride, upack,
                        c.ptr + rowoff, c.ld);
      rowoff += rows;
    }
    // Last S task of the step retires the arena.
    if (ar.s_remaining.fetch_sub(1, std::memory_order_acq_rel) == 1)
      ar.buf.release();
  } else {
    layout::BlockRefT<T> u = a_.block(k, J);
    layout::BlockRefT<T> l = a_.column_segment(I, k, cnt);
    util::AlignedBufferT<T>& abuf = tl_s_abuf<T>();
    util::AlignedBufferT<T>& bbuf = tl_s_bbuf<T>();
    abuf.reserve(blas::packed_a_size<T>(l.rows, kk));
    bbuf.reserve(blas::packed_b_size<T>(kk, u.cols));
    blas::gemm_pack_a(blas::Trans::No, l.rows, kk, l.ptr, l.ld, abuf.data());
    blas::gemm_pack_b(blas::Trans::No, kk, u.cols, u.ptr, u.ld, bbuf.data());
    s_packs_.fetch_add(2, std::memory_order_relaxed);
    blas::gemm_packed(c.rows, c.cols, kk, T(-1), abuf.data(), bbuf.data(),
                      c.ptr, c.ld);
  }
}

template <class T>
void Runtime<T>::apply_left_swaps(sched::ThreadTeam& team) {
  const layout::Tiling& tl = plan_.tiling;
  const int npanels = plan_.npanels;
  team.parallel_for(npanels, [&](int J) {
    const int c0 = tl.col0(J);
    const int c1 = c0 + tl.tile_cols(J);
    for (int K = J + 1; K < npanels; ++K) {
      const int row0 = tl.row0(K);
      const std::vector<int>& sw = swaps_[K];
      for (std::size_t i = 0; i < sw.size(); ++i)
        if (sw[i] != row0 + static_cast<int>(i))
          a_.swap_rows_global(c0, c1, row0 + static_cast<int>(i), sw[i]);
    }
  });
}

template <class T>
std::vector<int> Runtime<T>::take_ipiv() {
  std::vector<int> ipiv;
  for (auto& sw : swaps_) ipiv.insert(ipiv.end(), sw.begin(), sw.end());
  return ipiv;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Batch-class jobs cede the priority-lookahead urgent queue: the flag
/// rides through TaskGraph::append verbatim, so a fused run keeps the
/// promotion fast lane exclusive to its Interactive jobs.
void cede_promotion(sched::TaskGraph& g, PriorityClass c) {
  if (c != PriorityClass::Batch) return;
  for (int t = 0; t < g.num_tasks(); ++t) g.task(t).promotable = false;
}

}  // namespace

const char* schedule_name(Schedule s) {
  switch (s) {
    case Schedule::Static: return "static";
    case Schedule::Dynamic: return "dynamic";
    case Schedule::Hybrid: return "hybrid";
  }
  return "?";
}

const char* precision_name(Precision p) {
  switch (p) {
    case Precision::Double: return "fp64";
    case Precision::Float32: return "fp32";
  }
  return "?";
}

const char* priority_class_name(PriorityClass c) {
  switch (c) {
    case PriorityClass::Interactive: return "interactive";
    case PriorityClass::Batch: return "batch";
  }
  return "?";
}

const char* tune_mode_name(TuneMode m) {
  switch (m) {
    case TuneMode::Off: return "off";
    case TuneMode::Auto: return "auto";
  }
  return "?";
}

int Options::resolved_threads() const {
  return threads > 0 ? threads : sched::ThreadTeam::hardware_threads();
}

layout::Grid Options::resolved_grid() const {
  if (pr > 0 && pc > 0) return layout::Grid{pr, pc};
  return layout::Grid::best(resolved_threads());
}

double Options::resolved_dratio() const {
  switch (schedule) {
    case Schedule::Static: return 0.0;
    case Schedule::Dynamic: return 1.0;
    default: break;
  }
  const double d =
      tune != TuneMode::Off ? tune::decision_for(*this).dratio : dratio;
  if (d < 0.0 || d > 1.0) {
    // Out-of-range ratios used to flow into plan construction silently
    // (dratio = 1.5 built a plan with a negative static prefix).  Clamp,
    // and say so once — a hot batch loop resolves this per job.
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true))
      std::fprintf(stderr,
                   "calu::core: Options::dratio %g out of [0, 1]; "
                   "clamping (warned once)\n",
                   d);
  }
  return std::clamp(d, 0.0, 1.0);
}

int Options::resolved_b() const {
  if (tune != TuneMode::Off && tune_n > 0)
    return std::min(tune::decision_for(*this).b, tune_n);
  return b;
}

std::string Options::resolved_engine() const {
  if (!engine.empty()) return engine;
  if (tune != TuneMode::Off) return tune::decision_for(*this).engine;
  return "hybrid";
}

int Options::resolved_lookahead() const {
  if (tune != TuneMode::Off)
    return tune::decision_for(*this).lookahead_depth;
  return lookahead_depth;
}

sched::SessionOptions session_options_from(const Options& opt) {
  return sched::SessionOptions{opt.resolved_threads(), opt.pin_threads};
}

Options with_tune_key(const Options& opt, int m, int n) {
  if (opt.tune == TuneMode::Off || opt.tune_n != 0) return opt;
  Options o = opt;
  o.tune_n = std::min(m, n);
  return o;
}

layout::OwnerRunner owner_runner_from(const Options&,
                                      sched::ThreadTeam& team) {
  if (team.size() <= 1) return {};
  return [&team](int nowners, const std::function<void(int)>& fill) {
    team.run([&](int tid) {
      // owner % p is how the hybrid and look-ahead engines map
      // Task::owner onto a thread, so the pages a thread faults in here
      // belong to the tasks it will pop from its own queue later.
      for (int g = tid; g < nowners; g += team.size()) fill(g);
    });
  };
}

sched::RunHooks run_hooks_from(const Options& opt, int team_size,
                               std::unique_ptr<noise::Injector>& injector) {
  sched::RunHooks hooks;
  hooks.recorder = opt.recorder;
  hooks.lookahead_depth = opt.resolved_lookahead();
  if (opt.noise.enabled()) {
    injector = std::make_unique<noise::Injector>(opt.noise, team_size);
    hooks.injector = injector.get();
  }
  return hooks;
}

PlanKind plan_kind(int m, int n) {
  return model::lu_flops(m, n) <= kWholeJobFlops ? PlanKind::WholeJob
                                                 : PlanKind::Tiled;
}

struct GetrfJob::Impl {
  CaluPlan plan;
  Precision precision;
  // Double jobs run directly on the caller's matrix.  Float32 jobs run on
  // a same-geometry converted copy and write back in finish(); only one
  // of the two runtimes exists.
  layout::PackedMatrix* caller = nullptr;
  layout::PackedMatrixT<float> a32;
  std::unique_ptr<Runtime<double>> rt64;
  std::unique_ptr<Runtime<float>> rt32;
  double plan_seconds = 0.0;
  double flops = 0.0;

  Impl(layout::PackedMatrix& a, const Options& opt)
      : plan(plan_kind(a.tiling().m, a.tiling().n) == PlanKind::WholeJob
                 ? build_whole_job_plan(a.tiling(), a.grid())
                 : build_plan(a.tiling(), a.grid(), a.layout(),
                              opt.resolved_dratio(), opt.group_factor,
                              opt.pack_panels)),
        precision(opt.precision) {
    cede_promotion(plan.graph, opt.priority_class);
    if (precision == Precision::Float32) {
      caller = &a;
      a32 = layout::PackedMatrixT<float>::convert_from(a);
      rt32 = std::make_unique<Runtime<float>>(a32, plan);
    } else {
      rt64 = std::make_unique<Runtime<double>>(a, plan);
    }
  }
};

GetrfJob::GetrfJob(layout::PackedMatrix& a, const Options& opt_in) {
  assert(a.tiling().b == opt_in.b);
  // Tune key from the packed shape, so a job constructed directly (the
  // batch layer, the service) resolves the same tuning decision as the
  // Matrix-level drivers.  The tile size is already fixed by the
  // caller's packing; only dratio/engine/lookahead can still be tuned.
  const Options opt = with_tune_key(opt_in, a.tiling().m, a.tiling().n);
  const auto t0 = std::chrono::steady_clock::now();
  impl_ = std::make_unique<Impl>(a, opt);
  impl_->plan_seconds = seconds_since(t0);
  impl_->flops = model::lu_flops(a.tiling().m, a.tiling().n);
}

GetrfJob::~GetrfJob() = default;
GetrfJob::GetrfJob(GetrfJob&&) noexcept = default;
GetrfJob& GetrfJob::operator=(GetrfJob&&) noexcept = default;

const sched::TaskGraph& GetrfJob::graph() const { return impl_->plan.graph; }

const sched::TaskGraph& GetrfJob::whole_job_graph(PriorityClass c) {
  static const std::array<CaluPlan, 2> plans = [] {
    std::array<CaluPlan, 2> p{build_whole_job_plan({}, {}),
                              build_whole_job_plan({}, {})};
    cede_promotion(p[1].graph, PriorityClass::Batch);
    return p;
  }();
  return plans[c == PriorityClass::Batch].graph;
}

void GetrfJob::exec(int id, int tid) {
  if (impl_->rt32)
    impl_->rt32->exec(id, tid);
  else
    impl_->rt64->exec(id, tid);
}

double GetrfJob::plan_seconds() const { return impl_->plan_seconds; }

double GetrfJob::flops() const { return impl_->flops; }

Factorization GetrfJob::finish_deferred() {
  Factorization f;
  auto fin = [&](auto& rt) {
    f.ipiv = rt.take_ipiv();
    f.stats.pack_tasks = rt.pack_tasks();
    f.stats.s_operand_packs = rt.s_operand_packs();
  };
  if (impl_->rt32) {
    fin(*impl_->rt32);
    impl_->a32.convert_into(*impl_->caller);
  } else {
    fin(*impl_->rt64);
  }
  f.stats.plan_seconds = impl_->plan_seconds;
  f.stats.plan =
      impl_->plan.whole_job ? PlanKind::WholeJob : PlanKind::Tiled;
  f.stats.tasks = impl_->plan.graph.num_tasks();
  f.stats.npanels = impl_->plan.npanels;
  f.stats.nstatic_panels = impl_->plan.nstatic;
  f.stats.precision = impl_->precision;
  f.stats.kernel = blas::active_kernel().name;
  return f;
}

Factorization GetrfJob::finish(sched::ThreadTeam& team) {
  // A Float32 job swaps its float factors before finish_deferred writes
  // them back: swaps commute with the exact float -> double conversion,
  // and this keeps one write-back.
  if (!impl_->plan.whole_job) {
    if (impl_->rt32)
      impl_->rt32->apply_left_swaps(team);
    else
      impl_->rt64->apply_left_swaps(team);
  }
  return finish_deferred();
}

const char* input_defect(const layout::Matrix* a, const layout::Matrix* rhs,
                         const Options& opt) {
  if (a == nullptr) return "null matrix";
  if (rhs != nullptr && a->rows() != a->cols())
    return "a solve needs a square matrix";
  if (rhs != nullptr && rhs->rows() != a->rows())
    return "rhs row count differs from the matrix's";
  if (opt.b < 1) return "tile size b < 1";
  return nullptr;
}

namespace {

/// Runs a prepared job on `session` and finishes it in the requested
/// form; every getrf-family driver ends here, so their Stats agree.
Factorization run_job(layout::PackedMatrix& a, const Options& opt_in,
                      sched::Session& session, bool lapack_form) {
  const Options opt = with_tune_key(opt_in, a.tiling().m, a.tiling().n);
  GetrfJob job(a, opt);
  std::unique_ptr<noise::Injector> injector;
  sched::RunHooks hooks = run_hooks_from(opt, session.threads(), injector);

  auto exec = [&job](int id, int tid) { job.exec(id, tid); };
  const auto t0 = std::chrono::steady_clock::now();
  const sched::EngineStats engine_stats =
      session.run(job.graph(), exec, hooks, opt.resolved_engine());
  Factorization f =
      lapack_form ? job.finish(session.team()) : job.finish_deferred();
  f.stats.engine = engine_stats;
  f.stats.factor_seconds = seconds_since(t0);
  f.stats.gflops = model::gflops(job.flops(), f.stats.factor_seconds);
  if (injector) {
    f.stats.noise_delta_max = injector->delta_max();
    f.stats.noise_delta_avg = injector->delta_avg();
  }
  return f;
}

}  // namespace

Factorization getrf(layout::PackedMatrix& a, const Options& opt,
                    sched::Session& session) {
  return run_job(a, opt, session, /*lapack_form=*/true);
}

Factorization getrf(layout::PackedMatrix& a, const Options& opt) {
  sched::Session ephemeral(session_options_from(opt));
  return getrf(a, opt, ephemeral);
}

layout::PackedMatrix pack_for_plan(const layout::Matrix& a, const Options& opt,
                                   const layout::OwnerRunner& place) {
  if (plan_kind(a.rows(), a.cols()) == PlanKind::WholeJob)
    return layout::PackedMatrix::pack(a, layout::Layout::ColumnMajor, opt.b,
                                      opt.resolved_grid());
  return layout::PackedMatrix::pack(a, opt.layout, opt.b, opt.resolved_grid(),
                                    place);
}

Factorization factor_packed(const layout::Matrix& a, const Options& opt_in,
                            sched::Session& session,
                            layout::PackedMatrix& packed, bool lapack_form) {
  // The Matrix-level drivers own the packing, so they are the one place
  // the tuned tile size can be applied: materialize it into `b` before
  // the pack (GetrfJob's b-match contract then holds by construction).
  Options opt = with_tune_key(opt_in, a.rows(), a.cols());
  opt.b = opt.resolved_b();
  packed = pack_for_plan(a, opt, owner_runner_from(opt, session.team()));
  return run_job(packed, opt, session, lapack_form);
}

Factorization getrf(layout::Matrix& a, const Options& opt,
                    sched::Session& session) {
  if (const char* why = input_defect(&a, nullptr, opt))
    throw std::invalid_argument(std::string("getrf: ") + why);
  layout::PackedMatrix p;
  Factorization f = factor_packed(a, opt, session, p, /*lapack_form=*/true);
  p.unpack(a);
  return f;
}

Factorization getrf(layout::Matrix& a, const Options& opt) {
  sched::Session ephemeral(session_options_from(opt));
  return getrf(a, opt, ephemeral);
}

}  // namespace calu::core
