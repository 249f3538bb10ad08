#include "src/core/cholesky.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>

#include "src/blas/blas.h"
#include "src/model/lu_cost.h"
#include "src/sched/dag.h"
#include "src/sched/engine.h"
#include "src/sched/session.h"

namespace calu::core {
namespace {

using layout::BlockRef;

std::uint64_t prio(int j, int k, int rank) {
  return (static_cast<std::uint64_t>(j) << 36) |
         (static_cast<std::uint64_t>(k) << 12) |
         static_cast<std::uint64_t>(rank);
}

double chol_flops(double n) { return n * n * n / 3.0; }

// Kind mapping for trace/kernels: P = POTRF, L = TRSM, U = SYRK, S = GEMM.
sched::TaskGraph build_chol_graph(const layout::Tiling& tl,
                                  const layout::Grid& grid, double dratio) {
  const int nt = tl.mb();
  const int nstatic = std::clamp(
      static_cast<int>(std::floor(nt * (1.0 - dratio))), 0, nt);
  sched::TaskGraph g;
  std::vector<int> potrf_id(nt, -1), trsm_id(nt, -1);
  std::vector<int> syrk_prev(nt, -1);
  std::vector<int> gemm_prev(static_cast<std::size_t>(nt) * nt, -1);
  auto cell = [nt](int I, int J) {
    return static_cast<std::size_t>(I) * nt + J;
  };
  auto owner_of = [&](int I, int J) {
    return J < nstatic ? grid.owner(I, J) : sched::kDynamicOwner;
  };

  for (int k = 0; k < nt; ++k) {
    sched::Task tp;
    tp.kind = trace::Kind::P;
    tp.step = k;
    tp.i = k;
    tp.j = k;
    tp.priority = prio(k, k, 0);
    tp.owner = owner_of(k, k);
    potrf_id[k] = g.add_task(tp);
    if (syrk_prev[k] >= 0) g.add_edge(syrk_prev[k], potrf_id[k]);

    for (int I = k + 1; I < nt; ++I) {
      sched::Task tt;
      tt.kind = trace::Kind::L;
      tt.step = k;
      tt.i = I;
      tt.j = k;
      tt.priority = prio(k, k, 1);
      tt.owner = owner_of(I, k);
      trsm_id[I] = g.add_task(tt);
      g.add_edge(potrf_id[k], trsm_id[I]);
      if (gemm_prev[cell(I, k)] >= 0)
        g.add_edge(gemm_prev[cell(I, k)], trsm_id[I]);
    }
    for (int I = k + 1; I < nt; ++I) {
      // SYRK on the diagonal tile (I, I).
      sched::Task ts;
      ts.kind = trace::Kind::U;
      ts.step = k;
      ts.i = I;
      ts.j = I;
      ts.priority = prio(I, k, 2);
      ts.owner = owner_of(I, I);
      const int sid = g.add_task(ts);
      g.add_edge(trsm_id[I], sid);
      if (syrk_prev[I] >= 0) g.add_edge(syrk_prev[I], sid);
      syrk_prev[I] = sid;
      // GEMMs strictly below the diagonal of column I.
      for (int I2 = I + 1; I2 < nt; ++I2) {
        sched::Task tg;
        tg.kind = trace::Kind::S;
        tg.step = k;
        tg.i = I2;
        tg.j = I;
        tg.priority = prio(I, k, 3);
        tg.owner = owner_of(I2, I);
        const int gid = g.add_task(tg);
        g.add_edge(trsm_id[I2], gid);
        g.add_edge(trsm_id[I], gid);
        if (gemm_prev[cell(I2, I)] >= 0)
          g.add_edge(gemm_prev[cell(I2, I)], gid);
        gemm_prev[cell(I2, I)] = gid;
      }
    }
  }
  g.finalize();
  return g;
}

}  // namespace

struct PotrfJob::Impl {
  layout::PackedMatrix& a;
  sched::TaskGraph graph;
  double plan_seconds = 0.0;
  int nstatic = 0;

  Impl(layout::PackedMatrix& m, const Options& opt) : a(m) {
    const layout::Tiling& tl = a.tiling();
    assert(tl.m == tl.n);
    const auto t0 = std::chrono::steady_clock::now();
    graph = build_chol_graph(tl, a.grid(), opt.resolved_dratio());
    plan_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    nstatic = std::clamp(
        static_cast<int>(std::floor(tl.mb() * (1.0 - opt.resolved_dratio()))),
        0, tl.mb());
  }

  void exec(int id) {
    const sched::Task& t = graph.task(id);
    switch (t.kind) {
      case trace::Kind::P: {  // POTRF(k)
        BlockRef d = a.block(t.step, t.step);
        blas::potrf_recursive(std::min(d.rows, d.cols), d.ptr, d.ld);
        break;
      }
      case trace::Kind::L: {  // TRSM(k, I): L(I,k) = A(I,k) Lkk^{-T}
        BlockRef lkk = a.block(t.step, t.step);
        BlockRef d = a.block(t.i, t.step);
        blas::trsm(blas::Side::Right, blas::UpLo::Lower, blas::Trans::Yes,
                   blas::Diag::NonUnit, d.rows, d.cols, 1.0, lkk.ptr, lkk.ld,
                   d.ptr, d.ld);
        break;
      }
      case trace::Kind::U: {  // SYRK(k, I): A(I,I) -= L(I,k) L(I,k)^T
        BlockRef l = a.block(t.i, t.step);
        BlockRef d = a.block(t.i, t.i);
        blas::syrk_lower(d.rows, l.cols, -1.0, l.ptr, l.ld, 1.0, d.ptr,
                         d.ld);
        break;
      }
      case trace::Kind::S: {  // GEMM(k, I2, I): A(I2,I) -= L(I2,k) L(I,k)^T
        BlockRef l2 = a.block(t.i, t.step);
        BlockRef l1 = a.block(t.j, t.step);
        BlockRef d = a.block(t.i, t.j);
        blas::gemm(blas::Trans::No, blas::Trans::Yes, d.rows, d.cols,
                   l1.cols, -1.0, l2.ptr, l2.ld, l1.ptr, l1.ld, 1.0, d.ptr,
                   d.ld);
        break;
      }
      default:
        assert(false);
    }
  }
};

PotrfJob::PotrfJob(layout::PackedMatrix& a, const Options& opt)
    : impl_(std::make_unique<Impl>(a, opt)) {}

PotrfJob::~PotrfJob() = default;
PotrfJob::PotrfJob(PotrfJob&&) noexcept = default;
PotrfJob& PotrfJob::operator=(PotrfJob&&) noexcept = default;

const sched::TaskGraph& PotrfJob::graph() const { return impl_->graph; }

void PotrfJob::exec(int id, int tid) {
  (void)tid;
  impl_->exec(id);
}

Factorization PotrfJob::finish() {
  Factorization f;
  f.stats.plan_seconds = impl_->plan_seconds;
  f.stats.tasks = impl_->graph.num_tasks();
  f.stats.npanels = impl_->a.tiling().mb();
  f.stats.nstatic_panels = impl_->nstatic;
  return f;
}

Factorization potrf(layout::PackedMatrix& a, const Options& opt,
                    sched::Session& session) {
  PotrfJob job(a, opt);
  std::unique_ptr<noise::Injector> injector;
  sched::RunHooks hooks = run_hooks_from(opt, session.threads(), injector);

  auto body = [&job](int id, int tid) { job.exec(id, tid); };
  const auto t0 = std::chrono::steady_clock::now();
  const sched::EngineStats engine_stats =
      session.run(job.graph(), body, hooks, opt.resolved_engine());
  Factorization f = job.finish();
  f.stats.engine = engine_stats;
  f.stats.factor_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  f.stats.gflops =
      model::gflops(chol_flops(a.tiling().n), f.stats.factor_seconds);
  if (injector) {
    f.stats.noise_delta_max = injector->delta_max();
    f.stats.noise_delta_avg = injector->delta_avg();
  }
  return f;
}

Factorization potrf(layout::PackedMatrix& a, const Options& opt) {
  sched::Session ephemeral(session_options_from(opt));
  return potrf(a, opt, ephemeral);
}

Factorization potrf(layout::Matrix& a, const Options& opt,
                    sched::Session& session) {
  layout::PackedMatrix p =
      layout::PackedMatrix::pack(a, opt.layout, opt.b, opt.resolved_grid(),
                                 owner_runner_from(opt, session.team()));
  Factorization f = potrf(p, opt, session);
  p.unpack(a);
  return f;
}

Factorization potrf(layout::Matrix& a, const Options& opt) {
  sched::Session ephemeral(session_options_from(opt));
  return potrf(a, opt, ephemeral);
}

void potrs(const layout::Matrix& l, layout::Matrix& b) {
  const int n = l.rows();
  assert(l.cols() == n && b.rows() == n);
  blas::trsm(blas::Side::Left, blas::UpLo::Lower, blas::Trans::No,
             blas::Diag::NonUnit, n, b.cols(), 1.0, l.data(), l.ld(),
             b.data(), b.ld());
  blas::trsm(blas::Side::Left, blas::UpLo::Lower, blas::Trans::Yes,
             blas::Diag::NonUnit, n, b.cols(), 1.0, l.data(), l.ld(),
             b.data(), b.ld());
}

double cholesky_residual(const layout::Matrix& a0, const layout::Matrix& l) {
  const int n = a0.rows();
  // R := A0 (lower) - tril(L) * tril(L)^T, symmetrized implicitly by only
  // checking the lower triangle.
  layout::Matrix lt(n, n);
  for (int j = 0; j < n; ++j)
    for (int i = j; i < n; ++i) lt(i, j) = l(i, j);
  layout::Matrix r = a0;
  blas::gemm(blas::Trans::No, blas::Trans::Yes, n, n, n, -1.0, lt.data(),
             lt.ld(), lt.data(), lt.ld(), 1.0, r.data(), r.ld());
  double nr = 0.0;
  for (int j = 0; j < n; ++j)
    for (int i = j; i < n; ++i) nr = std::max(nr, std::fabs(r(i, j)));
  const double na = blas::norm_inf(n, n, a0.data(), a0.ld());
  const double eps = std::numeric_limits<double>::epsilon();
  return na > 0.0 ? nr / (na * n * eps) : nr;
}

layout::Matrix spd_matrix(int n, std::uint64_t seed) {
  layout::Matrix r = layout::Matrix::random(n, n, seed);
  layout::Matrix a(n, n);
  blas::gemm(blas::Trans::No, blas::Trans::Yes, n, n, n, 1.0, r.data(),
             r.ld(), r.data(), r.ld(), 0.0, a.data(), a.ld());
  for (int i = 0; i < n; ++i) a(i, i) += n;
  return a;
}

}  // namespace calu::core
