#include "src/core/incpiv.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <memory>
#include <vector>

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

/// Builds the incremental-pivoting DAG (all tasks dynamic) over an
/// nt × nt tile grid.  Kind mapping: P = GETRF, U = GESSM, L = TSTRF,
/// S = SSSSM.  Ids are graph-local and the bodies dispatch on task
/// metadata (step/i/j), never on raw ids, so the graph survives
/// TaskGraph::append's id offsetting and priority re-keying when fused
/// into a multi-job run.
sched::TaskGraph build_incpiv_graph(int nt) {
  sched::TaskGraph g;
  std::vector<int> getrf_id(nt, -1);
  std::vector<int> gessm_id(nt, -1);            // per J at current k
  std::vector<int> tstrf_id(nt, -1);            // per I at current k
  std::vector<int> ssssm_prev(static_cast<std::size_t>(nt) * nt, -1);
  auto cell = [nt](int I, int J) {
    return static_cast<std::size_t>(I) * nt + J;
  };

  for (int k = 0; k < nt; ++k) {
    sched::Task t;
    t.kind = trace::Kind::P;
    t.step = k;
    t.i = k;
    t.j = k;
    t.priority = prio(k, k, 0);
    getrf_id[k] = g.add_task(t);
    if (k > 0) g.add_edge(ssssm_prev[cell(k, k)], getrf_id[k]);

    for (int J = k + 1; J < nt; ++J) {
      sched::Task tg;
      tg.kind = trace::Kind::U;
      tg.step = k;
      tg.i = k;
      tg.j = J;
      tg.priority = prio(J, k, 1);
      gessm_id[J] = g.add_task(tg);
      g.add_edge(getrf_id[k], gessm_id[J]);
      if (k > 0) g.add_edge(ssssm_prev[cell(k, J)], gessm_id[J]);
    }
    for (int I = k + 1; I < nt; ++I) {
      sched::Task tt;
      tt.kind = trace::Kind::L;
      tt.step = k;
      tt.i = I;
      tt.j = k;
      tt.priority = prio(k, k, 2);
      tstrf_id[I] = g.add_task(tt);
      g.add_edge(I == k + 1 ? getrf_id[k] : tstrf_id[I - 1], tstrf_id[I]);
      if (k > 0) g.add_edge(ssssm_prev[cell(I, k)], tstrf_id[I]);
    }
    for (int J = k + 1; J < nt; ++J) {
      int above = gessm_id[J];
      for (int I = k + 1; I < nt; ++I) {
        sched::Task ts;
        ts.kind = trace::Kind::S;
        ts.step = k;
        ts.i = I;
        ts.j = J;
        ts.priority = prio(J, k, 3);
        const int id = g.add_task(ts);
        g.add_edge(tstrf_id[I], id);
        g.add_edge(above, id);  // serializes the column pair chain on A(k,J)
        if (k > 0) g.add_edge(ssssm_prev[cell(I, J)], id);
        above = id;
        ssssm_prev[cell(I, J)] = id;
      }
    }
  }
  g.finalize();
  return g;
}

}  // namespace

IncpivFactor getrf_incpiv(layout::PackedMatrix& a, const Options& opt,
                          sched::Session& session) {
  const layout::Tiling& tl = a.tiling();
  assert(tl.m == tl.n && "incremental pivoting implemented for square A");
  const int nt = tl.mb();

  IncpivFactor f;
  f.a_ = &a;
  f.npanels_ = nt;
  f.tile_piv_.resize(nt);
  f.pair_piv_.resize(static_cast<std::size_t>(nt) * nt);
  f.laux_.resize(static_cast<std::size_t>(nt) * nt);

  const sched::TaskGraph g = build_incpiv_graph(nt);
  f.stats.tasks = g.num_tasks();
  f.stats.npanels = nt;

  // --- Kernel bodies. ---
  auto exec = [&](int id, int tid) {
    (void)tid;
    const sched::Task& t = g.task(id);
    const int k = t.step;
    BlockRef kk_tile = a.block(k, k);
    const int kk = std::min(kk_tile.rows, kk_tile.cols);
    switch (t.kind) {
      case trace::Kind::P: {  // GETRF(k)
        f.tile_piv_[k].resize(kk);
        blas::getf2(kk_tile.rows, kk_tile.cols, kk_tile.ptr, kk_tile.ld,
                    f.tile_piv_[k].data());
        break;
      }
      case trace::Kind::U: {  // GESSM(k, J)
        BlockRef d = a.block(k, t.j);
        for (int i = 0; i < kk; ++i)
          if (f.tile_piv_[k][i] != i)
            blas::swap_rows(d.cols, d.ptr, d.ld, i, f.tile_piv_[k][i]);
        blas::trsm(blas::Side::Left, blas::UpLo::Lower, blas::Trans::No,
                   blas::Diag::Unit, kk, d.cols, 1.0, kk_tile.ptr, kk_tile.ld,
                   d.ptr, d.ld);
        break;
      }
      case trace::Kind::L: {  // TSTRF(k, I)
        BlockRef d = a.block(t.i, k);
        const int width = kk_tile.cols;
        const int rows = kk + d.rows;
        thread_local std::vector<double> w;
        thread_local std::vector<int> piv;
        w.assign(static_cast<std::size_t>(rows) * width, 0.0);
        piv.resize(std::min(rows, width));
        // Stack [upper(Ukk); A(I,k)].
        for (int j = 0; j < width; ++j) {
          for (int i = 0; i <= std::min(j, kk - 1); ++i)
            w[i + static_cast<std::size_t>(j) * rows] =
                kk_tile.ptr[i + static_cast<std::size_t>(j) * kk_tile.ld];
          for (int i = 0; i < d.rows; ++i)
            w[kk + i + static_cast<std::size_t>(j) * rows] =
                d.ptr[i + static_cast<std::size_t>(j) * d.ld];
        }
        blas::getf2(rows, width, w.data(), rows, piv.data());
        // Scatter back: new Ukk upper, L11 multipliers to laux, L21 to the
        // tile.
        auto& laux = f.laux_[f.idx(k, t.i)];
        laux.assign(static_cast<std::size_t>(kk) * kk, 0.0);
        for (int i = 0; i < kk; ++i)
          laux[i + static_cast<std::size_t>(i) * kk] = 1.0;
        for (int j = 0; j < width; ++j) {
          for (int i = 0; i <= std::min(j, kk - 1); ++i)
            kk_tile.ptr[i + static_cast<std::size_t>(j) * kk_tile.ld] =
                w[i + static_cast<std::size_t>(j) * rows];
          for (int i = j + 1; i < kk; ++i)
            laux[i + static_cast<std::size_t>(j) * kk] =
                w[i + static_cast<std::size_t>(j) * rows];
          for (int i = 0; i < d.rows; ++i)
            d.ptr[i + static_cast<std::size_t>(j) * d.ld] =
                w[kk + i + static_cast<std::size_t>(j) * rows];
        }
        f.pair_piv_[f.idx(k, t.i)].assign(piv.begin(), piv.end());
        break;
      }
      case trace::Kind::S: {  // SSSSM(k, I, J)
        BlockRef a1 = a.block(k, t.j);
        BlockRef a2 = a.block(t.i, t.j);
        BlockRef l2 = a.block(t.i, k);
        const auto& piv = f.pair_piv_[f.idx(k, t.i)];
        const auto& laux = f.laux_[f.idx(k, t.i)];
        const int rows = kk + a2.rows;
        const int cols = a1.cols;
        thread_local std::vector<double> v;
        v.resize(static_cast<std::size_t>(rows) * cols);
        for (int j = 0; j < cols; ++j) {
          for (int i = 0; i < kk; ++i)
            v[i + static_cast<std::size_t>(j) * rows] =
                a1.ptr[i + static_cast<std::size_t>(j) * a1.ld];
          for (int i = 0; i < a2.rows; ++i)
            v[kk + i + static_cast<std::size_t>(j) * rows] =
                a2.ptr[i + static_cast<std::size_t>(j) * a2.ld];
        }
        for (std::size_t i = 0; i < piv.size(); ++i)
          if (piv[i] != static_cast<int>(i))
            blas::swap_rows(cols, v.data(), rows, static_cast<int>(i),
                            piv[i]);
        blas::trsm(blas::Side::Left, blas::UpLo::Lower, blas::Trans::No,
                   blas::Diag::Unit, kk, cols, 1.0, laux.data(), kk, v.data(),
                   rows);
        blas::gemm(blas::Trans::No, blas::Trans::No, a2.rows, cols, kk, -1.0,
                   l2.ptr, l2.ld, v.data(), rows, 1.0, v.data() + kk, rows);
        for (int j = 0; j < cols; ++j) {
          for (int i = 0; i < kk; ++i)
            a1.ptr[i + static_cast<std::size_t>(j) * a1.ld] =
                v[i + static_cast<std::size_t>(j) * rows];
          for (int i = 0; i < a2.rows; ++i)
            a2.ptr[i + static_cast<std::size_t>(j) * a2.ld] =
                v[kk + i + static_cast<std::size_t>(j) * rows];
        }
        break;
      }
      default:
        assert(false);
    }
  };

  std::unique_ptr<noise::Injector> injector;
  sched::RunHooks hooks = run_hooks_from(opt, session.threads(), injector);
  // Incremental pivoting's DAG is all-dynamic; under the default hybrid
  // engine the global queue serves it (its static section is simply
  // empty), and any engine can be swapped in via Options.
  const auto t0 = std::chrono::steady_clock::now();
  f.stats.engine = session.run(g, exec, hooks, opt.resolved_engine());
  f.stats.factor_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  f.stats.gflops =
      model::gflops(model::lu_flops(tl.m, tl.n), f.stats.factor_seconds);
  if (injector) {
    f.stats.noise_delta_max = injector->delta_max();
    f.stats.noise_delta_avg = injector->delta_avg();
  }
  return f;
}

void IncpivFactor::solve(layout::Matrix& rhs) const {
  const layout::PackedMatrix& a = *a_;
  const layout::Tiling& tl = a.tiling();
  assert(rhs.rows() == tl.m);
  const int nrhs = rhs.cols();
  double* X = rhs.data();
  const int ldx = rhs.ld();
  const int nt = npanels_;

  // Forward: replay GETRF/GESSM and the pair transforms in factor order.
  for (int k = 0; k < nt; ++k) {
    BlockRef kk_tile = a.block(k, k);
    const int kk = std::min(kk_tile.rows, kk_tile.cols);
    const int r0 = tl.row0(k);
    for (int i = 0; i < kk; ++i)
      if (tile_piv_[k][i] != i)
        blas::swap_rows(nrhs, X, ldx, r0 + i, r0 + tile_piv_[k][i]);
    blas::trsm(blas::Side::Left, blas::UpLo::Lower, blas::Trans::No,
               blas::Diag::Unit, kk, nrhs, 1.0, kk_tile.ptr, kk_tile.ld,
               X + r0, ldx);
    for (int I = k + 1; I < nt; ++I) {
      BlockRef l2 = a.block(I, k);
      const auto& piv = pair_piv_[idx(k, I)];
      const auto& laux = laux_[idx(k, I)];
      const int rows = kk + l2.rows;
      std::vector<double> v(static_cast<std::size_t>(rows) * nrhs);
      const int rI = tl.row0(I);
      for (int j = 0; j < nrhs; ++j) {
        for (int i = 0; i < kk; ++i)
          v[i + static_cast<std::size_t>(j) * rows] =
              X[r0 + i + static_cast<std::size_t>(j) * ldx];
        for (int i = 0; i < l2.rows; ++i)
          v[kk + i + static_cast<std::size_t>(j) * rows] =
              X[rI + i + static_cast<std::size_t>(j) * ldx];
      }
      for (std::size_t i = 0; i < piv.size(); ++i)
        if (piv[i] != static_cast<int>(i))
          blas::swap_rows(nrhs, v.data(), rows, static_cast<int>(i), piv[i]);
      blas::trsm(blas::Side::Left, blas::UpLo::Lower, blas::Trans::No,
                 blas::Diag::Unit, kk, nrhs, 1.0, laux.data(), kk, v.data(),
                 rows);
      blas::gemm(blas::Trans::No, blas::Trans::No, l2.rows, nrhs, kk, -1.0,
                 l2.ptr, l2.ld, v.data(), rows, 1.0, v.data() + kk, rows);
      for (int j = 0; j < nrhs; ++j) {
        for (int i = 0; i < kk; ++i)
          X[r0 + i + static_cast<std::size_t>(j) * ldx] =
              v[i + static_cast<std::size_t>(j) * rows];
        for (int i = 0; i < l2.rows; ++i)
          X[rI + i + static_cast<std::size_t>(j) * ldx] =
              v[kk + i + static_cast<std::size_t>(j) * rows];
      }
    }
  }

  // Backward: block back-substitution with the U tiles.
  for (int k = nt - 1; k >= 0; --k) {
    BlockRef kk_tile = a.block(k, k);
    const int kk = std::min(kk_tile.rows, kk_tile.cols);
    const int r0 = tl.row0(k);
    for (int J = k + 1; J < nt; ++J) {
      BlockRef u = a.block(k, J);
      blas::gemm(blas::Trans::No, blas::Trans::No, kk, nrhs, u.cols, -1.0,
                 u.ptr, u.ld, X + tl.row0(J), ldx, 1.0, X + r0, ldx);
    }
    blas::trsm(blas::Side::Left, blas::UpLo::Upper, blas::Trans::No,
               blas::Diag::NonUnit, kk, nrhs, 1.0, kk_tile.ptr, kk_tile.ld,
               X + r0, ldx);
  }
}

}  // namespace calu::core
