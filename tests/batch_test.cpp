// batch_test.cpp — the session / batched-multi-solve contract.
//
// The solver-service layer promises two things (ISSUE 5 acceptance):
//  1. Bit-identity: N jobs run back-to-back through one persistent
//     sched::Session produce exactly the factors, pivots, and solutions
//     of N one-shot calls — across every engine and both
//     pack_panels modes (the engine-matrix style, extended to sessions).
//  2. Amortization: threads are spawned once per session, asserted by
//     counting ThreadTeam constructions (never by timing).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/batch.h"
#include "src/core/calu.h"
#include "src/core/cholesky.h"
#include "src/core/incpiv.h"
#include "src/core/solve.h"
#include "src/layout/matrix.h"
#include "src/layout/packed.h"
#include "src/sched/engine.h"
#include "src/sched/session.h"
#include "src/sched/thread_team.h"
#include "tests/test_util.h"

namespace calu {
namespace {

using core::Options;
using layout::Matrix;

Options batch_options(const std::string& engine, bool pack) {
  Options o;
  o.b = 48;
  o.threads = 4;
  o.pack_panels = pack;
  o.pin_threads = false;
  o.engine = engine;
  // Pin the grid: the TSLU tournament shape follows the grid, and the
  // bit-identity under test is session-vs-one-shot, not grid choice.
  o.pr = 2;
  o.pc = 2;
  return o;
}

/// Mixed-size job set: two squares, one tall-skinny (edge tiles included).
/// The first job runs the tiled DAG, the other two the whole-job plan.
std::vector<Matrix> mixed_jobs(std::uint64_t seed) {
  std::vector<Matrix> jobs;
  jobs.push_back(Matrix::random(288, 288, seed));
  jobs.push_back(Matrix::random(64, 64, seed + 1));
  jobs.push_back(Matrix::random(120, 56, seed + 2));
  return jobs;
}

/// Builds the BatchJob vector for a set of in-place factor jobs.
std::vector<core::BatchJob> factor_jobs(std::vector<Matrix>& ms,
                                        const Options& opt) {
  std::vector<core::BatchJob> jobs(ms.size());
  for (std::size_t i = 0; i < ms.size(); ++i) {
    jobs[i].a = &ms[i];
    jobs[i].options = opt;
  }
  return jobs;
}

/// Jobs solving as[i] x = bs[i]; gesv semantics leave as[i] untouched.
std::vector<core::BatchJob> solve_jobs(std::vector<Matrix>& as,
                                       const std::vector<Matrix>& bs,
                                       const Options& opt) {
  std::vector<core::BatchJob> jobs = factor_jobs(as, opt);
  for (std::size_t i = 0; i < jobs.size(); ++i) jobs[i].rhs = &bs[i];
  return jobs;
}

// -------------------------------------------------------- bit-identity ---

TEST(BatchedFactor, BitIdenticalToOneShotAcrossEnginesAndPackModes) {
  for (const std::string& engine : sched::engine_names())
    for (bool pack : {true, false}) {
      SCOPED_TRACE(engine + " pack=" + std::to_string(pack));
      const Options opt = batch_options(engine, pack);

      std::vector<Matrix> ref = mixed_jobs(1201);
      std::vector<core::Factorization> ref_f;
      for (Matrix& a : ref) ref_f.push_back(core::getrf(a, opt));

      std::vector<Matrix> batch = mixed_jobs(1201);
      sched::Session session(sched::SessionOptions{4, false});
      std::vector<core::BatchJob> jobs = factor_jobs(batch, opt);
      core::BatchRunResult res =
          core::batched_run(jobs, session, core::BatchMode::Sequential);

      ASSERT_EQ(res.jobs.size(), ref.size());
      test::expect_tiled(res.jobs[0].factorization.stats);
      for (std::size_t i = 0; i < ref.size(); ++i) {
        SCOPED_TRACE("job " + std::to_string(i));
        EXPECT_EQ(res.jobs[i].factorization.ipiv, ref_f[i].ipiv);
        EXPECT_EQ(test::max_abs_diff(batch[i], ref[i]), 0.0);
      }
      EXPECT_EQ(res.stats.dag_runs, ref.size());
    }
}

TEST(BatchedGesv, BitIdenticalToOneShotAcrossEngines) {
  std::vector<Matrix> as;
  as.push_back(Matrix::random(288, 288, 1301));
  as.push_back(Matrix::random(48, 48, 1302));
  as.push_back(Matrix::random(336, 336, 1303));
  std::vector<Matrix> bs;
  bs.push_back(Matrix::random(288, 2, 1304));
  bs.push_back(Matrix::random(48, 1, 1305));
  bs.push_back(Matrix::random(336, 3, 1306));

  for (const std::string& engine : sched::engine_names()) {
    SCOPED_TRACE(engine);
    const Options opt = batch_options(engine, true);

    std::vector<core::SolveResult> ref;
    for (std::size_t i = 0; i < as.size(); ++i)
      ref.push_back(core::gesv(as[i], bs[i], opt));

    sched::Session session(sched::SessionOptions{4, false});
    std::vector<core::BatchJob> jobs = solve_jobs(as, bs, opt);
    core::BatchRunResult res =
        core::batched_run(jobs, session, core::BatchMode::Sequential);

    ASSERT_EQ(res.jobs.size(), as.size());
    test::expect_tiled(res.jobs[0].factorization.stats);
    test::expect_tiled(res.jobs[2].factorization.stats);
    for (std::size_t i = 0; i < as.size(); ++i) {
      SCOPED_TRACE("job " + std::to_string(i));
      EXPECT_EQ(test::max_abs_diff(res.jobs[i].x, ref[i].x), 0.0);
      EXPECT_EQ(res.jobs[i].refine_steps, ref[i].refine_steps);
      EXPECT_LT(res.jobs[i].residual, 1e-13);
    }
  }
}

TEST(Session, CholeskyBitIdenticalToOneShot) {
  const Options opt = batch_options("hybrid", true);
  Matrix a0 = core::spd_matrix(112, 1401);

  Matrix l_ref = a0;
  core::potrf(l_ref, opt);

  sched::Session session(sched::SessionOptions{4, false});
  Matrix l1 = a0, l2 = a0;
  core::potrf(l1, opt, session);
  core::potrf(l2, opt, session);  // second run on the same warm team
  EXPECT_EQ(test::max_abs_diff(l1, l_ref), 0.0);
  EXPECT_EQ(test::max_abs_diff(l2, l_ref), 0.0);
  EXPECT_EQ(session.runs(), 2u);
}

TEST(Session, IncpivBitIdenticalToOneShot) {
  const int n = 96, b = 16;
  const Options opt = batch_options("hybrid", true);
  const Matrix a0 = Matrix::random(n, n, 1501);
  const Matrix rhs0 = Matrix::random(n, 2, 1502);

  layout::PackedMatrix p_ref = layout::PackedMatrix::pack(
      a0, layout::Layout::TwoLevelBlock, b, layout::Grid{2, 2});
  sched::Session ref_session(sched::SessionOptions{4, false});
  core::IncpivFactor f_ref = core::getrf_incpiv(p_ref, opt, ref_session);
  Matrix x_ref = rhs0;
  f_ref.solve(x_ref);

  layout::PackedMatrix p = layout::PackedMatrix::pack(
      a0, layout::Layout::TwoLevelBlock, b, layout::Grid{2, 2});
  sched::Session session(sched::SessionOptions{4, false});
  core::IncpivFactor f = core::getrf_incpiv(p, opt, session);
  Matrix x = rhs0;
  f.solve(x);

  Matrix lu_ref(n, n), lu(n, n);
  p_ref.unpack(lu_ref);
  p.unpack(lu);
  EXPECT_EQ(test::max_abs_diff(lu, lu_ref), 0.0);
  EXPECT_EQ(test::max_abs_diff(x, x_ref), 0.0);
}

// --------------------------------------------------- spawn accounting ---

TEST(Session, ThreadsSpawnOncePerSession) {
  std::vector<Matrix> as;
  as.push_back(Matrix::random(64, 64, 1601));
  as.push_back(Matrix::random(80, 80, 1602));
  as.push_back(Matrix::random(48, 48, 1603));
  std::vector<Matrix> bs;
  bs.push_back(Matrix::random(64, 1, 1604));
  bs.push_back(Matrix::random(80, 1, 1605));
  bs.push_back(Matrix::random(48, 1, 1606));
  const Options opt = batch_options("hybrid", true);

  // Batched on one session: exactly one team construction (the session's),
  // exactly threads-1 worker spawns, no matter how many jobs run.
  const std::uint64_t teams0 = sched::ThreadTeam::teams_constructed();
  const std::uint64_t workers0 = sched::ThreadTeam::workers_spawned();
  {
    sched::Session session(sched::SessionOptions{4, false});
    std::vector<core::BatchJob> jobs = solve_jobs(as, bs, opt);
    core::BatchRunResult res =
        core::batched_run(jobs, session, core::BatchMode::Sequential);
    EXPECT_EQ(res.jobs.size(), 3u);
    EXPECT_EQ(session.runs(), 3u);
  }
  EXPECT_EQ(sched::ThreadTeam::teams_constructed(), teams0 + 1);
  EXPECT_EQ(sched::ThreadTeam::workers_spawned(), workers0 + 3);

  // One-shot calls pay the spawn per job: one team construction each.
  const std::uint64_t teams1 = sched::ThreadTeam::teams_constructed();
  for (std::size_t i = 0; i < as.size(); ++i)
    core::gesv(as[i], bs[i], opt);
  EXPECT_EQ(sched::ThreadTeam::teams_constructed(),
            teams1 + static_cast<std::uint64_t>(as.size()));
}

// ------------------------------------------------------ session state ---

TEST(Session, TotalsAccumulateAcrossRuns) {
  sched::Session session(sched::SessionOptions{4, false});
  const Options opt = batch_options("hybrid", true);
  std::uint64_t tasks = 0;
  for (std::uint64_t r = 1; r <= 3; ++r) {
    Matrix a = Matrix::random(64, 64, 1800 + r);
    core::Factorization f = core::getrf(a, opt, session);
    tasks += static_cast<std::uint64_t>(f.stats.tasks);
    EXPECT_EQ(session.runs(), r);
  }
  const sched::EngineStats& tot = session.totals();
  // Every task of every DAG was served exactly once, from some queue.
  EXPECT_EQ(tot.static_pops + tot.dynamic_pops + tot.steals, tasks);
}

TEST(Session, MixedWorkloadSharesOneTeam) {
  // CALU + Cholesky + incpiv back-to-back on the same session: the
  // whole mixed workload runs on one team and the DAG-run counter sees
  // all three.
  const std::uint64_t teams0 = sched::ThreadTeam::teams_constructed();
  sched::Session session(sched::SessionOptions{4, false});
  const Options opt = batch_options("hybrid", true);

  Matrix a = Matrix::random(288, 288, 1901);
  test::expect_tiled(core::getrf(a, opt, session).stats);

  Matrix spd = core::spd_matrix(64, 1902);
  core::potrf(spd, opt, session);

  const Matrix a0 = Matrix::random(64, 64, 1903);
  layout::PackedMatrix p = layout::PackedMatrix::pack(
      a0, layout::Layout::TwoLevelBlock, 16, layout::Grid{2, 2});
  core::getrf_incpiv(p, opt, session);

  EXPECT_EQ(session.runs(), 3u);
  EXPECT_EQ(sched::ThreadTeam::teams_constructed(), teams0 + 1);
}

// ------------------------------------------------------- fused batches ---

// The tentpole acceptance matrix: a fused submission (one engine run for
// the whole batch) must produce exactly the factors and pivots of the
// sequential mode, for every engine and both pack modes, on
// mixed sizes including a tall-skinny edge-tile job.
TEST(BatchedRun, FusedBitIdenticalToSequentialAcrossEnginesAndPackModes) {
  for (const std::string& engine : sched::engine_names())
    for (bool pack : {true, false}) {
      SCOPED_TRACE(engine + " pack=" + std::to_string(pack));
      const Options opt = batch_options(engine, pack);

      std::vector<Matrix> seq_ms = mixed_jobs(2101);
      std::vector<core::BatchJob> seq_jobs = factor_jobs(seq_ms, opt);
      sched::Session seq_session(sched::SessionOptions{4, false});
      core::BatchRunResult seq = core::batched_run(
          seq_jobs, seq_session, core::BatchMode::Sequential);

      std::vector<Matrix> fus_ms = mixed_jobs(2101);
      std::vector<core::BatchJob> fus_jobs = factor_jobs(fus_ms, opt);
      sched::Session fus_session(sched::SessionOptions{4, false});
      core::BatchRunResult fus =
          core::batched_run(fus_jobs, fus_session, core::BatchMode::Fused);

      EXPECT_EQ(seq.stats.dag_runs, seq_ms.size());
      EXPECT_EQ(fus.stats.dag_runs, 1u);  // the whole batch, one engine run
      ASSERT_EQ(fus.jobs.size(), seq.jobs.size());
      // The set mixes plan shapes: the 288x288 job runs the tiled DAG,
      // the 64x64 job is one whole-job task, in the same fused run.
      test::expect_tiled(fus.jobs[0].factorization.stats);
      EXPECT_EQ(fus.jobs[1].factorization.stats.plan,
                core::PlanKind::WholeJob);
      for (std::size_t i = 0; i < seq_ms.size(); ++i) {
        SCOPED_TRACE("job " + std::to_string(i));
        EXPECT_EQ(fus.jobs[i].factorization.ipiv,
                  seq.jobs[i].factorization.ipiv);
        EXPECT_EQ(test::max_abs_diff(fus_ms[i], seq_ms[i]), 0.0);
        // Per-job attribution split out of the fused run covers every task.
        const auto& eng = fus.jobs[i].factorization.stats.engine;
        EXPECT_EQ(eng.static_pops + eng.dynamic_pops,
                  static_cast<std::uint64_t>(
                      fus.jobs[i].factorization.stats.tasks));
      }
    }
}

TEST(BatchedRun, FusedGesvJobsMatchSequentialAndLeaveInputsUntouched) {
  std::vector<Matrix> as;
  as.push_back(Matrix::random(288, 288, 2201));
  as.push_back(Matrix::random(48, 48, 2202));
  as.push_back(Matrix::random(336, 336, 2203));
  std::vector<Matrix> bs;
  bs.push_back(Matrix::random(288, 2, 2204));
  bs.push_back(Matrix::random(48, 1, 2205));
  bs.push_back(Matrix::random(336, 3, 2206));
  const std::vector<Matrix> as0 = as;  // inputs must come back untouched

  for (const std::string& engine : sched::engine_names()) {
    SCOPED_TRACE(engine);
    auto make_jobs = [&] {
      std::vector<core::BatchJob> jobs(as.size());
      for (std::size_t i = 0; i < as.size(); ++i) {
        jobs[i].a = &as[i];
        jobs[i].rhs = &bs[i];
        jobs[i].options = batch_options(engine, true);
      }
      // Options are per job: the middle job skips refinement entirely.
      jobs[1].options.max_refine = 0;
      return jobs;
    };

    std::vector<core::BatchJob> seq_jobs = make_jobs();
    sched::Session seq_session(sched::SessionOptions{4, false});
    core::BatchRunResult seq = core::batched_run(
        seq_jobs, seq_session, core::BatchMode::Sequential);

    std::vector<core::BatchJob> fus_jobs = make_jobs();
    sched::Session fus_session(sched::SessionOptions{4, false});
    core::BatchRunResult fus =
        core::batched_run(fus_jobs, fus_session, core::BatchMode::Fused);

    ASSERT_EQ(fus.jobs.size(), seq.jobs.size());
    test::expect_tiled(fus.jobs[0].factorization.stats);
    test::expect_tiled(fus.jobs[2].factorization.stats);
    for (std::size_t i = 0; i < as.size(); ++i) {
      SCOPED_TRACE("job " + std::to_string(i));
      EXPECT_EQ(test::max_abs_diff(fus.jobs[i].x, seq.jobs[i].x), 0.0);
      EXPECT_EQ(fus.jobs[i].refine_steps, seq.jobs[i].refine_steps);
      EXPECT_EQ(fus.jobs[i].factorization.ipiv,
                seq.jobs[i].factorization.ipiv);
      EXPECT_EQ(test::max_abs_diff(as[i], as0[i]), 0.0);
    }
    EXPECT_EQ(seq.jobs[1].refine_steps, 0);  // max_refine=0 respected
  }
}

TEST(BatchedRun, FusedRunCarriesMixedPrecisionJobs) {
  // One fused engine run interleaving a double job, a float32 solve job
  // (full gesv_mixed epilogue), and a float32 factor-only job.  The mixed
  // solve must land at double accuracy without fallback; fused and
  // sequential must agree bit-for-bit, precision stamps included.
  std::vector<Matrix> as;
  as.push_back(Matrix::random(288, 288, 2301));
  as.push_back(Matrix::random(64, 64, 2302));
  std::vector<Matrix> bs;
  bs.push_back(Matrix::random(288, 1, 2303));
  bs.push_back(Matrix::random(64, 2, 2304));
  Matrix factor_only = Matrix::random(80, 80, 2305);

  auto make_jobs = [&](std::vector<Matrix>& fo) {
    std::vector<core::BatchJob> jobs(3);
    jobs[0].a = &as[0];
    jobs[0].rhs = &bs[0];
    jobs[0].options = batch_options("hybrid", true);
    jobs[1].a = &as[1];
    jobs[1].rhs = &bs[1];
    jobs[1].options = batch_options("hybrid", true);
    jobs[1].options.precision = core::Precision::Float32;
    jobs[1].options.max_refine = 8;
    jobs[2].a = &fo[0];
    jobs[2].options = batch_options("hybrid", true);
    jobs[2].options.precision = core::Precision::Float32;
    return jobs;
  };

  std::vector<Matrix> seq_fo{factor_only}, fus_fo{factor_only};
  std::vector<core::BatchJob> seq_jobs = make_jobs(seq_fo);
  sched::Session seq_session(sched::SessionOptions{4, false});
  core::BatchRunResult seq =
      core::batched_run(seq_jobs, seq_session, core::BatchMode::Sequential);

  std::vector<core::BatchJob> fus_jobs = make_jobs(fus_fo);
  sched::Session fus_session(sched::SessionOptions{4, false});
  core::BatchRunResult fus =
      core::batched_run(fus_jobs, fus_session, core::BatchMode::Fused);

  for (core::BatchRunResult* r : {&seq, &fus}) {
    test::expect_tiled(r->jobs[0].factorization.stats);
    EXPECT_EQ(r->jobs[0].factorization.stats.precision,
              core::Precision::Double);
    EXPECT_EQ(r->jobs[1].factorization.stats.precision,
              core::Precision::Float32);
    EXPECT_EQ(r->jobs[2].factorization.stats.precision,
              core::Precision::Float32);
    EXPECT_LT(r->jobs[0].residual, 1e-13);
    EXPECT_LT(r->jobs[1].residual, 1e-13);  // refined to double accuracy
    EXPECT_FALSE(r->jobs[1].used_fallback);
    EXPECT_GE(r->jobs[1].refine_steps, 1);
  }
  EXPECT_EQ(test::max_abs_diff(fus.jobs[0].x, seq.jobs[0].x), 0.0);
  EXPECT_EQ(test::max_abs_diff(fus.jobs[1].x, seq.jobs[1].x), 0.0);
  EXPECT_EQ(fus.jobs[1].refine_steps, seq.jobs[1].refine_steps);
  // Factor-only float job: same float-accuracy factors either way.
  EXPECT_EQ(test::max_abs_diff(seq_fo[0], fus_fo[0]), 0.0);
  EXPECT_EQ(fus.jobs[2].factorization.ipiv, seq.jobs[2].factorization.ipiv);
}

TEST(BatchedRun, FusedFloat32FallbackMatchesSequential) {
  // A Float32 solve job whose float factors are rejected is re-solved in
  // double after the fused run's parallel epilogue (the re-solve needs
  // the session).  It must match gesv_mixed's sequential result, and the
  // healthy jobs beside it must be unaffected.
  const int n = 24;
  Matrix hilbert(n, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) hilbert(i, j) = 1.0 / (1.0 + i + j);
  std::vector<Matrix> as{Matrix::random(64, 64, 2311), hilbert,
                         Matrix::random(288, 288, 2312)};
  std::vector<Matrix> bs{Matrix::random(64, 1, 2313),
                         Matrix::random(n, 1, 2314),
                         Matrix::random(288, 1, 2315)};
  std::vector<core::BatchJob> make =
      solve_jobs(as, bs, batch_options("hybrid", true));
  for (core::BatchJob& job : make) {
    job.options.precision = core::Precision::Float32;
    job.options.max_refine = 5;
  }
  std::vector<core::BatchJob> seq_jobs = make, fus_jobs = make;
  sched::Session session(sched::SessionOptions{4, false});
  core::BatchRunResult seq =
      core::batched_run(seq_jobs, session, core::BatchMode::Sequential);
  core::BatchRunResult fus =
      core::batched_run(fus_jobs, session, core::BatchMode::Fused);
  test::expect_tiled(fus.jobs[2].factorization.stats);
  for (std::size_t i = 0; i < as.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    EXPECT_EQ(fus.jobs[i].used_fallback, i == 1);
    EXPECT_EQ(fus.jobs[i].used_fallback, seq.jobs[i].used_fallback);
    EXPECT_EQ(test::max_abs_diff(fus.jobs[i].x, seq.jobs[i].x), 0.0);
    EXPECT_EQ(fus.jobs[i].refine_steps, seq.jobs[i].refine_steps);
    EXPECT_EQ(fus.jobs[i].factorization.stats.precision,
              seq.jobs[i].factorization.stats.precision);
    EXPECT_LT(fus.jobs[i].residual, 1e-10);
  }
}

TEST(BatchedRun, WholeJobJobsRunInsideTheEngineRunAlone) {
  // A whole-job job packs, factors and solves inside its one task, so a
  // fused batch of them takes one team region: the engine run.  Tiled
  // jobs add a prologue and an epilogue region, and a lone small gesv
  // packs column-major, with no owner-runner region.  Regions are
  // counted, not timed, so this holds on any host.
  sched::Session session(sched::SessionOptions{2, false});
  const sched::ThreadTeam& team = session.team();
  Options opt;
  opt.b = 96;
  opt.threads = 2;
  opt.pin_threads = false;
  auto regions_of = [&](const std::function<void()>& call) {
    const std::uint32_t before = team.regions();
    call();
    return team.regions() - before;
  };
  auto solve_batch = [&](std::vector<Matrix>& as, std::vector<Matrix>& bs) {
    std::vector<core::BatchJob> jobs = solve_jobs(as, bs, opt);
    const core::BatchRunResult res =
        core::batched_run(jobs, session, core::BatchMode::Fused);
    for (const core::BatchJobResult& j : res.jobs) EXPECT_LT(j.residual, 1e-13);
  };

  std::vector<Matrix> as, bs;
  for (int i = 0; i < 64; ++i) {
    as.push_back(Matrix::diag_dominant(64, 2500 + i));
    bs.push_back(Matrix::random(64, 1, 2600 + i));
  }
  ASSERT_EQ(core::plan_kind(64, 64), core::PlanKind::WholeJob);
  EXPECT_EQ(regions_of([&] { solve_batch(as, bs); }), 1u);

  std::vector<Matrix> mixed_as(as.begin(), as.begin() + 4);
  std::vector<Matrix> mixed_bs(bs.begin(), bs.begin() + 4);
  for (int i = 0; i < 2; ++i) {
    mixed_as.push_back(Matrix::diag_dominant(288, 2700 + i));
    mixed_bs.push_back(Matrix::random(288, 1, 2710 + i));
  }
  ASSERT_EQ(core::plan_kind(288, 288), core::PlanKind::Tiled);
  EXPECT_EQ(regions_of([&] { solve_batch(mixed_as, mixed_bs); }), 3u);

  EXPECT_EQ(regions_of([&] { core::gesv(as[0], bs[0], opt, session); }), 1u);
}

TEST(BatchedRun, MalformedJobsAreRejectedBeforeAnyWork) {
  // A malformed job between two good ones: batched_run must throw naming
  // it before packing or running anything, in either mode — no callback
  // fires, no engine runs, and the good jobs' matrices stay untouched.
  Matrix tall = Matrix::random(48, 40, 2501);
  const Matrix rhs48 = Matrix::random(48, 1, 2502);
  const Matrix rhs40 = Matrix::random(40, 1, 2503);
  const struct {
    const char* what;
    std::function<void(core::BatchJob&)> spoil;
  } cases[] = {
      {"null matrix", [](core::BatchJob& j) { j.a = nullptr; }},
      {"non-square solve",
       [&](core::BatchJob& j) {
         j.a = &tall;
         j.rhs = &rhs48;
       }},
      {"rhs row mismatch", [&](core::BatchJob& j) { j.rhs = &rhs40; }},
      {"tile size 0", [](core::BatchJob& j) { j.options.b = 0; }},
      {"NaN dratio",
       [](core::BatchJob& j) {
         j.options.dratio = std::numeric_limits<double>::quiet_NaN();
       }},
  };
  for (core::BatchMode mode :
       {core::BatchMode::Fused, core::BatchMode::Sequential})
    for (const auto& c : cases) {
      const char* mode_name =
          mode == core::BatchMode::Fused ? " fused" : " sequential";
      SCOPED_TRACE(std::string(c.what) + mode_name);
      std::vector<Matrix> ms = mixed_jobs(2504);
      const std::vector<Matrix> ms0 = ms;
      std::vector<core::BatchJob> jobs =
          factor_jobs(ms, batch_options("hybrid", true));
      std::atomic<int> fired{0};
      for (core::BatchJob& job : jobs)
        job.on_complete = [&fired](int) { fired.fetch_add(1); };
      c.spoil(jobs[1]);
      sched::Session session(sched::SessionOptions{4, false});
      try {
        core::batched_run(jobs, session, mode);
        ADD_FAILURE() << "malformed job accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("job 1"), std::string::npos)
            << e.what();
      }
      EXPECT_EQ(fired.load(), 0);
      EXPECT_EQ(session.runs(), 0u);
      for (std::size_t i = 0; i < ms.size(); ++i)
        EXPECT_EQ(test::max_abs_diff(ms[i], ms0[i]), 0.0) << "job " << i;
    }
}

TEST(BatchedRun, CompletionCallbacksFireOncePerJob) {
  const Options opt = batch_options("hybrid", true);

  // Fused: callbacks fire from worker threads as each job's DAG retires —
  // exactly once per job, and the recorded order must match the result's
  // completion_order (a permutation of the job indices).
  std::vector<Matrix> ms = mixed_jobs(2301);
  std::vector<core::BatchJob> jobs = factor_jobs(ms, opt);
  std::vector<std::atomic<int>> fired(jobs.size());
  for (auto& f : fired) f.store(0);
  std::vector<int> seen;
  std::mutex mu;
  for (std::size_t i = 0; i < jobs.size(); ++i)
    jobs[i].on_complete = [&, i](int job) {
      EXPECT_EQ(job, static_cast<int>(i));
      fired[i].fetch_add(1);
      std::lock_guard<std::mutex> lk(mu);
      seen.push_back(job);
    };
  sched::Session session(sched::SessionOptions{4, false});
  core::BatchRunResult res =
      core::batched_run(jobs, session, core::BatchMode::Fused);
  for (auto& f : fired) EXPECT_EQ(f.load(), 1);
  EXPECT_EQ(seen, res.completion_order);
  std::vector<int> sorted = res.completion_order;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2}));
  for (const core::BatchJobResult& j : res.jobs)
    EXPECT_GT(j.completed_at, 0.0);

  // Sequential: caller thread, submission order.
  std::vector<Matrix> ms2 = mixed_jobs(2301);
  std::vector<core::BatchJob> jobs2 = factor_jobs(ms2, opt);
  std::vector<int> seq_seen;
  for (std::size_t i = 0; i < jobs2.size(); ++i)
    jobs2[i].on_complete = [&seq_seen](int job) { seq_seen.push_back(job); };
  core::BatchRunResult res2 =
      core::batched_run(jobs2, session, core::BatchMode::Sequential);
  EXPECT_EQ(seq_seen, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(res2.completion_order, seq_seen);
}

TEST(BatchedRun, FusedRejectsMixedEnginesSequentialAcceptsThem) {
  std::vector<Matrix> ms = mixed_jobs(2401);
  std::vector<core::BatchJob> jobs =
      factor_jobs(ms, batch_options("hybrid", true));
  jobs[1].options.engine = "work-stealing";

  sched::Session session(sched::SessionOptions{4, false});
  EXPECT_THROW(core::batched_run(jobs, session, core::BatchMode::Fused),
               std::invalid_argument);

  // Sequential mode runs each job on its own engine — no constraint.
  std::vector<Matrix> ref = mixed_jobs(2401);
  core::Factorization f0 = core::getrf(ref[1], jobs[1].options);
  core::BatchRunResult res =
      core::batched_run(jobs, session, core::BatchMode::Sequential);
  EXPECT_EQ(res.jobs[1].factorization.ipiv, f0.ipiv);
  EXPECT_EQ(test::max_abs_diff(ms[1], ref[1]), 0.0);
}

TEST(BatchedRun, EmptyBatchIsANoOp) {
  sched::Session session(sched::SessionOptions{2, false});
  std::vector<core::BatchJob> jobs;
  core::BatchRunResult res =
      core::batched_run(jobs, session, core::BatchMode::Fused);
  EXPECT_TRUE(res.jobs.empty());
  EXPECT_TRUE(res.completion_order.empty());
  EXPECT_EQ(res.stats.dag_runs, 0u);
  EXPECT_EQ(session.runs(), 0u);
}

}  // namespace
}  // namespace calu
