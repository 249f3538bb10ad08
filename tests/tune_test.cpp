// tune_test.cpp — the autotuner's decision paths, fully deterministic.
//
// Every test drives the Autotuner through its injected seam — a fake
// MeasureFn (candidate -> synthetic cost, zero wall clock) — so model
// seeding, top-k pruning, the measured winner and the per-key memo are
// all covered without timing anything.  The concurrent-resolve cases
// double as the TSan payload: this binary carries both the "unit" and
// "stress" CTest labels.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/calu.h"
#include "src/layout/matrix.h"
#include "src/tune/autotuner.h"

namespace calu {
namespace {

using tune::Autotuner;
using tune::Decision;
using tune::Key;
using tune::SeedParams;

Key make_key(int n = 512, int threads = 4, std::string kernel = "testk",
             std::string topo = "1pkg/1l3/4core/1smt") {
  Key k;
  k.n = n;
  k.threads = threads;
  k.kernel = std::move(kernel);
  k.topology = std::move(topo);
  return k;
}

/// Synthetic cost with a unique, predictable minimum: prefers the
/// priority-lookahead engine, b = 96, lookahead 2, and the smallest
/// dratio.  The model ranks hybrid first for make_key(), so tests can
/// tell "measured winner" apart from "model pick".
double synthetic_cost(const Decision& d) {
  double c = 1000.0 + std::abs(d.b - 96);
  if (d.engine != "priority-lookahead") c += 500.0;
  if (d.lookahead_depth != 2) c += 50.0;
  c += 10.0 * d.dratio;
  return c;
}

tune::MeasureFn fake_measure(std::shared_ptr<std::atomic<int>> calls) {
  return [calls](const Key&, const Decision& d) {
    calls->fetch_add(1, std::memory_order_relaxed);
    return synthetic_cost(d);
  };
}

// ----------------------------------------------------- model seeding ---

TEST(TuneSeeding, CandidatesOrderedByPredictedCostAndDeterministic) {
  const Key key = make_key();
  const SeedParams sp;
  const std::vector<Decision> cands = tune::seed_candidates(key, sp);
  ASSERT_FALSE(cands.empty());
  for (std::size_t i = 0; i < cands.size(); ++i) {
    // The stored score is exactly the exposed model, nothing else.
    EXPECT_DOUBLE_EQ(cands[i].predicted,
                     tune::predicted_cost(key, cands[i], sp))
        << "candidate " << i;
    if (i > 0) {
      EXPECT_GE(cands[i].predicted, cands[i - 1].predicted)
          << "candidate " << i;
    }
  }
  // Deterministic: a second seeding reproduces the sequence bit-for-bit.
  const std::vector<Decision> again = tune::seed_candidates(key, sp);
  ASSERT_EQ(again.size(), cands.size());
  for (std::size_t i = 0; i < cands.size(); ++i) {
    EXPECT_EQ(again[i].engine, cands[i].engine);
    EXPECT_EQ(again[i].b, cands[i].b);
    EXPECT_EQ(again[i].lookahead_depth, cands[i].lookahead_depth);
    EXPECT_DOUBLE_EQ(again[i].dratio, cands[i].dratio);
  }
}

TEST(TuneSeeding, ZeroNoiseSeedsFullyStatic) {
  // Theorem 1 with δmax == δavg: nothing to rebalance, and the Section-6
  // migration term then makes cost strictly increasing in dratio — the
  // model's first pick must be the fully static schedule.
  SeedParams sp;
  sp.spread_frac = 0.0;
  const auto cands = tune::seed_candidates(make_key(), sp);
  ASSERT_FALSE(cands.empty());
  EXPECT_DOUBLE_EQ(cands.front().dratio, 0.0);
}

TEST(TuneSeeding, NoisePushesSeededDynamicFractionUp) {
  SeedParams noisy;
  noisy.spread_frac = 0.5;
  const auto cands = tune::seed_candidates(make_key(), noisy);
  ASSERT_FALSE(cands.empty());
  EXPECT_GT(cands.front().dratio, 0.0);
}

TEST(TuneSeeding, EngineGridFollowsThreadsAndTopology) {
  const SeedParams sp;
  auto engines = [&](const Key& k) {
    std::vector<std::string> es;
    for (const Decision& d : tune::seed_candidates(k, sp))
      if (std::find(es.begin(), es.end(), d.engine) == es.end())
        es.push_back(d.engine);
    std::sort(es.begin(), es.end());
    return es;
  };
  // p = 1: every engine degenerates to the same serial schedule.
  EXPECT_EQ(engines(make_key(512, 1)),
            (std::vector<std::string>{"hybrid"}));
  // p > 1: the same two candidates whatever the machine shape.
  EXPECT_EQ(engines(make_key(512, 4, "testk", "1pkg/1l3/4core/1smt")),
            (std::vector<std::string>{"hybrid", "priority-lookahead"}));
  EXPECT_EQ(engines(make_key(512, 4, "testk", "1pkg/2l3/8core/1smt")),
            (std::vector<std::string>{"hybrid", "priority-lookahead"}));
  // Lookahead depth is only a free knob for priority-lookahead.
  for (const Decision& d : tune::seed_candidates(make_key(), sp)) {
    if (d.engine == "priority-lookahead")
      EXPECT_TRUE(d.lookahead_depth == 2 || d.lookahead_depth == 4);
    else
      EXPECT_EQ(d.lookahead_depth, 4);
  }
}

// ---------------------------------------------------- calibrate & memo ---

TEST(TuneAutotuner, BestMeasuredCandidateWins) {
  auto calls = std::make_shared<std::atomic<int>>(0);
  Autotuner tuner(fake_measure(calls));

  const Key key = make_key();
  const Decision d = tuner.resolve(key);
  // The winner is the cheapest of the model's top 4 under the synthetic
  // cost ...
  const std::vector<Decision> cands = tune::seed_candidates(key, SeedParams{});
  ASSERT_GE(cands.size(), 4u);
  std::size_t cheapest = 0;
  for (std::size_t i = 1; i < 4; ++i)
    if (synthetic_cost(cands[i]) < synthetic_cost(cands[cheapest]))
      cheapest = i;
  EXPECT_EQ(d.engine, cands[cheapest].engine);
  EXPECT_EQ(d.b, cands[cheapest].b);
  EXPECT_EQ(d.lookahead_depth, cands[cheapest].lookahead_depth);
  EXPECT_DOUBLE_EQ(d.dratio, cands[cheapest].dratio);
  EXPECT_DOUBLE_EQ(d.measured, synthetic_cost(d));
  // ... and measuring changed the answer: the model's first pick lost.
  EXPECT_NE(cheapest, 0u);
  EXPECT_LT(d.measured, synthetic_cost(cands.front()));
  EXPECT_EQ(tuner.calibrations(), 1);
}

TEST(TuneAutotuner, TopKPrunesToModelRankedPrefix) {
  std::vector<Decision> measured;
  Autotuner tuner([&measured](const Key&, const Decision& d) {
    measured.push_back(d);
    return synthetic_cost(d);
  });
  const Key key = make_key();
  tuner.resolve(key);
  // Exactly the model's top 4, in rank order, nothing else.
  ASSERT_EQ(measured.size(), 4u);
  const std::vector<Decision> cands = tune::seed_candidates(key, SeedParams{});
  for (std::size_t i = 0; i < measured.size(); ++i) {
    EXPECT_EQ(measured[i].engine, cands[i].engine) << "candidate " << i;
    EXPECT_EQ(measured[i].b, cands[i].b) << "candidate " << i;
    EXPECT_EQ(measured[i].lookahead_depth, cands[i].lookahead_depth)
        << "candidate " << i;
    EXPECT_DOUBLE_EQ(measured[i].dratio, cands[i].dratio)
        << "candidate " << i;
  }
}

TEST(TuneAutotuner, SecondResolveIsMemoHit) {
  auto calls = std::make_shared<std::atomic<int>>(0);
  Autotuner tuner(fake_measure(calls));

  const Key key = make_key();
  const Decision first = tuner.resolve(key);
  const int calls_after_first = calls->load();
  const Decision second = tuner.resolve(key);
  EXPECT_EQ(calls->load(), calls_after_first);  // no remeasure
  EXPECT_EQ(tuner.calibrations(), 1);
  EXPECT_EQ(tuner.memo_hits(), 1);
  EXPECT_EQ(second.engine, first.engine);
  EXPECT_EQ(second.b, first.b);
  EXPECT_DOUBLE_EQ(second.dratio, first.dratio);
}

TEST(TuneAutotuner, KeyMismatchForcesRecalibration) {
  auto calls = std::make_shared<std::atomic<int>>(0);
  Autotuner tuner(fake_measure(calls));

  // A different thread count is a different machine shape as far as
  // Theorem 1 is concerned — and so is a rebuilt kernel variant.
  const std::vector<Key> keys{make_key(512, 4), make_key(512, 8),
                              make_key(512, 4, "avx512")};
  for (const Key& k : keys) tuner.resolve(k);
  EXPECT_EQ(tuner.calibrations(), 3);
  EXPECT_EQ(tuner.memo_hits(), 0);
  // All three decisions coexist; none evicts another.
  for (const Key& k : keys) tuner.resolve(k);
  EXPECT_EQ(tuner.calibrations(), 3);
  EXPECT_EQ(tuner.memo_hits(), 3);
}

TEST(TuneAutotuner, NullMeasureDegradesToModelPick) {
  // TuneMode::Auto with no way to measure: the model's first pick is
  // used, never measured.
  Autotuner tuner(tune::MeasureFn{});
  const Key key = make_key();
  const Decision d = tuner.resolve(key);
  const auto cands = tune::seed_candidates(key, SeedParams{});
  ASSERT_FALSE(cands.empty());
  EXPECT_EQ(d.engine, cands.front().engine);
  EXPECT_EQ(d.b, cands.front().b);
  EXPECT_DOUBLE_EQ(d.dratio, cands.front().dratio);
  EXPECT_LT(d.measured, 0.0);  // model-seeded, not measured
  EXPECT_EQ(tuner.calibrations(), 0);
}

// ------------------------------------------------ Options integration ---

TEST(TuneOptions, WithTuneKeyStampsProblemSize) {
  core::Options off;
  EXPECT_EQ(core::with_tune_key(off, 300, 200).tune_n, 0);  // Off: no-op
  core::Options on;
  on.tune = core::TuneMode::Auto;
  EXPECT_EQ(core::with_tune_key(on, 300, 200).tune_n, 200);  // min(m, n)
  on.tune_n = 777;  // an already-stamped key is never overwritten
  EXPECT_EQ(core::with_tune_key(on, 300, 200).tune_n, 777);
}

TEST(TuneOptions, AutoResolvesThroughGlobalTuner) {
  // Swap the global tuner's measure for the synthetic one so this stays
  // wall-clock-free, then check every resolved_*() accessor returns a
  // value from the candidate universe.
  tune::global_autotuner().set_measure(
      fake_measure(std::make_shared<std::atomic<int>>(0)));

  core::Options o;
  o.tune = core::TuneMode::Auto;
  o.tune_n = 256;
  o.threads = 2;
  const double dr = o.resolved_dratio();
  EXPECT_GE(dr, 0.0);
  EXPECT_LE(dr, 1.0);
  const int b = o.resolved_b();
  EXPECT_GE(b, 8);
  EXPECT_LE(b, 256);
  const std::string engine = o.resolved_engine();
  EXPECT_TRUE(engine == "hybrid" || engine == "priority-lookahead")
      << engine;
  const int look = o.resolved_lookahead();
  EXPECT_TRUE(look == 2 || look == 4) << look;

  // Explicit knobs still win over the tuner where the contract says so.
  core::Options pinned = o;
  pinned.engine = "hybrid";
  EXPECT_EQ(pinned.resolved_engine(), "hybrid");
  pinned.tune = core::TuneMode::Off;
  EXPECT_DOUBLE_EQ(pinned.resolved_dratio(), pinned.dratio);
  EXPECT_EQ(pinned.resolved_b(), pinned.b);

  // Restore the production measure for any later user of the global.
  tune::global_autotuner().set_measure(tune::real_measure());
}

TEST(TuneOptions, AutoWritesNoFile) {
  // A real Auto calibration, run from a fresh working directory, must
  // leave that directory empty: the tuner keeps its decisions in memory.
  namespace fs = std::filesystem;
  std::string dir = (fs::temp_directory_path() / "tune_test_XXXXXX").string();
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  const fs::path cwd = fs::current_path();
  fs::current_path(dir);

  const int calibrations_before = tune::global_autotuner().calibrations();
  core::Options o;
  o.tune = core::TuneMode::Auto;
  o.threads = 2;
  // n = 72 is a key no other case resolves, so this one calibrates.
  layout::Matrix a = layout::Matrix::random(72, 72, 7);
  const core::Factorization f = core::getrf(a, o);
  fs::current_path(cwd);

  EXPECT_EQ(tune::global_autotuner().calibrations(), calibrations_before + 1);
  EXPECT_EQ(f.ipiv.size(), 72u);
  EXPECT_TRUE(fs::is_empty(dir)) << "Auto left a file in " << dir;
  fs::remove_all(dir);
}

// ------------------------------------------------------- stress (TSan) ---

TEST(TuneStress, ConcurrentResolveOfOneKeyCalibratesOnce) {
  auto calls = std::make_shared<std::atomic<int>>(0);
  Autotuner tuner(fake_measure(calls));

  const Key key = make_key();
  constexpr int kThreads = 8;
  std::vector<Decision> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back(
        [&tuner, &results, &key, t] { results[t] = tuner.resolve(key); });
  for (auto& th : threads) th.join();

  // One calibration total: the mutex serializes racers of the same key,
  // and the losers are served the winner's remembered decision.
  EXPECT_EQ(tuner.calibrations(), 1);
  EXPECT_EQ(tuner.memo_hits(), kThreads - 1);
  EXPECT_EQ(calls->load(), tune::kTopK);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(results[t].engine, results[0].engine) << "thread " << t;
    EXPECT_EQ(results[t].b, results[0].b) << "thread " << t;
    EXPECT_DOUBLE_EQ(results[t].dratio, results[0].dratio)
        << "thread " << t;
  }
}

TEST(TuneStress, ConcurrentResolveOfDistinctKeysAllLand) {
  auto calls = std::make_shared<std::atomic<int>>(0);
  Autotuner tuner(fake_measure(calls));

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&tuner, t] {
      tuner.resolve(make_key(256 + 64 * t, 2 + (t % 3)));
    });
  for (auto& th : threads) th.join();

  EXPECT_EQ(tuner.calibrations(), kThreads);
  // Every racer's decision was remembered: a second pass only hits.
  for (int t = 0; t < kThreads; ++t)
    tuner.resolve(make_key(256 + 64 * t, 2 + (t % 3)));
  EXPECT_EQ(tuner.calibrations(), kThreads);
  EXPECT_EQ(tuner.memo_hits(), kThreads);
}

}  // namespace
}  // namespace calu
