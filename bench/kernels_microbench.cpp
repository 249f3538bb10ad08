// kernels_microbench.cpp — google-benchmark microbenchmarks of the kernel
// substrate: gemm, trsm, GEPP variants, TSLU.  These support every figure:
// all schedulers share this kernel layer, so relative comparisons between
// schedules are kernel-independent.
//
// `--json[=path]` (default BENCH_kernels.json) switches to a self-timed
// mode that sweeps every dispatched kernel variant over gemm, trsm, the
// blocked panel factorization, and the fused row swaps at the paper's
// tile sizes and writes machine-readable GFLOP/s (GB/s for laswp),
// giving later PRs a perf trajectory to compare against
// (bench/run_bench.sh drives it).  Under a CALU_KERNEL pin only the
// pinned variant is swept — that keeps CI's generic-dispatch smoke run
// honest and fast.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif
#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "src/blas/microkernel.h"
#include "src/calu.h"
#include "src/sched/topology.h"

namespace {

using namespace calu;

void BM_Gemm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto a = layout::Matrix::random(n, n, 1);
  auto b = layout::Matrix::random(n, n, 2);
  auto c = layout::Matrix::random(n, n, 3);
  for (auto _ : state) {
    blas::gemm(blas::Trans::No, blas::Trans::No, n, n, n, 1.0, a.data(), n,
               b.data(), n, 1.0, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      2.0 * n * n * n * state.iterations() * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Gemm)->Arg(128)->Arg(256)->Arg(512)->Arg(1024);

void BM_GemmTileUpdate(benchmark::State& state) {
  // The S-task shape: (g*b x b) -= (g*b x b) * (b x b), g = group factor.
  const int b = 128;
  const int g = static_cast<int>(state.range(0));
  auto l = layout::Matrix::random(g * b, b, 1);
  auto u = layout::Matrix::random(b, b, 2);
  auto c = layout::Matrix::random(g * b, b, 3);
  for (auto _ : state) {
    blas::gemm(blas::Trans::No, blas::Trans::No, g * b, b, b, -1.0, l.data(),
               g * b, u.data(), b, 1.0, c.data(), g * b);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      2.0 * g * b * b * b * state.iterations() * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmTileUpdate)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

void BM_TrsmLowerLeft(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto t = layout::Matrix::diag_dominant(n, 1);
  auto b = layout::Matrix::random(n, n, 2);
  for (auto _ : state) {
    auto x = b;
    blas::trsm(blas::Side::Left, blas::UpLo::Lower, blas::Trans::No,
               blas::Diag::Unit, n, n, 1.0, t.data(), n, x.data(), n);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_TrsmLowerLeft)->Arg(128)->Arg(256);

void BM_Getf2(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto a0 = layout::Matrix::random(n, n, 1);
  std::vector<int> ipiv(n);
  for (auto _ : state) {
    auto a = a0;
    blas::getf2(n, n, a.data(), n, ipiv.data());
    benchmark::DoNotOptimize(a.data());
  }
}
BENCHMARK(BM_Getf2)->Arg(64)->Arg(128);

void BM_GetrfRecursive(benchmark::State& state) {
  // Panel shape: tall and skinny, the TSLU reduction operator.
  const int m = static_cast<int>(state.range(0));
  const int n = 128;
  auto a0 = layout::Matrix::random(m, n, 1);
  std::vector<int> ipiv(n);
  for (auto _ : state) {
    auto a = a0;
    blas::getrf_recursive(m, n, a.data(), m, ipiv.data());
    benchmark::DoNotOptimize(a.data());
  }
}
BENCHMARK(BM_GetrfRecursive)->Arg(512)->Arg(2048);

void BM_TsluPanel(benchmark::State& state) {
  // Full tournament over `chunks` leaves on a tall panel.
  const int m = 2048, n = 128;
  const int chunks = static_cast<int>(state.range(0));
  auto a0 = layout::Matrix::random(m, n, 1);
  for (auto _ : state) {
    auto a = a0;
    auto swaps = core::tslu_factor(a, chunks);
    benchmark::DoNotOptimize(swaps.data());
  }
}
BENCHMARK(BM_TsluPanel)->Arg(1)->Arg(4)->Arg(8);

void BM_DequeueOverhead(benchmark::State& state) {
  // The cost the paper worries about: concurrent pops from the shared
  // dynamic queue at increasing thread counts, measured per engine.
  const int threads = static_cast<int>(state.range(0));
  const std::string name = sched::engine_names()[state.range(1)];
  state.SetLabel(name);
  for (auto _ : state) {
    sched::ThreadTeam team(threads, false);
    sched::TaskGraph g;
    for (int i = 0; i < 20000; ++i) g.add_task(sched::Task{});
    g.finalize();
    sched::run_engine(name, team, g, [](int, int) {});
  }
  state.counters["tasks/s"] = benchmark::Counter(
      20000.0 * state.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DequeueOverhead)
    ->ArgsProduct({{1, 4, 8}, {0, 1, 2}})
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------------------- --json mode ---

/// Seconds per call, doubling reps until the timed window is long enough
/// to trust the clock.
double seconds_of(const std::function<void()>& fn) {
  fn();  // warm-up: faults in pack scratch, settles the dispatch
  int iters = 1;
  for (;;) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) fn();
    const double dt = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (dt >= 0.1) return dt / iters;
    iters *= 2;
  }
}

double gflops_of(double flops, const std::function<void()>& fn) {
  return flops / seconds_of(fn) * 1e-9;
}

// Core counts from every angle the container stack can distort them:
// std::thread::hardware_concurrency respects some cgroup limits,
// sysconf reports what the kernel exposes, and sched_getaffinity is
// what this process may actually run on.  Recording all three makes
// later cross-container perf comparisons interpretable (a "1" in one
// field no longer poisons the whole host block).
struct HostCpus {
  int hardware_threads = 1;  // std::thread::hardware_concurrency
  long online = -1;          // _SC_NPROCESSORS_ONLN
  long configured = -1;      // _SC_NPROCESSORS_CONF
  int affinity = -1;         // CPU_COUNT(sched_getaffinity)
};

HostCpus host_cpus() {
  HostCpus h;
  h.hardware_threads = sched::ThreadTeam::hardware_threads();
#if defined(_SC_NPROCESSORS_ONLN)
  h.online = sysconf(_SC_NPROCESSORS_ONLN);
#endif
#if defined(_SC_NPROCESSORS_CONF)
  h.configured = sysconf(_SC_NPROCESSORS_CONF);
#endif
#if defined(__linux__)
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    h.affinity = CPU_COUNT(&set);
#endif
  return h;
}

// LU panel flop count (multiply + add each counted), m >= the k = min
// dimension of the panel.
double lu_flops(int m, int n) {
  const double k = std::min(m, n);
  return 2.0 * k * (static_cast<double>(m) * n -
                    (static_cast<double>(m) + n) * k / 2.0 + k * k / 3.0);
}

/// Column-major float buffer seeded from the same deterministic stream as
/// the double benches (exact double -> float rounding).
std::vector<float> frandom(int m, int n, std::uint64_t seed) {
  const auto d = layout::Matrix::random(m, n, seed);
  std::vector<float> out(static_cast<std::size_t>(m) * n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i)
      out[i + static_cast<std::size_t>(j) * m] =
          static_cast<float>(d(i, j));
  return out;
}

/// Writes the entries of one panel_gflops section: getf2 (m > 0) or
/// getrf_recursive (m < 0) on each named |m| x n panel at precision T,
/// with the copy that restores the input subtracted.
using PanelShape = std::pair<const char*, std::pair<int, int>>;
template <class T>
void emit_panels(std::FILE* f, std::initializer_list<PanelShape> panels) {
  const char* sep = "";
  for (const PanelShape& p : panels) {
    const bool recursive = p.second.first < 0;
    const int m = std::abs(p.second.first);
    const int n = p.second.second;
    const layout::Matrix d = layout::Matrix::random(m, n, 1);
    const std::vector<T> a0(d.data(), d.data() + d.ld() * n);
    std::vector<T> a = a0;
    std::vector<int> ipiv(n);
    const double s_fact = seconds_of([&] {
      a = a0;
      if (recursive)
        blas::getrf_recursive(m, n, a.data(), d.ld(), ipiv.data());
      else
        blas::getf2(m, n, a.data(), d.ld(), ipiv.data());
    });
    const double s_copy = seconds_of([&] { a = a0; });
    const double g = lu_flops(m, n) / std::max(s_fact - s_copy, 1e-9) * 1e-9;
    std::fprintf(f, "%s\"%s\": %.2f", sep, p.first, g);
    sep = ", ";
  }
}

int run_json(const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 1;
  }
  const blas::CacheInfo ci = blas::cache_info();
  const HostCpus hc = host_cpus();
  std::fprintf(f, "{\n  \"bench\": \"kernels_microbench\",\n");
  std::fprintf(f,
               "  \"host\": {\"hardware_threads\": %d, \"cpus_online\": %ld, "
               "\"cpus_configured\": %ld, \"cpus_affinity\": %d,\n"
               "           \"l1\": %ld, \"l2\": %ld, \"l3\": %ld},\n",
               hc.hardware_threads, hc.online, hc.configured, hc.affinity,
               ci.l1, ci.l2, ci.l3);
  // The variant this process would actually dispatch to: the CALU_KERNEL
  // pin if set, else the best the CPU supports.
  std::fprintf(f, "  \"dispatched\": \"%s\",\n", blas::active_kernel().name);
  // Machine shape: committed numbers must say what topology produced them.
  const sched::Topology& topo = sched::system_topology();
  std::fprintf(f,
               "  \"topology\": {\"summary\": \"%s\", \"packages\": %d, "
               "\"l3_groups\": %d, \"cores\": %d, \"smt_ways\": %d},\n",
               topo.summary().c_str(), topo.packages(), topo.l3_groups(),
               topo.cores(), topo.smt_ways());
  std::fprintf(f, "  \"kernels\": [\n");
  // Under a CALU_KERNEL pin, sweep only the pinned variant — a CI smoke
  // run pinned to "generic" must not silently re-enable the SIMD paths
  // through select_kernel.
  std::vector<std::string> names = blas::available_kernels();
  if (const char* pin = std::getenv("CALU_KERNEL"))
    names.assign(1, pin);
  for (std::size_t ki = 0; ki < names.size(); ++ki) {
    blas::select_kernel(names[ki].c_str());
    const blas::MicroKernel& mk = blas::active_kernel();
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"mr\": %d, \"nr\": %d, "
                 "\"mc\": %d, \"kc\": %d, \"nc\": %d,\n",
                 mk.name, mk.mr, mk.nr, mk.mc, mk.kc, mk.nc);
    // Square gemm at the paper's tile size (b = 100), the bench default
    // (128), and two multi-tile sizes.
    std::fprintf(f, "     \"gemm_gflops\": {");
    const int gemm_sizes[] = {100, 128, 256, 512};
    double gemm_f64[4] = {0, 0, 0, 0};  // kept for the f32 speedup ratios
    for (std::size_t i = 0; i < 4; ++i) {
      const int n = gemm_sizes[i];
      auto a = layout::Matrix::random(n, n, 1);
      auto b = layout::Matrix::random(n, n, 2);
      auto c = layout::Matrix::random(n, n, 3);
      const double g = gflops_of(2.0 * n * n * n, [&] {
        blas::gemm(blas::Trans::No, blas::Trans::No, n, n, n, 1.0, a.data(),
                   n, b.data(), n, 1.0, c.data(), n);
      });
      gemm_f64[i] = g;
      std::fprintf(f, "%s\"%d\": %.2f", i ? ", " : "", n, g);
    }
    std::fprintf(f, "},\n");
    // The S-task shape: (g*b x b) -= (g*b x b) * (b x b), group g.
    std::fprintf(f, "     \"s_update_gflops\": {");
    for (int g = 1; g <= 3; ++g) {
      const int b = 128;
      auto l = layout::Matrix::random(g * b, b, 1);
      auto u = layout::Matrix::random(b, b, 2);
      auto c = layout::Matrix::random(g * b, b, 3);
      const double gf = gflops_of(2.0 * g * b * b * b, [&] {
        blas::gemm(blas::Trans::No, blas::Trans::No, g * b, b, b, -1.0,
                   l.data(), g * b, u.data(), b, 1.0, c.data(), g * b);
      });
      std::fprintf(f, "%s\"%d\": %.2f", g > 1 ? ", " : "", g, gf);
    }
    std::fprintf(f, "},\n");
    // trsm at tile sizes (unit-lower left solve, the U-task operator).
    std::fprintf(f, "     \"trsm_gflops\": {");
    const int trsm_sizes[] = {100, 128, 256, 512};
    for (std::size_t i = 0; i < 4; ++i) {
      const int n = trsm_sizes[i];
      auto t = layout::Matrix::diag_dominant(n, 1);
      auto b0 = layout::Matrix::random(n, n, 2);
      auto x = b0;
      // The solve mutates x, so each rep restores it first; subtract the
      // measured copy cost so the number is the kernel's, not memcpy's.
      const double s_solve = seconds_of([&] {
        x = b0;
        blas::trsm(blas::Side::Left, blas::UpLo::Lower, blas::Trans::No,
                   blas::Diag::Unit, n, n, 1.0, t.data(), n, x.data(), n);
      });
      const double s_copy = seconds_of([&] { x = b0; });
      const double g =
          1.0 * n * n * n / std::max(s_solve - s_copy, 1e-9) * 1e-9;
      std::fprintf(f, "%s\"%d\": %.2f", i ? ", " : "", n, g);
    }
    std::fprintf(f, "},\n");
    // Panel factorization: the blocked getf2 at tile and TSLU-leaf
    // shapes, and the recursive GEPP operator on whole small jobs (64^2
    // to 256^2), the b = 96 tournament merge (192 x 96) and a tall panel.
    std::fprintf(f, "     \"panel_gflops\": {");
    emit_panels<double>(f, {{"getf2_128x128", {128, 128}},
                            {"getf2_512x128", {512, 128}},
                            {"getf2_2048x128", {2048, 128}},
                            {"getrf_rec_2048x128", {-2048, 128}},
                            {"getrf_rec_64x64", {-64, 64}},
                            {"getrf_rec_128x128", {-128, 128}},
                            {"getrf_rec_256x256", {-256, 256}},
                            {"getrf_rec_192x96", {-192, 96}}});
    std::fprintf(f, "},\n");
    // Row interchanges: effective bandwidth of the fused swap sweeps
    // (each swapped element read + written once = 4 accesses per pair).
    std::fprintf(f, "     \"laswp_gbps\": {");
    const int laswp_cols[] = {128, 1024};
    for (std::size_t i = 0; i < 2; ++i) {
      const int m = 2048, nswap = 128, n = laswp_cols[i];
      auto a = layout::Matrix::random(m, n, 3);
      std::vector<int> ipiv(nswap);
      for (int s = 0; s < nswap; ++s) ipiv[s] = s + (s * 37) % (m - s);
      const double sec = seconds_of([&] {
        blas::laswp(n, a.data(), a.ld(), 0, nswap, ipiv.data(), true);
        blas::laswp(n, a.data(), a.ld(), 0, nswap, ipiv.data(), false);
      });
      const double g =
          2.0 * nswap * static_cast<double>(n) * 4.0 * 8.0 / sec * 1e-9;
      std::fprintf(f, "%s\"2048x%d\": %.2f", i ? ", " : "", n, g);
    }
    std::fprintf(f, "},\n");
    // Float32 side of the same variant (mixed-precision layer): the f32
    // kernels double the SIMD lanes, so gemm should land well above the
    // double rate — speedup_vs_f64 makes the ratio a committed artifact.
    const blas::MicroKernelT<float>& mkf = blas::active_kernel_t<float>();
    std::fprintf(f,
                 "     \"f32\": {\"mr\": %d, \"nr\": %d, \"mc\": %d, "
                 "\"kc\": %d, \"nc\": %d,\n",
                 mkf.mr, mkf.nr, mkf.mc, mkf.kc, mkf.nc);
    double gemm_f32[4] = {0, 0, 0, 0};
    std::fprintf(f, "       \"gemm_gflops\": {");
    for (std::size_t i = 0; i < 4; ++i) {
      const int n = gemm_sizes[i];
      auto a = frandom(n, n, 1);
      auto b = frandom(n, n, 2);
      auto c = frandom(n, n, 3);
      const double g = gflops_of(2.0 * n * n * n, [&] {
        blas::gemm(blas::Trans::No, blas::Trans::No, n, n, n, 1.0f,
                   a.data(), n, b.data(), n, 1.0f, c.data(), n);
      });
      gemm_f32[i] = g;
      std::fprintf(f, "%s\"%d\": %.2f", i ? ", " : "", n, g);
    }
    std::fprintf(f, "},\n       \"gemm_speedup_vs_f64\": {");
    for (std::size_t i = 0; i < 4; ++i)
      std::fprintf(f, "%s\"%d\": %.2f", i ? ", " : "", gemm_sizes[i],
                   gemm_f64[i] > 0 ? gemm_f32[i] / gemm_f64[i] : 0.0);
    std::fprintf(f, "},\n       \"trsm_gflops\": {");
    for (std::size_t i = 0; i < 4; ++i) {
      const int n = trsm_sizes[i];
      auto td = layout::Matrix::diag_dominant(n, 1);
      std::vector<float> t(static_cast<std::size_t>(n) * n);
      for (int j = 0; j < n; ++j)
        for (int r = 0; r < n; ++r)
          t[r + static_cast<std::size_t>(j) * n] =
              static_cast<float>(td(r, j));
      const auto b0 = frandom(n, n, 2);
      auto x = b0;
      const double s_solve = seconds_of([&] {
        x = b0;
        blas::trsm(blas::Side::Left, blas::UpLo::Lower, blas::Trans::No,
                   blas::Diag::Unit, n, n, 1.0f, t.data(), n, x.data(), n);
      });
      const double s_copy = seconds_of([&] { x = b0; });
      const double g =
          1.0 * n * n * n / std::max(s_solve - s_copy, 1e-9) * 1e-9;
      std::fprintf(f, "%s\"%d\": %.2f", i ? ", " : "", n, g);
    }
    std::fprintf(f, "},\n       \"panel_gflops\": {");
    // getf2 on a TSLU-leaf panel; getrf_recursive on a whole small job and
    // on gesv_mixed's b = 64 tournament merge (128 x 64).
    emit_panels<float>(f, {{"getf2_512x128", {512, 128}},
                           {"getrf_rec_64x64", {-64, 64}},
                           {"getrf_rec_128x64", {-128, 64}}});
    std::fprintf(f, "}}}%s\n", ki + 1 < names.size() ? "," : "");
  }
  blas::select_kernel(nullptr);
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) return run_json(argv[i] + 7);
    if (std::strcmp(argv[i], "--json") == 0) {
      // Accept both "--json path" and bare "--json" (default path).
      if (i + 1 < argc && argv[i + 1][0] != '-') return run_json(argv[i + 1]);
      return run_json("BENCH_kernels.json");
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
