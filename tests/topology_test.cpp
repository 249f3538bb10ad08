// topology_test.cpp — the sysfs topology probe against synthetic
// fixtures, distance classes, pin order, the numa-hierarchical engine's
// stats contract, and ownership-ordered first-touch packing.
//
// The probe is exercised through fabricated sysfs trees written under
// the test's working directory (single-socket SMT, dual-socket, and a
// cpuset-restricted view of the latter), so every assertion is
// deterministic on any container — including single-cpu CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/core/calu.h"
#include "src/layout/packed.h"
#include "src/sched/dag.h"
#include "src/sched/engine.h"
#include "src/sched/engine_registry.h"
#include "src/sched/thread_team.h"
#include "src/sched/topology.h"

namespace calu {
namespace {

namespace fs = std::filesystem;
using sched::StealClass;
using sched::ThreadTeam;
using sched::Topology;

// ------------------------------------------------------ fixtures ---

/// Builder for synthetic sysfs cpu trees.
class SysfsFixture {
 public:
  explicit SysfsFixture(const std::string& name)
      : root_(fs::path("topo_fixture") / name) {
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  ~SysfsFixture() { fs::remove_all("topo_fixture"); }

  std::string root() const { return root_.string(); }

  /// Adds cpuN with the given topology ids and cache sharing lists.
  /// Empty list = omit that cache level entirely.
  void add_cpu(int cpu, int package_id, int core_id, const std::string& l2,
               const std::string& l3) {
    const fs::path dir = root_ / ("cpu" + std::to_string(cpu));
    fs::create_directories(dir / "topology");
    write(dir / "topology" / "physical_package_id",
          std::to_string(package_id));
    write(dir / "topology" / "core_id", std::to_string(core_id));
    int index = 0;
    // index0 is an L1 Instruction cache the probe must skip.
    add_cache(dir, index++, 1, "Instruction", std::to_string(cpu));
    if (!l2.empty()) add_cache(dir, index++, 2, "Unified", l2);
    if (!l3.empty()) add_cache(dir, index++, 3, "Unified", l3);
  }

 private:
  void add_cache(const fs::path& cpu_dir, int index, int level,
                 const std::string& type, const std::string& shared) {
    const fs::path dir = cpu_dir / "cache" / ("index" + std::to_string(index));
    fs::create_directories(dir);
    write(dir / "level", std::to_string(level));
    write(dir / "type", type);
    write(dir / "shared_cpu_list", shared);
  }

  static void write(const fs::path& path, const std::string& text) {
    std::ofstream f(path);
    f << text << "\n";
  }

  fs::path root_;
};

/// 4 cpus, 2 cores, 2-way SMT, one socket: siblings are (0,2) and (1,3)
/// — the interleaved enumeration real kernels use.
SysfsFixture make_smt_fixture() {
  SysfsFixture fx("smt1s");
  fx.add_cpu(0, 0, 0, "0,2", "0-3");
  fx.add_cpu(1, 0, 1, "1,3", "0-3");
  fx.add_cpu(2, 0, 0, "0,2", "0-3");
  fx.add_cpu(3, 0, 1, "1,3", "0-3");
  return fx;
}

/// 8 cpus, 2 sockets, no SMT, private L2 per core, one L3 per socket.
SysfsFixture make_two_socket_fixture() {
  SysfsFixture fx("pkg2");
  for (int c = 0; c < 8; ++c) {
    const int pkg = c / 4;
    fx.add_cpu(c, pkg, c % 4, std::to_string(c),
               pkg == 0 ? "0-3" : "4-7");
  }
  return fx;
}

// ------------------------------------------------------ parsing ---

TEST(Topology, ParsesCpuListRanges) {
  EXPECT_EQ(sched::parse_cpu_list("0-3,8-11"),
            (std::vector<int>{0, 1, 2, 3, 8, 9, 10, 11}));
  EXPECT_EQ(sched::parse_cpu_list("5"), (std::vector<int>{5}));
  EXPECT_EQ(sched::parse_cpu_list("2,0,2"), (std::vector<int>{0, 2}));
  EXPECT_TRUE(sched::parse_cpu_list("").empty());
  EXPECT_TRUE(sched::parse_cpu_list("garbage").empty());
}

TEST(Topology, ProbesSingleSocketSmtFixture) {
  SysfsFixture fx = make_smt_fixture();
  const Topology topo = Topology::probe(fx.root());
  EXPECT_EQ(topo.num_cpus(), 4);
  EXPECT_EQ(topo.packages(), 1);
  EXPECT_EQ(topo.cores(), 2);
  EXPECT_EQ(topo.l3_groups(), 1);
  EXPECT_EQ(topo.smt_ways(), 2);
  EXPECT_EQ(topo.classify(0, 2), StealClass::kSmtSibling);
  EXPECT_EQ(topo.classify(1, 3), StealClass::kSmtSibling);
  // Different cores with private L2s meet at the socket's L3.
  EXPECT_EQ(topo.classify(0, 1), StealClass::kSharedL3);
  EXPECT_EQ(topo.classify(0, 99), StealClass::kUnknown);
  // Cores first, SMT siblings after every core has one thread.
  EXPECT_EQ(topo.pin_order(), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(topo.summary(), "1pkg/1l3/2core/2smt");
}

TEST(Topology, ProbesTwoSocketFixture) {
  SysfsFixture fx = make_two_socket_fixture();
  const Topology topo = Topology::probe(fx.root());
  EXPECT_EQ(topo.num_cpus(), 8);
  EXPECT_EQ(topo.packages(), 2);
  EXPECT_EQ(topo.cores(), 8);
  EXPECT_EQ(topo.l3_groups(), 2);
  EXPECT_EQ(topo.smt_ways(), 1);
  EXPECT_EQ(topo.classify(0, 1), StealClass::kSharedL3);
  EXPECT_EQ(topo.classify(0, 4), StealClass::kCrossPackage);
  EXPECT_EQ(topo.classify(4, 7), StealClass::kSharedL3);
  EXPECT_EQ(topo.pin_order(), (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Topology, CpusetRestrictionDropsMaskedCpus) {
  // The same dual-socket tree seen through a container cpuset {1, 2, 5}:
  // the probe must only describe what the process may run on.
  SysfsFixture fx = make_two_socket_fixture();
  const Topology topo = Topology::probe(fx.root(), {1, 2, 5});
  EXPECT_EQ(topo.num_cpus(), 3);
  EXPECT_EQ(topo.index_of(0), -1);
  EXPECT_EQ(topo.packages(), 2);
  EXPECT_EQ(topo.classify(1, 2), StealClass::kSharedL3);
  EXPECT_EQ(topo.classify(1, 5), StealClass::kCrossPackage);
  EXPECT_EQ(topo.pin_order(), (std::vector<int>{1, 2, 5}));
}

TEST(Topology, MissingTreeDegradesToFlatSharedL3) {
  const Topology topo = Topology::probe("topo_fixture/nonexistent", {0, 1});
  EXPECT_EQ(topo.num_cpus(), 2);
  EXPECT_EQ(topo.packages(), 1);
  EXPECT_EQ(topo.classify(0, 1), StealClass::kSharedL3);
}

TEST(Topology, SyntheticHierarchyClassifies) {
  // 2 packages x 2 L3 groups x 2 cores x 2-way SMT = 16 cpus.
  const Topology topo = Topology::synthetic(2, 2, 2, 2);
  EXPECT_EQ(topo.num_cpus(), 16);
  EXPECT_EQ(topo.packages(), 2);
  EXPECT_EQ(topo.l3_groups(), 4);
  EXPECT_EQ(topo.cores(), 8);
  EXPECT_EQ(topo.smt_ways(), 2);
  EXPECT_EQ(topo.classify(0, 1), StealClass::kSmtSibling);
  EXPECT_EQ(topo.classify(0, 2), StealClass::kSharedL3);   // same L3 group
  EXPECT_EQ(topo.classify(0, 4), StealClass::kSamePackage);  // other L3
  EXPECT_EQ(topo.classify(0, 8), StealClass::kCrossPackage);
  // Physical cores first: second SMT thread of core 0 (cpu 1) appears
  // after one thread of every core.
  const std::vector<int> order = topo.pin_order();
  EXPECT_EQ(order.size(), 16u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[8], 1);  // SMT rank 1 starts after all 8 cores
}

TEST(Topology, StealCostOrdersClassesAndAcceptsMeasurement) {
  Topology topo = Topology::synthetic(2, 1, 2, 1);
  // Unmeasured: rank-order fallback estimates must be monotone.
  EXPECT_LT(topo.steal_cost(StealClass::kSmtSibling),
            topo.steal_cost(StealClass::kSharedL3));
  EXPECT_LT(topo.steal_cost(StealClass::kSharedL3),
            topo.steal_cost(StealClass::kCrossPackage));
  // Injected table (a machine whose measurements disagree with sysfs):
  // steal_cost must follow the measurement.
  const double ns[sched::kStealClassCount] = {30, 45, 90, 400, 150, -1};
  topo.set_class_latencies(ns);
  EXPECT_GT(topo.steal_cost(StealClass::kSamePackage),
            topo.steal_cost(StealClass::kCrossPackage));
  EXPECT_EQ(topo.class_latency_ns(StealClass::kSmtSibling), 30.0);
  // Class 'unk' stays on the estimate when unmeasured.
  EXPECT_GT(topo.steal_cost(StealClass::kUnknown), 0.0);
}

TEST(Topology, MeasuresPingPongLatency) {
  // The cpus of this synthetic pair may not exist on the host — pinning
  // then fails and the sample runs unpinned, but it must still produce a
  // positive latency (the mctop-style probe degrades, never breaks).
  Topology topo = Topology::synthetic(1, 1, 2, 1);
  topo.measure_class_latencies(/*iters=*/50);
  EXPECT_GT(topo.class_latency_ns(StealClass::kSharedL3), 0.0);
}

TEST(Topology, SystemTopologyCoversAffinity) {
  const Topology& topo = sched::system_topology();
  const std::vector<int> allowed = sched::affinity_cpus();
  EXPECT_EQ(topo.num_cpus(), static_cast<int>(allowed.size()));
  for (int cpu : allowed) EXPECT_GE(topo.index_of(cpu), 0);
  EXPECT_GE(topo.packages(), 1);
}

// ------------------------------------------------- team pinning ---

TEST(ThreadTeamPinning, PinsWithinAffinityMask) {
  const std::vector<int> allowed = sched::affinity_cpus();
  ThreadTeam team(3, /*pin=*/true);
  int pinned = 0;
  for (int t = 0; t < team.size(); ++t) {
    const int cpu = team.pinned_cpu(t);
    if (cpu < 0) continue;  // the kernel may refuse; never mis-pin
    ++pinned;
    // The fix under test: every effective pin is a cpu the process may
    // run on (the old code pinned to absolute ids 0..n-1 regardless).
    EXPECT_NE(std::find(allowed.begin(), allowed.end(), cpu), allowed.end())
        << "thread " << t << " pinned outside the affinity mask";
  }
  EXPECT_EQ(team.pinned_count(), pinned);
}

TEST(ThreadTeamPinning, UnpinnedTeamReportsNoPins) {
  ThreadTeam team(2, /*pin=*/false);
  EXPECT_EQ(team.pinned_count(), 0);
  EXPECT_EQ(team.pinned_cpu(0), -1);
  EXPECT_EQ(team.pinned_cpu(1), -1);
}

// ------------------------------------------- numa-hierarchical ---

sched::TaskGraph fork_join_graph(int width) {
  sched::TaskGraph g;
  const int root = g.add_task(sched::Task{});
  const int sink = g.add_task(sched::Task{});
  for (int i = 0; i < width; ++i) {
    sched::Task t;
    t.owner = i;  // owner hints the Chase-Lev policy must ignore
    const int id = g.add_task(t);
    g.add_edge(root, id);
    g.add_edge(id, sink);
  }
  g.finalize();
  return g;
}

TEST(NumaEngine, RegisteredAsBuiltIn) {
  EXPECT_TRUE(sched::engine_registered("numa-hierarchical"));
  auto engine = sched::make_engine("numa-hierarchical");
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->name(), "numa-hierarchical");
  const std::vector<std::string> names = sched::engine_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "numa-hierarchical"),
            names.end());
}

TEST(NumaEngine, AccountsEveryTaskAndClassifiesSteals) {
  const sched::TaskGraph g = fork_join_graph(64);
  ThreadTeam team(4, /*pin=*/true);
  auto engine = sched::make_engine("numa-hierarchical");
  std::vector<std::atomic<int>> ran(g.num_tasks());
  const sched::EngineStats st = engine->run(
      team, g, [&](int id, int) { ran[id].fetch_add(1); }, {});
  for (int i = 0; i < g.num_tasks(); ++i) EXPECT_EQ(ran[i].load(), 1);
  // The work-stealing stats contract: every task is a local pop or a
  // steal, and every steal lands in exactly one distance class.
  EXPECT_EQ(st.static_pops + st.dynamic_pops + st.steals,
            static_cast<std::uint64_t>(g.num_tasks()));
  std::uint64_t classified = 0;
  for (std::uint64_t n : st.steals_by_class) classified += n;
  EXPECT_EQ(classified, st.steals);
  EXPECT_GE(st.steal_attempts, st.steals);
  EXPECT_EQ(st.promotions, 0u);
  EXPECT_EQ(st.pinned_threads, team.pinned_count());
}

TEST(NumaEngine, RunsRepeatedlyWithoutLeakingState) {
  const sched::TaskGraph g = fork_join_graph(32);
  ThreadTeam team(4, /*pin=*/false);  // unpinned: kUnknown victim path
  auto engine = sched::make_engine("numa-hierarchical");
  for (int rep = 0; rep < 20; ++rep) {
    std::atomic<int> count{0};
    const sched::EngineStats st =
        engine->run(team, g, [&](int, int) { count.fetch_add(1); }, {});
    EXPECT_EQ(count.load(), g.num_tasks());
    EXPECT_EQ(st.static_pops + st.dynamic_pops + st.steals,
              static_cast<std::uint64_t>(g.num_tasks()));
  }
}

TEST(NumaEngine, StampsStealDistanceOnTrace) {
  const sched::TaskGraph g = fork_join_graph(64);
  ThreadTeam team(4, /*pin=*/false);
  auto engine = sched::make_engine("numa-hierarchical");
  trace::Recorder rec;
  rec.start(team.size());
  sched::RunHooks hooks;
  hooks.recorder = &rec;
  const sched::EngineStats st =
      engine->run(team, g, [&](int, int) {}, hooks);
  rec.stop();
  std::uint64_t traced_steals = 0;
  for (int t = 0; t < rec.threads(); ++t)
    for (const trace::Event& e : rec.thread_events(t))
      if (e.steal_class >= 0) {
        ++traced_steals;
        EXPECT_TRUE(e.dynamic);
        EXPECT_LT(e.steal_class, trace::kStealClassCount);
      }
  EXPECT_EQ(traced_steals, st.steals);
}

// --------------------------------------------- first-touch pack ---

TEST(FirstTouchPack, OwnerRunnerVisitsEachOwnerOnItsThread) {
  layout::Matrix a = layout::Matrix::random(50, 50, 42);
  ThreadTeam team(2, /*pin=*/false);
  std::mutex mu;
  std::vector<std::pair<int, int>> seen;  // (owner, tid % p expected)
  std::atomic<int> nowners_seen{0};
  layout::OwnerRunner place = [&](int nowners,
                                  const std::function<void(int)>& fill) {
    nowners_seen = nowners;
    team.run([&](int tid) {
      for (int g = tid; g < nowners; g += team.size()) {
        fill(g);
        std::lock_guard lk(mu);
        seen.emplace_back(g, tid);
      }
    });
  };
  const layout::Grid grid{2, 2};
  layout::PackedMatrix p =
      layout::PackedMatrix::pack(a, layout::Layout::BlockCyclic, 8, grid,
                                 place);
  EXPECT_EQ(nowners_seen.load(), grid.size());
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(grid.size()));
  std::set<int> owners;
  for (const auto& [g, tid] : seen) {
    owners.insert(g);
    EXPECT_EQ(g % team.size(), tid);  // the engines' owner→thread map
  }
  EXPECT_EQ(owners.size(), static_cast<std::size_t>(grid.size()));
}

TEST(FirstTouchPack, PlacedPackIsBitIdenticalToSerial) {
  layout::Matrix a = layout::Matrix::random(61, 47, 7);  // partial edges
  ThreadTeam team(3, /*pin=*/false);
  core::Options opt;  // first_touch defaults on
  const layout::OwnerRunner place = core::owner_runner_from(opt, team);
  ASSERT_TRUE(static_cast<bool>(place));
  const layout::Grid grid{2, 2};
  for (const layout::Layout layout :
       {layout::Layout::BlockCyclic, layout::Layout::TwoLevelBlock}) {
    layout::PackedMatrix serial =
        layout::PackedMatrix::pack(a, layout, 8, grid);
    layout::PackedMatrix placed =
        layout::PackedMatrix::pack(a, layout, 8, grid, place);
    for (int j = 0; j < a.cols(); ++j)
      for (int i = 0; i < a.rows(); ++i)
        EXPECT_EQ(serial.get(i, j), placed.get(i, j))
            << "layout " << layout_name(layout) << " at (" << i << "," << j
            << ")";
  }
}

TEST(FirstTouchPack, RunnerDisabledForSingleThreadOrOptOut) {
  ThreadTeam team1(1, false);
  core::Options opt;
  EXPECT_FALSE(static_cast<bool>(core::owner_runner_from(opt, team1)));
  ThreadTeam team4(4, false);
  opt.first_touch = false;
  EXPECT_FALSE(static_cast<bool>(core::owner_runner_from(opt, team4)));
  opt.first_touch = true;
  EXPECT_TRUE(static_cast<bool>(core::owner_runner_from(opt, team4)));
}

TEST(FirstTouchPack, FactorizationMatchesSerialPack) {
  // End to end: getrf through a session (first-touch pack) must produce
  // bit-identical factors to a pre-packed serial matrix.
  layout::Matrix a = layout::Matrix::random(64, 64, 11);
  core::Options opt;
  opt.b = 16;
  opt.threads = 4;
  opt.pr = opt.pc = 2;
  opt.pin_threads = false;
  opt.engine = "numa-hierarchical";

  layout::Matrix a_serial = a;
  layout::PackedMatrix p =
      layout::PackedMatrix::pack(a_serial, opt.layout, opt.b,
                                 opt.resolved_grid());
  core::Factorization ref = core::getrf(p, opt);
  p.unpack(a_serial);

  core::Factorization f = core::getrf(a, opt);
  ASSERT_EQ(ref.ipiv, f.ipiv);
  for (int j = 0; j < a.cols(); ++j)
    for (int i = 0; i < a.rows(); ++i) EXPECT_EQ(a(i, j), a_serial(i, j));
}

}  // namespace
}  // namespace calu
