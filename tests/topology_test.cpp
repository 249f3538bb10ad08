// topology_test.cpp — the sysfs topology probe against synthetic
// fixtures, pin order, and the owner-ordered parallel pack.
//
// The probe is exercised through fabricated sysfs trees written under
// the test's working directory (single-socket SMT, dual-socket, and a
// cpuset-restricted view of the latter), so every assertion is
// deterministic on any container — including single-cpu CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/core/calu.h"
#include "src/layout/packed.h"
#include "src/sched/thread_team.h"
#include "src/sched/topology.h"
#include "tests/test_util.h"

namespace calu {
namespace {

namespace fs = std::filesystem;
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

/// The parsed hierarchy, one (cpu, package, core, l2, l3) row per
/// cpu_at(i).
using Row = std::array<int, 5>;
std::vector<Row> hierarchy(const Topology& topo) {
  std::vector<Row> rows;
  for (int i = 0; i < topo.num_cpus(); ++i) {
    const sched::CpuInfo& c = topo.cpu_at(i);
    rows.push_back({c.cpu, c.package, c.core, c.l2, c.l3});
  }
  return rows;
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
  // Siblings (0, 2) and (1, 3) share a core and its L2; the two cores
  // meet at the socket's L3.
  EXPECT_EQ(hierarchy(topo), (std::vector<Row>{{0, 0, 0, 0, 0},
                                               {1, 0, 1, 1, 0},
                                               {2, 0, 0, 0, 0},
                                               {3, 0, 1, 1, 0}}));
  EXPECT_EQ(topo.cpu_at(2).smt_rank, 1);
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
  // One core and L2 per cpu; one L3 per socket.
  const std::vector<Row> rows = hierarchy(topo);
  ASSERT_EQ(rows.size(), 8u);
  for (int c = 0; c < 8; ++c) EXPECT_EQ(rows[c], (Row{c, c / 4, c, c, c / 4}));
  EXPECT_EQ(topo.pin_order(), (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(topo.summary(), "2pkg/2l3/8core/1smt");
}

TEST(Topology, CpusetRestrictionDropsMaskedCpus) {
  // The same dual-socket tree seen through a container cpuset {1, 2, 5}:
  // the probe must only describe what the process may run on.
  SysfsFixture fx = make_two_socket_fixture();
  const Topology topo = Topology::probe(fx.root(), {1, 2, 5});
  EXPECT_EQ(topo.num_cpus(), 3);
  EXPECT_EQ(topo.packages(), 2);
  // Cpus 1 and 2 share socket 0's L3; cpu 5 is on socket 1.
  EXPECT_EQ(hierarchy(topo), (std::vector<Row>{{1, 0, 0, 0, 0},
                                               {2, 0, 1, 1, 0},
                                               {5, 1, 2, 2, 1}}));
  EXPECT_EQ(topo.pin_order(), (std::vector<int>{1, 2, 5}));
  EXPECT_EQ(topo.summary(), "2pkg/2l3/3core/1smt");
}

TEST(Topology, MissingTreeDegradesToFlatSharedL3) {
  const Topology topo = Topology::probe("topo_fixture/nonexistent", {0, 1});
  EXPECT_EQ(topo.num_cpus(), 2);
  EXPECT_EQ(topo.packages(), 1);
  // Every cpu its own core, all sharing one L3.
  EXPECT_EQ(hierarchy(topo),
            (std::vector<Row>{{0, 0, 0, 0, 0}, {1, 0, 1, 1, 0}}));
  EXPECT_EQ(topo.pin_order(), (std::vector<int>{0, 1}));
  EXPECT_EQ(topo.summary(), "1pkg/1l3/2core/1smt");
}

TEST(Topology, SystemTopologyCoversAffinity) {
  const Topology& topo = sched::system_topology();
  const std::vector<int> allowed = sched::affinity_cpus();
  std::vector<int> cpus;
  for (const Row& row : hierarchy(topo)) cpus.push_back(row[0]);
  EXPECT_EQ(cpus, allowed);
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
  const layout::OwnerRunner place = core::owner_runner_from({}, team);
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

TEST(FirstTouchPack, RunnerDisabledForSingleThread) {
  ThreadTeam team1(1, false);
  EXPECT_FALSE(static_cast<bool>(core::owner_runner_from({}, team1)));
  ThreadTeam team4(4, false);
  EXPECT_TRUE(static_cast<bool>(core::owner_runner_from({}, team4)));
}

TEST(FirstTouchPack, FactorizationMatchesSerialPack) {
  // End to end: getrf through a session (owner-ordered parallel pack)
  // must produce bit-identical factors to a pre-packed serial matrix.
  // 4x4 tiles on a 2x2 grid: a tiled shape, so the owner runner packs it.
  layout::Matrix a = layout::Matrix::random(288, 288, 11);
  core::Options opt;
  opt.b = 72;
  opt.threads = 4;
  opt.pr = opt.pc = 2;
  opt.pin_threads = false;
  opt.engine = "work-stealing";

  layout::Matrix a_serial = a;
  layout::PackedMatrix p =
      layout::PackedMatrix::pack(a_serial, opt.layout, opt.b,
                                 opt.resolved_grid());
  core::Factorization ref = core::getrf(p, opt);
  p.unpack(a_serial);

  core::Factorization f = core::getrf(a, opt);
  test::expect_tiled(ref.stats);
  test::expect_tiled(f.stats);
  ASSERT_EQ(ref.ipiv, f.ipiv);
  for (int j = 0; j < a.cols(); ++j)
    for (int i = 0; i < a.rows(); ++i) EXPECT_EQ(a(i, j), a_serial(i, j));
}

}  // namespace
}  // namespace calu
