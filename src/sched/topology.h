// topology.h — machine hierarchy probe for distance-aware scheduling.
//
// The paper's NUMA results (fig07/10/13/17) depend on *where* a stolen
// task's data lives: a steal from an SMT sibling shares L1/L2, a steal
// across packages pays an interconnect round trip.  This header turns the
// kernel's sysfs description of the machine
// (`cpu/cpuN/topology/{physical_package_id,core_id}` and
// `cpu/cpuN/cache/indexM/{level,type,shared_cpu_list}`) into a dense
// cpu → {core, L2 group, L3 group, package} hierarchy, optionally
// augmented with a small measured steal-latency table (mctop-style
// cache-line ping-pong between pinned thread pairs) so the distance
// ordering reflects the actual machine rather than the sysfs labels.
//
// Consumers:
//   * `ThreadTeam` pins threads in `pin_order()` (hierarchical,
//     physical-cores-first) restricted to the process affinity mask.
//   * The "numa-hierarchical" engine (the ChaseLev policy, engine.cpp)
//     groups steal victims by `classify()` so idle threads raid the
//     nearest deque first and cross-package traffic is the last resort.
//   * The benches stamp `summary()` into BENCH_kernels.json so committed
//     numbers say what machine shape produced them.
//
// Probing is fixture-friendly: every parser takes a root directory, so
// tests feed synthetic sysfs trees (single-socket SMT, dual-socket,
// cpuset-restricted) and get deterministic hierarchies on any container —
// including this repo's usual single-cpu CI runner.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace calu::sched {

/// Steal-distance classes, nearest first.  The numeric order *is* the
/// victim-selection order of the numa-hierarchical engine and the index
/// into EngineStats::steals_by_class.
enum class StealClass : std::uint8_t {
  kSmtSibling = 0,   // same physical core (shared L1/L2)
  kSharedL2 = 1,     // different core, common L2 (e.g. compute-tile pairs)
  kSharedL3 = 2,     // same last-level-cache group
  kSamePackage = 3,  // same package, different L3 group (e.g. Zen CCX)
  kCrossPackage = 4, // different package: interconnect hop
  kUnknown = 5,      // placement unknown (unpinned thread / probe failed)
};

inline constexpr int kStealClassCount = 6;

/// Short stable label ("smt", "l2", "l3", "pkg", "xpkg", "unk") used by
/// EngineStats::report and the bench JSON stamp.
const char* steal_class_name(StealClass c);

/// Parses a sysfs `shared_cpu_list`-style string ("0-3,8-11") into cpu
/// ids.  Exposed for the fixture tests; tolerant of trailing newlines.
std::vector<int> parse_cpu_list(const std::string& text);

/// One logical cpu's position in the hierarchy.  Group ids are dense
/// per-topology indices (not raw sysfs values), so they compare directly.
struct CpuInfo {
  int cpu = -1;       // logical cpu id (sysfs cpuN)
  int package = 0;    // dense package index
  int core = 0;       // dense physical-core index (package × core_id)
  int l2 = 0;         // dense L2 sharing-group index
  int l3 = 0;         // dense L3 sharing-group index
  int smt_rank = 0;   // position among this core's SMT siblings (0 first)
};

class Topology {
 public:
  /// Parses a sysfs cpu tree.  `root` is the directory holding `cpuN/`
  /// subdirectories (defaults to the live kernel tree); `allowed`
  /// restricts the probe to those cpu ids (empty = every cpu present in
  /// the tree), which is how cpuset/container masks — and the
  /// cpuset-restricted test fixture — are applied.  Unreadable topology
  /// files degrade gracefully: missing package/core ids collapse into
  /// one package of independent cores sharing one L3.
  static Topology probe(const std::string& root = kDefaultSysfsRoot,
                        std::vector<int> allowed = {});

  /// Deterministic synthetic machine: `packages` × `l3_per_package` L3
  /// groups × `cores_per_l3` cores × `smt` hardware threads per core,
  /// cpu ids dense from 0 in hierarchy order.  One L2 per core.
  static Topology synthetic(int packages, int l3_per_package,
                            int cores_per_l3, int smt);

  int num_cpus() const { return static_cast<int>(cpus_.size()); }
  const CpuInfo& cpu_at(int idx) const { return cpus_[idx]; }
  /// Dense index of logical cpu id `cpu`, or -1 if not in this topology.
  int index_of(int cpu) const;

  int packages() const { return packages_; }
  int cores() const { return cores_; }
  int l2_groups() const { return l2_groups_; }
  int l3_groups() const { return l3_groups_; }
  /// Max SMT ways over the cores (1 = no SMT visible).
  int smt_ways() const { return smt_ways_; }

  /// Distance class between two logical cpu ids.  Unknown ids (or a
  /// negative id, the "thread not pinned" sentinel) yield kUnknown.
  StealClass classify(int cpu_a, int cpu_b) const;

  /// Cpu ids in pinning order: one hardware thread per physical core
  /// first (walking packages/L3 groups round-robin stays *out*; the
  /// paper's experiments fill a socket before spilling, so we sort
  /// hierarchically), then second SMT siblings, and so on.  Threads
  /// pinned to adjacent ranks therefore share the deepest possible
  /// cache level once the core count is exhausted, and a team never
  /// doubles up SMT siblings while whole cores sit idle.
  std::vector<int> pin_order() const;

  /// Measures a per-class steal latency table by cache-line ping-pong
  /// between one representative cpu pair per distance class (mctop's
  /// trick, reduced to the classes we act on).  Classes with no pair on
  /// this machine keep -1.  Safe anywhere: if pinning fails the sample
  /// still measures (just unpinned) and the table stays monotone on the
  /// machines we care about.  `iters` round trips per pair.
  void measure_class_latencies(int iters = 4000);

  /// Injects a latency table (tests / fixtures).  ns[c] < 0 = unknown.
  void set_class_latencies(const double (&ns)[kStealClassCount]);

  /// Measured (or injected) per-class latency in ns; -1 if unknown.
  double class_latency_ns(StealClass c) const {
    return class_ns_[static_cast<int>(c)];
  }

  /// Steal cost used for victim ordering: the measured latency when
  /// available, otherwise the class rank (so order degrades to the sysfs
  /// hierarchy exactly).
  double steal_cost(StealClass c) const;

  /// One-line shape summary for logs: "2pkg/4l3/16core/2smt".
  std::string summary() const;

  static constexpr const char* kDefaultSysfsRoot =
      "/sys/devices/system/cpu";

 private:
  void finalize();  // recomputes dense group counts + smt ranks

  std::vector<CpuInfo> cpus_;  // sorted by cpu id
  int packages_ = 0;
  int cores_ = 0;
  int l2_groups_ = 0;
  int l3_groups_ = 0;
  int smt_ways_ = 1;
  double class_ns_[kStealClassCount] = {-1, -1, -1, -1, -1, -1};
};

/// The live machine's topology, probed once per process from sysfs and
/// restricted to the process affinity mask (so cpusets/containers see
/// only what they may run on).  Never fails: worst case is a flat
/// single-package topology over the affinity mask.
const Topology& system_topology();

/// Logical cpu ids this process may run on (sched_getaffinity), sorted.
/// Falls back to 0..hardware_concurrency-1 where unavailable.
std::vector<int> affinity_cpus();

}  // namespace calu::sched
