// topology.h — machine hierarchy probe for thread pinning.
//
// This header turns the kernel's sysfs description of the machine
// (`cpu/cpuN/topology/{physical_package_id,core_id}` and
// `cpu/cpuN/cache/indexM/{level,type,shared_cpu_list}`) into a dense
// cpu → {core, L2 group, L3 group, package} hierarchy.
//
// Consumers:
//   * `ThreadTeam` pins threads in `pin_order()` (hierarchical,
//     physical-cores-first) restricted to the process affinity mask.
//   * The benches stamp `summary()`, so numbers say what machine shape
//     produced them.
//
// Probing is fixture-friendly: every parser takes a root directory, so
// tests feed synthetic sysfs trees (single-socket SMT, dual-socket,
// cpuset-restricted) and get deterministic hierarchies on any container —
// including this repo's usual single-cpu CI runner.
#pragma once

#include <string>
#include <vector>

namespace calu::sched {

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

  int num_cpus() const { return static_cast<int>(cpus_.size()); }
  const CpuInfo& cpu_at(int idx) const { return cpus_[idx]; }

  int packages() const { return packages_; }
  int cores() const { return cores_; }
  int l2_groups() const { return l2_groups_; }
  int l3_groups() const { return l3_groups_; }
  /// Max SMT ways over the cores (1 = no SMT visible).
  int smt_ways() const { return smt_ways_; }

  /// Cpu ids in pinning order: one hardware thread per physical core
  /// first (walking packages/L3 groups round-robin stays *out*; the
  /// paper's experiments fill a socket before spilling, so we sort
  /// hierarchically), then second SMT siblings, and so on.  Threads
  /// pinned to adjacent ranks therefore share the deepest possible
  /// cache level once the core count is exhausted, and a team never
  /// doubles up SMT siblings while whole cores sit idle.
  std::vector<int> pin_order() const;

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
