#include "src/sched/topology.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <utility>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#include <sys/stat.h>
#endif

namespace calu::sched {
namespace {

// Fallback steal-cost estimates (ns) per class, used until (or instead
// of) measurement: round numbers in the right rank order, taken from the
// usual shared-L1 / shared-LLC / interconnect latency regimes.  Only the
// *order* matters for victim selection; measurement refines per machine.
constexpr double kDefaultClassNs[kStealClassCount] = {25.0,  40.0,  80.0,
                                                      130.0, 300.0, 400.0};

bool dir_exists(const std::string& path) {
#ifdef __linux__
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
#else
  (void)path;
  return false;
#endif
}

/// Reads a small sysfs text file; returns false if unreadable.
bool read_text(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::getline(in, out);
  return true;
}

bool read_int(const std::string& path, int& out) {
  std::string text;
  if (!read_text(path, text)) return false;
  try {
    out = std::stoi(text);
  } catch (...) {
    return false;
  }
  return true;
}

/// Pins the calling thread to `cpu` (best effort; returns success).
bool pin_self(int cpu) {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

/// One cache-line ping-pong pair: returns mean round-trip ns over
/// `iters` bounces, threads pinned (best effort) to cpu_a / cpu_b.
double ping_pong_ns(int cpu_a, int cpu_b, int iters) {
  alignas(64) std::atomic<int> ball{0};
  std::atomic<bool> go{false};
  double elapsed_ns = 0.0;

  std::thread responder([&] {
    pin_self(cpu_b);
    go.store(true, std::memory_order_release);
    for (int i = 0; i < iters; ++i) {
      int spins = 0;
      while (ball.load(std::memory_order_acquire) != 1)
        if (++spins > 4096) {
          std::this_thread::yield();  // survives a single-cpu machine
          spins = 0;
        }
      ball.store(0, std::memory_order_release);
    }
  });

  // The timing side gets a thread of its own too: pinning the caller
  // would leave the thread that first asks for the topology on cpu_a.
  std::thread initiator([&] {
    pin_self(cpu_a);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      ball.store(1, std::memory_order_release);
      int spins = 0;
      while (ball.load(std::memory_order_acquire) != 0)
        if (++spins > 4096) {
          std::this_thread::yield();
          spins = 0;
        }
    }
    elapsed_ns = std::chrono::duration<double, std::nano>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
  });
  initiator.join();
  responder.join();
  return elapsed_ns / iters;
}

}  // namespace

const char* steal_class_name(StealClass c) {
  switch (c) {
    case StealClass::kSmtSibling: return "smt";
    case StealClass::kSharedL2: return "l2";
    case StealClass::kSharedL3: return "l3";
    case StealClass::kSamePackage: return "pkg";
    case StealClass::kCrossPackage: return "xpkg";
    case StealClass::kUnknown: break;
  }
  return "unk";
}

std::vector<int> parse_cpu_list(const std::string& text) {
  std::vector<int> cpus;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    const auto dash = item.find('-');
    try {
      if (dash == std::string::npos) {
        cpus.push_back(std::stoi(item));
      } else {
        const int lo = std::stoi(item.substr(0, dash));
        const int hi = std::stoi(item.substr(dash + 1));
        for (int c = lo; c <= hi; ++c) cpus.push_back(c);
      }
    } catch (...) {
      // Tolerate malformed fragments: sysfs never produces them, but a
      // truncated fixture must not abort the probe.
    }
  }
  std::sort(cpus.begin(), cpus.end());
  cpus.erase(std::unique(cpus.begin(), cpus.end()), cpus.end());
  return cpus;
}

Topology Topology::probe(const std::string& root, std::vector<int> allowed) {
  std::sort(allowed.begin(), allowed.end());
  // Which cpus exist in the tree?  Sysfs cpu ids can be sparse (offline /
  // hotplug holes), so probe directories rather than assuming 0..n-1.
  std::vector<int> present;
  constexpr int kMaxCpuScan = 4096;
  for (int c = 0; c < kMaxCpuScan; ++c) {
    if (!allowed.empty() &&
        !std::binary_search(allowed.begin(), allowed.end(), c))
      continue;
    if (dir_exists(root + "/cpu" + std::to_string(c))) present.push_back(c);
  }
  if (present.empty()) {
    // No tree at all (non-Linux, or a bogus fixture root): degrade to a
    // flat machine over the allowed set so callers always get something.
    if (allowed.empty()) allowed = affinity_cpus();
    present = std::move(allowed);
    if (present.empty()) present.push_back(0);
    Topology topo;
    for (int idx = 0; idx < static_cast<int>(present.size()); ++idx) {
      CpuInfo info;
      info.cpu = present[idx];
      info.package = 0;
      info.core = idx;  // every cpu its own core...
      info.l2 = idx;
      info.l3 = 0;  // ...sharing one LLC: distinct cpus are kSharedL3
      topo.cpus_.push_back(info);
    }
    topo.finalize();
    return topo;
  }

  // Dense remapping tables: raw sysfs ids / share-strings → 0-based.
  std::map<int, int> package_ids;
  std::map<std::pair<int, int>, int> core_ids;  // (package, core_id)
  std::map<std::string, int> l2_keys, l3_keys;

  Topology topo;
  for (int c : present) {
    const std::string cpu_dir = root + "/cpu" + std::to_string(c);
    CpuInfo info;
    info.cpu = c;

    int pkg = 0;
    if (!read_int(cpu_dir + "/topology/physical_package_id", pkg) &&
        !read_int(cpu_dir + "/topology/package_id", pkg))
      pkg = 0;
    int core = c;  // unreadable core_id: every cpu its own core
    read_int(cpu_dir + "/topology/core_id", core);

    info.package = package_ids.emplace(pkg, static_cast<int>(package_ids.size()))
                       .first->second;
    info.core = core_ids
                    .emplace(std::make_pair(pkg, core),
                             static_cast<int>(core_ids.size()))
                    .first->second;

    // Cache sharing groups.  The raw shared_cpu_list string is the group
    // key: identical lists ⇒ same physical cache, and restriction by
    // `allowed` cannot split a group (both members keep the same string).
    std::string l2_key, l3_key;
    for (int index = 0; index < 16; ++index) {
      const std::string cache_dir =
          cpu_dir + "/cache/index" + std::to_string(index);
      int level = 0;
      if (!read_int(cache_dir + "/level", level)) continue;
      std::string type;
      read_text(cache_dir + "/type", type);
      if (type == "Instruction") continue;
      std::string shared;
      if (!read_text(cache_dir + "/shared_cpu_list", shared)) continue;
      if (level == 2 && l2_key.empty()) l2_key = shared;
      if (level == 3 && l3_key.empty()) l3_key = shared;
    }
    // Missing levels degrade inward/outward: no L2 ⇒ private per core,
    // no L3 ⇒ the package is one LLC group.
    if (l2_key.empty()) l2_key = "core:" + std::to_string(info.core);
    if (l3_key.empty()) l3_key = "pkg:" + std::to_string(info.package);
    info.l2 =
        l2_keys.emplace(l2_key, static_cast<int>(l2_keys.size())).first->second;
    info.l3 =
        l3_keys.emplace(l3_key, static_cast<int>(l3_keys.size())).first->second;

    topo.cpus_.push_back(info);
  }
  topo.finalize();
  return topo;
}

Topology Topology::synthetic(int packages, int l3_per_package,
                             int cores_per_l3, int smt) {
  Topology topo;
  int cpu = 0, core = 0, l3 = 0;
  for (int p = 0; p < packages; ++p)
    for (int g = 0; g < l3_per_package; ++g, ++l3)
      for (int c = 0; c < cores_per_l3; ++c, ++core)
        for (int s = 0; s < smt; ++s, ++cpu) {
          CpuInfo info;
          info.cpu = cpu;
          info.package = p;
          info.core = core;
          info.l2 = core;  // one private L2 per core
          info.l3 = l3;
          topo.cpus_.push_back(info);
        }
  topo.finalize();
  return topo;
}

void Topology::finalize() {
  std::sort(cpus_.begin(), cpus_.end(),
            [](const CpuInfo& a, const CpuInfo& b) { return a.cpu < b.cpu; });
  int max_pkg = -1, max_core = -1, max_l2 = -1, max_l3 = -1;
  std::map<int, int> smt_seen;  // core → threads assigned so far
  for (CpuInfo& info : cpus_) {
    max_pkg = std::max(max_pkg, info.package);
    max_core = std::max(max_core, info.core);
    max_l2 = std::max(max_l2, info.l2);
    max_l3 = std::max(max_l3, info.l3);
    info.smt_rank = smt_seen[info.core]++;
  }
  packages_ = max_pkg + 1;
  cores_ = max_core + 1;
  l2_groups_ = max_l2 + 1;
  l3_groups_ = max_l3 + 1;
  smt_ways_ = 1;
  for (const auto& [core, n] : smt_seen) smt_ways_ = std::max(smt_ways_, n);
}

int Topology::index_of(int cpu) const {
  auto it = std::lower_bound(
      cpus_.begin(), cpus_.end(), cpu,
      [](const CpuInfo& info, int c) { return info.cpu < c; });
  if (it == cpus_.end() || it->cpu != cpu) return -1;
  return static_cast<int>(it - cpus_.begin());
}

StealClass Topology::classify(int cpu_a, int cpu_b) const {
  const int ia = index_of(cpu_a);
  const int ib = index_of(cpu_b);
  if (ia < 0 || ib < 0) return StealClass::kUnknown;
  const CpuInfo& a = cpus_[ia];
  const CpuInfo& b = cpus_[ib];
  if (a.core == b.core) return StealClass::kSmtSibling;
  if (a.l2 == b.l2) return StealClass::kSharedL2;
  if (a.l3 == b.l3) return StealClass::kSharedL3;
  if (a.package == b.package) return StealClass::kSamePackage;
  return StealClass::kCrossPackage;
}

std::vector<int> Topology::pin_order() const {
  std::vector<const CpuInfo*> order;
  order.reserve(cpus_.size());
  for (const CpuInfo& info : cpus_) order.push_back(&info);
  std::sort(order.begin(), order.end(),
            [](const CpuInfo* a, const CpuInfo* b) {
              if (a->smt_rank != b->smt_rank) return a->smt_rank < b->smt_rank;
              if (a->package != b->package) return a->package < b->package;
              if (a->l3 != b->l3) return a->l3 < b->l3;
              if (a->l2 != b->l2) return a->l2 < b->l2;
              if (a->core != b->core) return a->core < b->core;
              return a->cpu < b->cpu;
            });
  std::vector<int> cpus;
  cpus.reserve(order.size());
  for (const CpuInfo* info : order) cpus.push_back(info->cpu);
  return cpus;
}

void Topology::measure_class_latencies(int iters) {
  // One representative pair per class — mctop measures the full p×p
  // matrix, but the engine only acts on the class, so a sample per class
  // is enough and keeps the probe to a few ms.
  const int n = num_cpus();
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j) {
      const StealClass c = classify(cpus_[i].cpu, cpus_[j].cpu);
      double& slot = class_ns_[static_cast<int>(c)];
      if (slot >= 0) continue;
      slot = ping_pong_ns(cpus_[i].cpu, cpus_[j].cpu, iters);
    }
}

void Topology::set_class_latencies(const double (&ns)[kStealClassCount]) {
  for (int c = 0; c < kStealClassCount; ++c) class_ns_[c] = ns[c];
}

double Topology::steal_cost(StealClass c) const {
  const double measured = class_ns_[static_cast<int>(c)];
  return measured >= 0 ? measured : kDefaultClassNs[static_cast<int>(c)];
}

std::string Topology::summary() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%dpkg/%dl3/%dcore/%dsmt", packages_,
                l3_groups_, cores_, smt_ways_);
  return buf;
}

std::vector<int> affinity_cpus() {
  std::vector<int> cpus;
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
#endif
  if (cpus.empty()) {
    const unsigned n = std::thread::hardware_concurrency();
    for (int c = 0; c < static_cast<int>(n == 0 ? 1 : n); ++c)
      cpus.push_back(c);
  }
  return cpus;
}

const Topology& system_topology() {
  static const Topology topo = [] {
    Topology t = Topology::probe(Topology::kDefaultSysfsRoot, affinity_cpus());
    // A couple thousand bounces per class ≈ a few ms once per process;
    // single-cpu machines have no pairs, so this is free there.
    t.measure_class_latencies(/*iters=*/2000);
    return t;
  }();
  return topo;
}

}  // namespace calu::sched
