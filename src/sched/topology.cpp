#include "src/sched/topology.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <utility>

#ifdef __linux__
#include <sched.h>
#include <sys/stat.h>
#endif

namespace calu::sched {
namespace {

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

}  // namespace

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
      info.l3 = 0;  // ...sharing one LLC
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
  static const Topology topo =
      Topology::probe(Topology::kDefaultSysfsRoot, affinity_cpus());
  return topo;
}

}  // namespace calu::sched
