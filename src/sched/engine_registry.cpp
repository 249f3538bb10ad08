#include "src/sched/engine_registry.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <mutex>
#include <set>
#include <utility>

namespace calu::sched {

// The built-in engines, defined in engine.cpp.  Declared here, not in a
// public header: everything outside the registry goes through names.
namespace detail {
std::vector<std::pair<std::string, EngineFactory>> builtin_engines();
}  // namespace detail

namespace {

struct Registry {
  std::mutex mu;
  // std::less<> enables heterogeneous string_view lookup.
  std::map<std::string, EngineFactory, std::less<>> factories;

  Registry() {
    for (auto& [name, factory] : detail::builtin_engines())
      factories.emplace(std::move(name), std::move(factory));
  }
};

Registry& registry() {
  static Registry r;  // constructed on first use; built-ins always present
  return r;
}

}  // namespace

bool register_engine(std::string name, EngineFactory factory) {
  Registry& r = registry();
  std::lock_guard lk(r.mu);
  auto [it, inserted] =
      r.factories.emplace(std::move(name), std::move(factory));
  (void)it;
  return inserted;
}

std::unique_ptr<Engine> make_engine(std::string_view name) {
  EngineFactory factory;
  {
    Registry& r = registry();
    std::lock_guard lk(r.mu);
    auto it = r.factories.find(name);
    if (it == r.factories.end()) return nullptr;
    factory = it->second;  // copy so user factories may re-enter the registry
  }
  return factory();
}

std::unique_ptr<Engine> make_engine_or_default(std::string_view name) {
  std::unique_ptr<Engine> engine = make_engine(name);
  if (!engine) {
    // Warn once per unknown name: the fallback typically sits on a hot
    // per-call path (every factorization of a batch resolves its engine),
    // and a typo'd name must not spam stderr thousands of times.
    static std::mutex warned_mu;
    static std::set<std::string, std::less<>> warned;
    bool first;
    {
      std::lock_guard lk(warned_mu);
      first = warned.emplace(name).second;
    }
    if (first)
      std::fprintf(stderr,
                   "calu::sched: unknown engine '%.*s', using \"hybrid\"\n",
                   static_cast<int>(name.size()), name.data());
    engine = make_engine("hybrid");
  }
  return engine;
}

bool engine_registered(std::string_view name) {
  Registry& r = registry();
  std::lock_guard lk(r.mu);
  return r.factories.find(name) != r.factories.end();
}

std::vector<std::string> engine_names() {
  Registry& r = registry();
  std::lock_guard lk(r.mu);
  std::vector<std::string> names;
  names.reserve(r.factories.size());
  for (const auto& [name, factory] : r.factories) names.push_back(name);
  return names;  // std::map iterates sorted
}

}  // namespace calu::sched
