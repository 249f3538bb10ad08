// engine_registry.h — string-keyed factory registry for executors.
//
// The registry is the seam every future executor plugs into: drivers ask
// for an engine by name ("hybrid", "locality-tags", "work-stealing",
// "numa-hierarchical", "priority-lookahead") and never link against a
// concrete executor.
// Registration is explicit (the built-ins are registered on first use), so
// a static-library build cannot silently drop an engine TU, and downstream
// code can add engines at runtime:
//
//   sched::register_engine("my-numa-ws",
//                          [] { return std::make_unique<...>(); });
//   auto eng = sched::make_engine("my-numa-ws");
//   auto stats = eng->run(team, graph, exec);
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/sched/engine.h"

namespace calu::sched {

using EngineFactory = std::function<std::unique_ptr<Engine>()>;

/// Registers a factory under `name`.  Returns true on success; a name
/// that is already registered (built-in or user) is REJECTED and false is
/// returned — an executor cannot be silently hijacked.  Thread-safe.
bool register_engine(std::string name, EngineFactory factory);

/// Builds a fresh engine instance; nullptr when `name` is unknown.
std::unique_ptr<Engine> make_engine(std::string_view name);

/// make_engine(), but an unknown name warns on stderr (once per distinct
/// name — the call sits on per-factorization paths, so a typo must not
/// spam a batch run) and falls back to "hybrid" instead of returning
/// nullptr — the drivers use this so a typo'd Options::engine degrades to
/// the default executor rather than crashing a release build.
std::unique_ptr<Engine> make_engine_or_default(std::string_view name);

/// True when `name` resolves to a factory.
bool engine_registered(std::string_view name);

/// Sorted names of every registered engine (built-ins included).
std::vector<std::string> engine_names();

}  // namespace calu::sched
