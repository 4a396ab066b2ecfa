#ifndef EQIMPACT_SIM_SCENARIO_REGISTRY_H_
#define EQIMPACT_SIM_SCENARIO_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "sim/scenario.h"

namespace eqimpact {
namespace sim {

/// String-keyed scenario registry — the seam through which CLIs, the
/// perf bench and the service reach the experiment/sweep drivers from
/// flag-style specs. It is a read-only table of the built-in scenarios
/// ("credit", "market", "ensemble"), built on first access; a new
/// scenario is one more line in that table (scenario_registry.cc).
/// Nothing writes the table after it is built, so every function here
/// may be called from any thread at once (the service validates specs on
/// its loop thread while its workers create scenarios).

/// A fresh scenario instance with default configuration, or null for an
/// unknown name.
std::unique_ptr<Scenario> CreateScenario(const std::string& name);

/// The factory registered under `name` (for RunSweep), or null.
ScenarioFactory GetScenarioFactory(const std::string& name);

/// Registered names, sorted.
std::vector<std::string> RegisteredScenarioNames();

}  // namespace sim
}  // namespace eqimpact

#endif  // EQIMPACT_SIM_SCENARIO_REGISTRY_H_
