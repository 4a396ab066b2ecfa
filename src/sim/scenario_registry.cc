#include "sim/scenario_registry.h"

#include <map>

#include "sim/credit_scenario.h"
#include "sim/ensemble_scenario.h"
#include "sim/market_scenario.h"

namespace eqimpact {
namespace sim {
namespace {

/// The built-in scenarios. Function-local: no static-initialization-order
/// hazards, and the entries are listed here rather than self-registered
/// from globals (which static libraries dead-strip). Built once, read-only
/// after that, and never destroyed, so a lookup is safe from any thread
/// at any time, exit included.
const std::map<std::string, ScenarioFactory>& Registry() {
  static const auto* registry = new std::map<std::string, ScenarioFactory>{
      {"credit",
       [] { return std::unique_ptr<Scenario>(new CreditScenario()); }},
      {"market",
       [] { return std::unique_ptr<Scenario>(new MatchingMarketScenario()); }},
      {"ensemble",
       [] { return std::unique_ptr<Scenario>(new EnsembleScenario()); }},
  };
  return *registry;
}

}  // namespace

std::unique_ptr<Scenario> CreateScenario(const std::string& name) {
  ScenarioFactory factory = GetScenarioFactory(name);
  return factory ? factory() : nullptr;
}

ScenarioFactory GetScenarioFactory(const std::string& name) {
  auto it = Registry().find(name);
  return it == Registry().end() ? ScenarioFactory() : it->second;
}

std::vector<std::string> RegisteredScenarioNames() {
  std::vector<std::string> names;
  names.reserve(Registry().size());
  for (const auto& entry : Registry()) names.push_back(entry.first);
  return names;
}

}  // namespace sim
}  // namespace eqimpact
