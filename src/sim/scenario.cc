#include "sim/scenario.h"

#include <cmath>

namespace eqimpact {
namespace sim {

bool ParameterInRange(double value, double lo, double hi) {
  return std::isfinite(value) && value >= lo && value <= hi;
}

bool CountParameterInRange(double value) {
  return ParameterInRange(value, 1.0, kMaxCountParameter);
}

Scenario::~Scenario() = default;

std::vector<std::string> Scenario::MetricNames() const { return {}; }

double Scenario::impact_lo() const { return 0.0; }

double Scenario::impact_hi() const { return 1.0; }

bool Scenario::SetParameter(const std::string& /*name*/, double /*value*/) {
  return false;
}

std::vector<std::string> Scenario::ParameterNames() const { return {}; }

void Scenario::BeginExperiment(size_t /*num_trials*/) {}

std::optional<ScenarioDynamics> Scenario::DynamicsModel() const {
  return std::nullopt;
}

std::optional<uint64_t> Scenario::CheckpointFingerprint() const {
  return std::nullopt;
}

base::SnapshotStatus Scenario::CheckEngineState(
    const TrialContext& /*context*/,
    const std::vector<uint8_t>& /*state*/) const {
  return base::SnapshotStatus::kShape;
}

}  // namespace sim
}  // namespace eqimpact
