#include "sim/certify.h"

#include <cinttypes>
#include <cstdio>
#include <memory>

#include "base/check.h"
#include "base/json_escape.h"
#include "sim/scenario_registry.h"

namespace eqimpact {
namespace sim {
namespace {

// Every double renders with 17 significant digits, so it round-trips; a
// non-finite one (an infinite mixing bound) renders as null.
std::string JsonNumber(double value) {
  std::string out;
  base::AppendJsonNumber(&out, value, 17);
  return out;
}

void AppendCertificateJson(const ScenarioCertificate& certificate,
                           std::string* out) {
  char line[256];
  *out += "    {\n";
  std::snprintf(line, sizeof(line), "      \"scenario\": \"%s\",\n",
                base::JsonEscape(certificate.scenario).c_str());
  *out += line;
  std::snprintf(line, sizeof(line), "      \"has_model\": %s",
                certificate.has_model ? "true" : "false");
  *out += line;
  if (!certificate.has_model) {
    *out += "\n    }";
    return;
  }
  *out += ",\n";
  *out += "      \"model\": \"" +
          base::JsonEscape(certificate.model_description) + "\",\n";
  const core::SpectralCertificate& s = certificate.spectral;
  *out += "      \"lo\": " + JsonNumber(s.lo) + ",\n";
  *out += "      \"hi\": " + JsonNumber(s.hi) + ",\n";
  std::snprintf(line, sizeof(line), "      \"num_cells\": %zu,\n",
                s.num_cells);
  *out += line;
  *out += "      \"contraction_factor\": " +
          JsonNumber(s.contraction_factor) + ",\n";
  *out += std::string("      \"average_contractive\": ") +
          (s.average_contractive ? "true" : "false") + ",\n";
  *out += std::string("      \"irreducible\": ") +
          (s.irreducible ? "true" : "false") + ",\n";
  std::snprintf(line, sizeof(line), "      \"terminal_classes\": %zu,\n",
                s.terminal_classes);
  *out += line;
  *out += std::string("      \"invariant_measure_exists\": ") +
          (s.invariant_measure_exists ? "true" : "false") + ",\n";
  *out += "      \"invariant_mean\": " + JsonNumber(s.invariant_mean) + ",\n";
  *out += "      \"subdominant_modulus\": " +
          JsonNumber(s.subdominant_modulus) + ",\n";
  *out += "      \"spectral_gap\": " + JsonNumber(s.spectral_gap) + ",\n";
  *out += "      \"mixing_time_epsilon\": " +
          JsonNumber(s.mixing_time_epsilon) + ",\n";
  *out += "      \"mixing_time_bound_steps\": " +
          JsonNumber(s.mixing_time_bound) + ",\n";
  std::snprintf(line, sizeof(line), "      \"solver_iterations\": %d,\n",
                s.solver_iterations);
  *out += line;
  *out += std::string("      \"solver_converged\": ") +
          (s.solver_converged ? "true" : "false") + ",\n";
  std::snprintf(line, sizeof(line),
                "      \"measure_digest\": \"%016" PRIx64 "\",\n",
                s.measure_digest);
  *out += line;
  *out += std::string("      \"certified\": ") +
          (s.certified ? "true" : "false") + "\n";
  *out += "    }";
}

}  // namespace

ScenarioCertificate CertifyScenario(const Scenario& scenario,
                                    const ScenarioCertifyOptions& options) {
  ScenarioCertificate certificate;
  certificate.scenario = scenario.name();
  std::optional<ScenarioDynamics> model = scenario.DynamicsModel();
  if (!model.has_value()) return certificate;
  certificate.has_model = true;
  certificate.model_description = model->description;
  certificate.spectral = core::CertifyIfsSpectral(model->ifs, model->lo,
                                                  model->hi, options.spectral);
  return certificate;
}

std::vector<ScenarioCertificate> CertifyRegisteredScenarios(
    const ScenarioCertifyOptions& options) {
  std::vector<ScenarioCertificate> certificates;
  for (const std::string& name : RegisteredScenarioNames()) {
    std::unique_ptr<Scenario> scenario = CreateScenario(name);
    EQIMPACT_CHECK(scenario != nullptr);
    certificates.push_back(CertifyScenario(*scenario, options));
  }
  return certificates;
}

std::string RenderScenarioCertificatesJson(
    const std::vector<ScenarioCertificate>& certificates,
    const std::string& provenance_json,
    const ScenarioCertifyOptions& options) {
  std::string out = "{\n";
  char line[128];
  out += "  \"certify\": {\n";
  std::snprintf(line, sizeof(line), "    \"num_cells\": %zu,\n",
                options.spectral.num_cells);
  out += line;
  out += "    \"epsilon\": " + JsonNumber(options.spectral.epsilon) + ",\n";
  std::snprintf(line, sizeof(line), "    \"max_iterations\": %d,\n",
                options.spectral.max_iterations);
  out += line;
  std::snprintf(line, sizeof(line), "    \"arnoldi_subspace\": %zu\n",
                options.spectral.arnoldi_subspace);
  out += line;
  out += "  },\n";
  // provenance_json already carries its "provenance": key (the
  // serve::RenderProvenance convention) and must stay on one line — CI
  // smokes filter it by grep when byte-diffing documents.
  out += "  " + provenance_json + ",\n";
  out += "  \"certificates\": [\n";
  for (size_t i = 0; i < certificates.size(); ++i) {
    AppendCertificateJson(certificates[i], &out);
    out += i + 1 < certificates.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace sim
}  // namespace eqimpact
