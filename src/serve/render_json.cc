#include "serve/render_json.h"

#include <cstdarg>
#include <cstdio>
#include <thread>
#include <vector>

#include "base/json_escape.h"
#include "runtime/simd.h"

namespace eqimpact {
namespace serve {
namespace {

/// printf-into-std::string helper; every format below is the exact
/// format string the pre-refactor CLI printed, so the rendered document
/// is byte-identical to the historical output. Every string it prints
/// inside quotes goes through base::JsonEscape first, which leaves a
/// plain string's bytes as they are; every double goes through
/// AppendNumber instead, which writes a finite value as %.9g did.
#if defined(__GNUC__)
__attribute__((format(printf, 2, 3)))
#endif
void Appendf(std::string* out, const char* format, ...) {
  va_list args;
  va_start(args, format);
  char stack_buffer[256];
  va_list copy;
  va_copy(copy, args);
  const int needed =
      std::vsnprintf(stack_buffer, sizeof(stack_buffer), format, copy);
  va_end(copy);
  if (needed >= 0 && static_cast<size_t>(needed) < sizeof(stack_buffer)) {
    out->append(stack_buffer, static_cast<size_t>(needed));
  } else if (needed >= 0) {
    std::vector<char> heap_buffer(static_cast<size_t>(needed) + 1);
    std::vsnprintf(heap_buffer.data(), heap_buffer.size(), format, args);
    out->append(heap_buffer.data(), static_cast<size_t>(needed));
  }
  va_end(args);
}

/// Appends a double as the documents print it: %.9g, or null when it is
/// not finite (a NaN a resumed checkpoint carried into a trial's series).
void AppendNumber(std::string* out, double value) {
  base::AppendJsonNumber(out, value, 9);
}

/// Appends `values` as comma-separated numbers.
void AppendNumbers(std::string* out, const std::vector<double>& values) {
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out->append(", ");
    AppendNumber(out, values[i]);
  }
}

void AppendStringArray(std::string* out,
                       const std::vector<std::string>& values) {
  out->push_back('[');
  for (size_t i = 0; i < values.size(); ++i) {
    Appendf(out, "\"%s\"%s", base::JsonEscape(values[i]).c_str(),
            i + 1 < values.size() ? ", " : "");
  }
  out->push_back(']');
}

void AppendSummary(std::string* out,
                   const sim::EqualImpactSummary& summary,
                   const char* indent) {
  Appendf(out, "%s\"group_gap\": ", indent);
  AppendNumber(out, summary.group_gap);
  Appendf(out, ",\n%s\"pooled_std\": ", indent);
  AppendNumber(out, summary.pooled_std);
  Appendf(out, ",\n%s\"pooled_mean\": ", indent);
  AppendNumber(out, summary.pooled_mean);
}

void AppendHeader(std::string* out, const RenderHeader& header,
                  bool with_point_threads) {
  Appendf(out, "  \"num_threads\": %zu,\n", header.num_threads);
  Appendf(out, "  \"trial_threads\": %zu,\n", header.trial_threads);
  if (with_point_threads) {
    Appendf(out, "  \"point_threads\": %zu,\n", header.point_threads);
  }
  Appendf(out, "  %s", header.provenance_json.c_str());
  out->append(",\n");
}

}  // namespace

std::string RenderProvenance(bool force_scalar, size_t num_shards,
                             const std::string& checkpoint_path,
                             bool resume, const std::string& extra_json) {
  const runtime::simd::Backend backend = runtime::simd::ActiveBackend();
  std::string out;
  Appendf(&out,
          "\"provenance\": {\"hardware_concurrency\": %u, "
          "\"simd_backend\": \"%s\", \"force_scalar\": %s, "
          "\"num_shards\": %zu, \"checkpoint_path\": \"%s\", "
          "\"resume\": %s",
          std::thread::hardware_concurrency(),
          runtime::simd::BackendName(backend),
          force_scalar ? "true" : "false", num_shards,
          base::JsonEscape(checkpoint_path).c_str(), resume ? "true" : "false");
  if (!extra_json.empty()) {
    out.append(", ");
    out.append(extra_json);
  }
  out.push_back('}');
  return out;
}

std::string RenderExperimentJson(const sim::ExperimentResult& result,
                                 const RenderHeader& header) {
  std::string out;
  out.append("{\n");
  Appendf(&out, "  \"scenario\": \"%s\",\n",
          base::JsonEscape(result.scenario).c_str());
  Appendf(&out, "  \"num_trials\": %zu,\n", header.num_trials);
  Appendf(&out, "  \"master_seed\": %llu,\n",
          static_cast<unsigned long long>(header.master_seed));
  AppendHeader(&out, header, /*with_point_threads=*/false);
  out.append("  \"group_labels\": ");
  AppendStringArray(&out, result.group_labels);
  out.append(",\n");
  Appendf(&out, "  \"num_steps\": %zu,\n", result.step_labels.size());
  out.append("  \"final_group_mean\": [");
  const size_t last = result.step_labels.size() - 1;
  for (size_t g = 0; g < result.group_envelopes.size(); ++g) {
    if (g > 0) out.append(", ");
    AppendNumber(&out, result.group_envelopes[g].mean[last]);
  }
  out.append("],\n");
  out.append("  \"metrics\": {\n");
  for (size_t m = 0; m < result.metric_names.size(); ++m) {
    Appendf(&out, "    \"%s\": {\"mean\": ",
            base::JsonEscape(result.metric_names[m]).c_str());
    AppendNumber(&out, result.metric_stats[m].Mean());
    out.append(", \"std\": ");
    AppendNumber(&out, result.metric_stats[m].StdDev());
    out.append(m + 1 < result.metric_names.size() ? "},\n" : "}\n");
  }
  out.append("  },\n");
  out.append("  \"summary\": {\n");
  AppendSummary(&out, result.summary, "    ");
  out.append("\n  },\n");
  Appendf(&out, "  \"digest\": \"%016llx\"\n",
          static_cast<unsigned long long>(sim::ExperimentDigest(result)));
  out.append("}\n");
  return out;
}

std::string RenderSweepJson(const sim::SweepResult& result,
                            const RenderHeader& header) {
  std::string out;
  out.append("{\n");
  Appendf(&out, "  \"scenario\": \"%s\",\n",
          base::JsonEscape(result.scenario).c_str());
  AppendHeader(&out, header, /*with_point_threads=*/true);
  out.append("  \"parameters\": ");
  AppendStringArray(&out, result.parameter_names);
  out.append(",\n");
  out.append("  \"metric_names\": ");
  AppendStringArray(&out, result.metric_names);
  out.append(",\n");
  out.append("  \"points\": [\n");
  for (size_t p = 0; p < result.points.size(); ++p) {
    const sim::SweepPoint& point = result.points[p];
    out.append("    {\"values\": [");
    AppendNumbers(&out, point.values);
    out.append("], \"metric_means\": [");
    AppendNumbers(&out, point.metric_means);
    out.append("],\n");
    AppendSummary(&out, point.summary, "     ");
    Appendf(&out, ",\n     \"digest\": \"%016llx\"}%s\n",
            static_cast<unsigned long long>(point.digest),
            p + 1 < result.points.size() ? "," : "");
  }
  out.append("  ],\n");
  Appendf(&out, "  \"sweep_digest\": \"%016llx\"\n",
          static_cast<unsigned long long>(sim::SweepDigest(result)));
  out.append("}\n");
  return out;
}

}  // namespace serve
}  // namespace eqimpact
