// Generic scenario/experiment/sweep CLI over the string-keyed scenario
// registry: one driver for every closed-loop instantiation (credit,
// market, ensemble, and anything registered later), emitting JSON.
//
// Usage:
//   run_experiment --list
//   run_experiment --scenario=NAME [--trials=N] [--seed=S] [--threads=T]
//                  [--trial-threads=T] [--point-threads=P] [--bins=B]
//                  [--shards=N] [--checkpoint=PATH] [--resume]
//                  [--force-scalar]
//                  [--set name=value]... [--sweep name=v1,v2,...]...
//   run_experiment --serve [--port=P] [--port-file=PATH]
//                  [--serve-workers=N] [--serve-queue=N]
//                  [--serve-threads=N] [--serve-cache=N]
//                  [--serve-max-connections=N] [--serve-idle-timeout=MS]
//   run_experiment --certify [--scenario=NAME] [--cells=N]
//                  [--force-scalar] [--set name=value]...
//
// --certify prints ergodicity certificates instead of running trials:
// each scenario's declared dynamics surrogate (an affine IFS) is
// discretised on a sparse Ulam operator and its invariant measure,
// spectral gap and mixing-time bound are computed with the iterative
// sparse eigensolvers — simulation-free, O(cells) memory. Without
// --scenario it certifies every registered scenario; with it, one
// scenario with the --set assignments applied. --cells sets the Ulam
// resolution (default 4096). Certificates are closed-form properties of
// the spec, so --certify cannot be combined with --sweep, --serve or
// checkpointing, and the output is byte-identical under --force-scalar
// (the provenance line, which also records the certificate solver
// configuration, is the only line that differs).
//
// --serve runs the long-lived experiment service instead of one
// experiment: line-delimited JSON requests over loopback TCP (see
// src/serve/protocol.h), queued scheduling with admission control, a
// digest-keyed result cache, streamed per-trial/per-point progress.
// Served result payloads are rendered by the same code as this CLI's
// stdout (src/serve/render_json), so the two are byte-identical for the
// same spec — CI diffs them. SIGTERM/SIGINT shut the server down
// gracefully: stop accepting, drain every in-flight job, then exit 0.
// One epoll event-loop thread owns every connection, with watermark
// backpressure. --serve-max-connections caps concurrent connections
// (typed too_many_connections rejection; 0 = unlimited) and
// --serve-idle-timeout closes connections with no traffic for MS
// milliseconds (0 = never).
//
// --force-scalar pins every vectorized kernel to its scalar reference
// lanes (base::SetSimdForceScalarForTesting) before anything runs: the
// output must be byte-identical to the vector build's — CI diffs the
// two as a smoke test of the kernel layer's bitwise contract (the
// single-line "provenance" field, which records the active backend, is
// the one line the diff filters out).
//
// --shards=N is sugar for --set num_shards=N: shard the within-trial
// population sweep N ways. Sharding regroups execution, never the work
// — the digest is identical at every shard count.
//
// --checkpoint=PATH snapshots experiment progress to PATH after every
// simulated step (atomic write; survives SIGKILL at any instant), and
// --resume restarts from that snapshot if it exists. A resumed run's
// output is byte-identical to an uninterrupted one. Checkpointing is a
// single-experiment feature: combining it with --sweep is an error.
//
// Without --sweep, runs one experiment and prints its aggregates; with
// one or more --sweep axes, fans the Cartesian grid out over
// experiments and prints one JSON row per grid point. --set assigns a
// scenario parameter before the run (and before every sweep point).
// The three thread budgets nest: --point-threads workers run grid
// points concurrently (sweeps only; 0 = all cores, default 1),
// --threads parallelises each experiment's trials, --trial-threads
// each trial's inner passes. Deterministic in the spec at every thread
// configuration; the digests printed here certify it.

#include <csignal>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "base/simd_scalar.h"
#include "serve/render_json.h"
#include "serve/server.h"
#include "sim/certify.h"
#include "sim/experiment.h"
#include "sim/scenario_registry.h"
#include "sim/sweep.h"

namespace {

using eqimpact::sim::ExperimentOptions;
using eqimpact::sim::ExperimentResult;
using eqimpact::sim::Scenario;
using eqimpact::sim::SweepOptions;
using eqimpact::sim::SweepParameter;
using eqimpact::sim::SweepResult;

struct Assignment {
  std::string name;
  double value = 0.0;
};

struct CliSpec {
  bool list = false;
  bool force_scalar = false;
  /// --serve: run the experiment service instead of one experiment.
  bool serve = false;
  size_t serve_port = 0;       ///< 0 = ephemeral.
  std::string port_file;       ///< Write the bound port here (for CI).
  size_t serve_workers = 2;    ///< Concurrent jobs.
  size_t serve_queue = 16;     ///< Bounded admission queue depth.
  size_t serve_threads = 0;    ///< Total thread budget (0 = hardware).
  size_t serve_cache = 64;     ///< Result-cache capacity (entries).
  size_t serve_max_connections = 256;  ///< 0 = unlimited.
  size_t serve_idle_timeout_ms = 0;    ///< 0 = no idle timeout.
  std::string scenario;
  ExperimentOptions experiment;
  /// Cross-point workers of a --sweep run (SweepOptions convention:
  /// 1 = sequential, 0 = hardware concurrency).
  size_t point_threads = 1;
  /// --shards=N: sugar for --set num_shards=N (0 = flag absent, keep
  /// the scenario default). Recorded in the provenance field either way.
  size_t shards = 0;
  /// --certify: print ergodicity certificates instead of running.
  bool certify = false;
  /// --cells=N: Ulam resolution of the certificate discretisation.
  size_t certify_cells = 4096;
  std::vector<Assignment> assignments;
  std::vector<SweepParameter> sweeps;
};

bool ParseDouble(const std::string& text, double* value) {
  char* end = nullptr;
  *value = std::strtod(text.c_str(), &end);
  return end != nullptr && *end == '\0' && !text.empty();
}

/// Strict full-string parse of a non-negative integer flag value;
/// rejects "1e3", "abc", "-2", "", and out-of-range magnitudes rather
/// than silently truncating or clamping.
bool ParseSize(const std::string& text, size_t* value) {
  if (text.empty() || text[0] == '-') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(text.c_str(), &end, 10);
  if (errno == ERANGE || end == nullptr || *end != '\0') return false;
  *value = static_cast<size_t>(parsed);
  return true;
}

/// Splits "name=v1,v2,..." into a sweep axis.
bool ParseSweep(const std::string& spec, SweepParameter* parameter) {
  const size_t equals = spec.find('=');
  if (equals == std::string::npos || equals == 0) return false;
  parameter->name = spec.substr(0, equals);
  parameter->values.clear();
  std::string rest = spec.substr(equals + 1);
  size_t start = 0;
  while (start <= rest.size()) {
    size_t comma = rest.find(',', start);
    if (comma == std::string::npos) comma = rest.size();
    double value = 0.0;
    if (!ParseDouble(rest.substr(start, comma - start), &value)) return false;
    parameter->values.push_back(value);
    start = comma + 1;
  }
  return !parameter->values.empty();
}

bool ParseArgs(int argc, char** argv, CliSpec* spec) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value_of = [&arg](const char* prefix) {
      return arg.substr(std::strlen(prefix));
    };
    auto next_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    auto parse_size_flag = [&arg, &value_of](const char* prefix,
                                             size_t* value) {
      if (!ParseSize(value_of(prefix), value)) {
        std::fprintf(stderr,
                     "error: bad %s value '%s' (want a non-negative "
                     "integer)\n",
                     prefix, value_of(prefix).c_str());
        return false;
      }
      return true;
    };
    if (arg == "--list") {
      spec->list = true;
    } else if (arg == "--serve") {
      spec->serve = true;
    } else if (arg.rfind("--port=", 0) == 0) {
      if (!parse_size_flag("--port=", &spec->serve_port)) return false;
      if (spec->serve_port > 65535) {
        std::fprintf(stderr, "error: --port must be <= 65535\n");
        return false;
      }
    } else if (arg.rfind("--port-file=", 0) == 0) {
      spec->port_file = value_of("--port-file=");
    } else if (arg.rfind("--serve-workers=", 0) == 0) {
      if (!parse_size_flag("--serve-workers=", &spec->serve_workers)) {
        return false;
      }
    } else if (arg.rfind("--serve-queue=", 0) == 0) {
      if (!parse_size_flag("--serve-queue=", &spec->serve_queue)) {
        return false;
      }
    } else if (arg.rfind("--serve-threads=", 0) == 0) {
      if (!parse_size_flag("--serve-threads=", &spec->serve_threads)) {
        return false;
      }
    } else if (arg.rfind("--serve-cache=", 0) == 0) {
      if (!parse_size_flag("--serve-cache=", &spec->serve_cache)) {
        return false;
      }
    } else if (arg.rfind("--serve-max-connections=", 0) == 0) {
      if (!parse_size_flag("--serve-max-connections=",
                           &spec->serve_max_connections)) {
        return false;
      }
    } else if (arg.rfind("--serve-idle-timeout=", 0) == 0) {
      if (!parse_size_flag("--serve-idle-timeout=",
                           &spec->serve_idle_timeout_ms)) {
        return false;
      }
    } else if (arg == "--force-scalar") {
      spec->force_scalar = true;
    } else if (arg.rfind("--scenario=", 0) == 0) {
      spec->scenario = value_of("--scenario=");
    } else if (arg.rfind("--trials=", 0) == 0) {
      if (!parse_size_flag("--trials=", &spec->experiment.num_trials)) {
        return false;
      }
    } else if (arg.rfind("--seed=", 0) == 0) {
      size_t seed = 0;
      if (!parse_size_flag("--seed=", &seed)) return false;
      spec->experiment.master_seed = static_cast<uint64_t>(seed);
    } else if (arg.rfind("--threads=", 0) == 0) {
      if (!parse_size_flag("--threads=", &spec->experiment.num_threads)) {
        return false;
      }
    } else if (arg.rfind("--trial-threads=", 0) == 0) {
      if (!parse_size_flag("--trial-threads=",
                           &spec->experiment.trial_threads)) {
        return false;
      }
    } else if (arg.rfind("--point-threads=", 0) == 0) {
      if (!parse_size_flag("--point-threads=", &spec->point_threads)) {
        return false;
      }
    } else if (arg.rfind("--bins=", 0) == 0) {
      if (!parse_size_flag("--bins=", &spec->experiment.impact_bins)) {
        return false;
      }
    } else if (arg.rfind("--shards=", 0) == 0) {
      if (!parse_size_flag("--shards=", &spec->shards)) return false;
      if (spec->shards == 0) {
        std::fprintf(stderr, "error: --shards must be positive\n");
        return false;
      }
    } else if (arg.rfind("--checkpoint=", 0) == 0) {
      spec->experiment.checkpoint_path = value_of("--checkpoint=");
      if (spec->experiment.checkpoint_path.empty()) {
        std::fprintf(stderr, "error: --checkpoint needs a path\n");
        return false;
      }
    } else if (arg == "--resume") {
      spec->experiment.resume = true;
    } else if (arg == "--certify") {
      spec->certify = true;
    } else if (arg.rfind("--cells=", 0) == 0) {
      if (!parse_size_flag("--cells=", &spec->certify_cells)) return false;
      if (spec->certify_cells == 0) {
        std::fprintf(stderr, "error: --cells must be positive\n");
        return false;
      }
    } else if (arg == "--set") {
      const char* text = next_value("--set");
      if (text == nullptr) return false;
      std::string assignment = text;
      const size_t equals = assignment.find('=');
      Assignment parsed;
      if (equals == std::string::npos || equals == 0 ||
          !ParseDouble(assignment.substr(equals + 1), &parsed.value)) {
        std::fprintf(stderr, "error: bad --set '%s' (want name=value)\n",
                     text);
        return false;
      }
      parsed.name = assignment.substr(0, equals);
      spec->assignments.push_back(parsed);
    } else if (arg == "--sweep") {
      const char* text = next_value("--sweep");
      if (text == nullptr) return false;
      SweepParameter parameter;
      if (!ParseSweep(text, &parameter)) {
        std::fprintf(stderr, "error: bad --sweep '%s' (want name=v1,v2)\n",
                     text);
        return false;
      }
      spec->sweeps.push_back(std::move(parameter));
    } else {
      std::fprintf(stderr, "error: unknown argument '%s'\n", arg.c_str());
      return false;
    }
  }
  return true;
}

void PrintStringArray(const std::vector<std::string>& values) {
  std::printf("[");
  for (size_t i = 0; i < values.size(); ++i) {
    std::printf("\"%s\"%s", values[i].c_str(),
                i + 1 < values.size() ? ", " : "");
  }
  std::printf("]");
}

/// The run-identification header of the output document (requested
/// knobs + one-line provenance), shared verbatim with the experiment
/// service's payload renderer — serve/render_json.h documents why the
/// two must stay byte-identical.
eqimpact::serve::RenderHeader HeaderOf(const CliSpec& spec) {
  eqimpact::serve::RenderHeader header;
  header.num_trials = spec.experiment.num_trials;
  header.master_seed = spec.experiment.master_seed;
  header.num_threads = spec.experiment.num_threads;
  header.trial_threads = spec.experiment.trial_threads;
  header.point_threads = spec.point_threads;
  header.provenance_json = eqimpact::serve::RenderProvenance(
      spec.force_scalar, spec.shards, spec.experiment.checkpoint_path,
      spec.experiment.resume, /*extra_json=*/"");
  return header;
}

int RunSingle(Scenario* scenario, const CliSpec& spec) {
  ExperimentResult result =
      eqimpact::sim::RunExperiment(scenario, spec.experiment);
  const std::string document =
      eqimpact::serve::RenderExperimentJson(result, HeaderOf(spec));
  std::fwrite(document.data(), 1, document.size(), stdout);
  return 0;
}

int RunGrid(const CliSpec& spec) {
  eqimpact::sim::ScenarioFactory base_factory =
      eqimpact::sim::GetScenarioFactory(spec.scenario);
  // Every grid point starts from a fresh scenario with the --set
  // assignments applied, then the point's sweep values on top.
  auto factory = [&spec, &base_factory]() -> std::unique_ptr<Scenario> {
    std::unique_ptr<Scenario> scenario = base_factory();
    for (const Assignment& assignment : spec.assignments) {
      if (!scenario->SetParameter(assignment.name, assignment.value)) {
        std::fprintf(stderr, "error: scenario '%s' rejects parameter '%s' "
                     "(unknown name or out-of-range value)\n",
                     spec.scenario.c_str(), assignment.name.c_str());
        std::exit(2);
      }
    }
    return scenario;
  };
  // Validate every sweep value on a probe instance up front, so a
  // mistyped --sweep name or an out-of-range grid value gets the same
  // graceful diagnostic as --set instead of a mid-sweep abort.
  {
    std::unique_ptr<Scenario> probe = factory();
    for (const SweepParameter& parameter : spec.sweeps) {
      for (double value : parameter.values) {
        if (!probe->SetParameter(parameter.name, value)) {
          std::fprintf(stderr,
                       "error: scenario '%s' rejects parameter '%s' = %g "
                       "(unknown name or out-of-range value)\n",
                       spec.scenario.c_str(), parameter.name.c_str(), value);
          return 2;
        }
      }
    }
  }
  SweepOptions options;
  options.experiment = spec.experiment;
  options.parameters = spec.sweeps;
  options.num_point_threads = spec.point_threads;
  SweepResult result = eqimpact::sim::RunSweep(factory, options);
  const std::string document =
      eqimpact::serve::RenderSweepJson(result, HeaderOf(spec));
  std::fwrite(document.data(), 1, document.size(), stdout);
  return 0;
}

// --- --certify mode ---------------------------------------------------

int RunCertify(const CliSpec& spec) {
  eqimpact::sim::ScenarioCertifyOptions options;
  options.spectral.num_cells = spec.certify_cells;
  // The provenance line carries the certificate solver configuration, so
  // a stored document is self-describing about how its numbers arose.
  char extra[192];
  std::snprintf(extra, sizeof(extra),
                "\"certify\": {\"num_cells\": %zu, \"epsilon\": %g, "
                "\"max_iterations\": %d, \"arnoldi_subspace\": %zu}",
                options.spectral.num_cells, options.spectral.epsilon,
                options.spectral.max_iterations,
                options.spectral.arnoldi_subspace);
  const std::string provenance = eqimpact::serve::RenderProvenance(
      spec.force_scalar, /*num_shards=*/0, /*checkpoint_path=*/"",
      /*resume=*/false, extra);

  std::vector<eqimpact::sim::ScenarioCertificate> certificates;
  if (spec.scenario.empty()) {
    certificates = eqimpact::sim::CertifyRegisteredScenarios(options);
  } else {
    std::unique_ptr<Scenario> scenario =
        eqimpact::sim::CreateScenario(spec.scenario);
    if (scenario == nullptr) {
      std::fprintf(stderr, "error: unknown scenario '%s' (try --list)\n",
                   spec.scenario.c_str());
      return 2;
    }
    for (const Assignment& assignment : spec.assignments) {
      if (!scenario->SetParameter(assignment.name, assignment.value)) {
        std::fprintf(stderr,
                     "error: scenario '%s' rejects parameter '%s' "
                     "(unknown name or out-of-range value)\n",
                     spec.scenario.c_str(), assignment.name.c_str());
        return 2;
      }
    }
    certificates.push_back(
        eqimpact::sim::CertifyScenario(*scenario, options));
  }
  const std::string document = eqimpact::sim::RenderScenarioCertificatesJson(
      certificates, provenance, options);
  std::fwrite(document.data(), 1, document.size(), stdout);
  return 0;
}

// --- --serve mode -----------------------------------------------------

/// SIGTERM/SIGINT land here: the handler only pokes a self-pipe (the
/// sole async-signal-safe option); the main thread blocks on the read
/// end and runs the actual graceful shutdown.
int g_shutdown_pipe[2] = {-1, -1};

void HandleShutdownSignal(int /*signum*/) {
  const char byte = 1;
  // The pipe is wide enough for every signal that can arrive; a failed
  // write (full pipe) still means a byte is already in flight.
  (void)!write(g_shutdown_pipe[1], &byte, 1);
}

int RunServer(const CliSpec& spec) {
  if (spec.serve_workers == 0) {
    std::fprintf(stderr, "error: --serve-workers must be positive\n");
    return 2;
  }
  if (pipe(g_shutdown_pipe) != 0) {
    std::perror("serve: pipe");
    return 1;
  }
  eqimpact::serve::ServerOptions options;
  options.port = static_cast<uint16_t>(spec.serve_port);
  options.service.scheduler.num_workers = spec.serve_workers;
  options.service.scheduler.queue_capacity = spec.serve_queue;
  options.service.scheduler.total_threads = spec.serve_threads;
  options.service.cache_capacity = spec.serve_cache;
  options.limits.max_connections = spec.serve_max_connections;
  options.limits.idle_timeout_ms =
      static_cast<int64_t>(spec.serve_idle_timeout_ms);
  eqimpact::serve::Server server(options);
  if (!server.Start()) return 1;

  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = HandleShutdownSignal;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);

  if (!spec.port_file.empty()) {
    std::FILE* file = std::fopen(spec.port_file.c_str(), "w");
    if (file == nullptr) {
      std::perror("serve: port file");
      return 1;
    }
    std::fprintf(file, "%u\n", server.port());
    std::fclose(file);
  }
  std::fprintf(stderr,
               "serving on 127.0.0.1:%u (workers=%zu queue=%zu "
               "job_threads=%zu cache=%zu)\n",
               server.port(), spec.serve_workers, spec.serve_queue,
               server.service().scheduler().job_threads(),
               spec.serve_cache);

  char byte = 0;
  while (read(g_shutdown_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  std::fprintf(stderr, "serve: shutdown signal, draining %zu job(s)\n",
               server.service().scheduler().in_flight());
  server.Shutdown();
  const eqimpact::serve::ExperimentService& service = server.service();
  std::fprintf(stderr,
               "serve: drained; runs=%zu cache_hits=%zu dedup_joins=%zu "
               "rejected=%zu\n",
               service.runs_started(), service.cache_hits(),
               service.dedup_joins(), service.rejected_queue_full());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliSpec spec;
  if (!ParseArgs(argc, argv, &spec)) return 2;
  // Before any kernel can run, so every dispatch in the process sees it.
  if (spec.force_scalar) eqimpact::base::SetSimdForceScalarForTesting(true);

  if (spec.list) {
    std::printf("{\n  \"scenarios\": [\n");
    const std::vector<std::string> names =
        eqimpact::sim::RegisteredScenarioNames();
    for (size_t i = 0; i < names.size(); ++i) {
      std::unique_ptr<Scenario> scenario =
          eqimpact::sim::CreateScenario(names[i]);
      std::printf("    {\"name\": \"%s\", \"groups\": ", names[i].c_str());
      PrintStringArray(scenario->GroupLabels());
      std::printf(", \"parameters\": ");
      PrintStringArray(scenario->ParameterNames());
      std::printf("}%s\n", i + 1 < names.size() ? "," : "");
    }
    std::printf("  ]\n}\n");
    return 0;
  }

  if (spec.certify) {
    if (spec.serve || !spec.sweeps.empty()) {
      std::fprintf(stderr,
                   "error: --certify computes closed-form certificates; it "
                   "cannot be combined with --sweep or --serve\n");
      return 2;
    }
    if (!spec.experiment.checkpoint_path.empty() || spec.experiment.resume) {
      std::fprintf(stderr,
                   "error: --certify runs no trials; --checkpoint/--resume "
                   "do not apply\n");
      return 2;
    }
    if (spec.scenario.empty() &&
        (!spec.assignments.empty() || spec.shards > 0)) {
      std::fprintf(stderr,
                   "error: --set/--shards with --certify need "
                   "--scenario=NAME (certifying all scenarios takes their "
                   "defaults)\n");
      return 2;
    }
    return RunCertify(spec);
  }

  if (spec.serve) {
    if (!spec.scenario.empty() || !spec.sweeps.empty()) {
      std::fprintf(stderr,
                   "error: --serve takes job specs over the wire, not "
                   "--scenario/--sweep flags\n");
      return 2;
    }
    return RunServer(spec);
  }

  if (spec.scenario.empty()) {
    std::fprintf(stderr,
                 "usage: run_experiment --list | --scenario=NAME "
                 "[--trials=N] [--seed=S] [--threads=T] [--trial-threads=T] "
                 "[--point-threads=P] [--bins=B] [--shards=N] "
                 "[--checkpoint=PATH] [--resume] [--force-scalar] "
                 "[--set name=value]... [--sweep name=v1,v2,...]... | "
                 "--serve [--port=P] [--port-file=PATH] [--serve-workers=N] "
                 "[--serve-queue=N] [--serve-threads=N] [--serve-cache=N] | "
                 "--certify [--scenario=NAME] [--cells=N]\n");
    return 2;
  }
  if (spec.experiment.num_trials == 0 || spec.experiment.impact_bins == 0) {
    std::fprintf(stderr, "error: --trials and --bins must be positive\n");
    return 2;
  }
  if (!spec.experiment.checkpoint_path.empty() && !spec.sweeps.empty()) {
    std::fprintf(stderr,
                 "error: --checkpoint tracks a single experiment; it cannot "
                 "be combined with --sweep\n");
    return 2;
  }
  if (spec.experiment.resume && spec.experiment.checkpoint_path.empty()) {
    std::fprintf(stderr, "error: --resume needs --checkpoint=PATH\n");
    return 2;
  }
  // --shards is flag sugar for the scenario parameter of the same
  // meaning; route it through SetParameter so a scenario without
  // sharding rejects it with the standard diagnostic.
  if (spec.shards > 0) {
    spec.assignments.push_back(
        {"num_shards", static_cast<double>(spec.shards)});
  }
  std::unique_ptr<Scenario> scenario =
      eqimpact::sim::CreateScenario(spec.scenario);
  if (scenario == nullptr) {
    std::fprintf(stderr, "error: unknown scenario '%s' (try --list)\n",
                 spec.scenario.c_str());
    return 2;
  }
  for (const Assignment& assignment : spec.assignments) {
    if (!scenario->SetParameter(assignment.name, assignment.value)) {
      std::fprintf(stderr, "error: scenario '%s' rejects parameter '%s' "
                     "(unknown name or out-of-range value)\n",
                   spec.scenario.c_str(), assignment.name.c_str());
      return 2;
    }
  }
  if (spec.sweeps.empty()) return RunSingle(scenario.get(), spec);
  return RunGrid(spec);
}
