// Generic scenario/experiment/sweep CLI over the string-keyed scenario
// registry: one driver for every built-in closed-loop instantiation
// (credit, market, ensemble), emitting JSON.
//
// Usage:
//   run_experiment --list
//   run_experiment --scenario=NAME [--trials=N] [--seed=S] [--threads=T]
//                  [--trial-threads=T] [--point-threads=P] [--bins=B]
//                  [--checkpoint=PATH] [--resume] [--force-scalar]
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
// resolution (default 4096, at most 10^6: a larger value is refused with
// exit 2 before anything is allocated). Certificates are closed-form
// properties of the spec, so --certify cannot be combined with --sweep,
// --serve or checkpointing, and the output is byte-identical under
// --force-scalar (the provenance line, which also records the
// certificate solver configuration, is the only line that differs).
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
// --checkpoint=PATH snapshots experiment progress to PATH after every
// simulated step (atomic write through a unique temp file; survives
// SIGKILL at any instant), and --resume restarts from that snapshot if
// it exists. A resumed run's output is byte-identical to an
// uninterrupted one. Checkpointing is a single-experiment feature of
// the scenarios that support it (credit): combining it with --sweep or
// another scenario is an error (exit 2). The snapshot is read and
// decoded in full, and PATH's directory checked for a temp file, before
// anything runs: a snapshot that is unreadable, truncated, altered,
// from another format version or written by another job (scenario
// configuration, trials, seed or bins), or a directory that takes no
// temp file, prints "error: checkpoint PATH: REASON" and exits 2,
// leaving PATH as it was. A missing snapshot starts fresh, with a note
// on stderr.
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
//
// The job flags (--scenario --trials --seed --bins --threads
// --trial-threads --point-threads --set --sweep) are the flag form of
// the service's serve::JobSpec, read by the shared flag codec under the
// wire's rules: counts and seeds are decimal integers up to 1e15,
// trials and bins are positive, --set/--sweep values are finite. The
// job runs through serve::RunJobSpec, the run-and-render path the
// service's workers use.

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "base/serial.h"
#include "base/simd_scalar.h"
#include "serve/protocol.h"
#include "serve/render_json.h"
#include "serve/server.h"
#include "serve/service.h"
#include "sim/certify.h"
#include "sim/experiment.h"
#include "sim/scenario_registry.h"

namespace {

using eqimpact::serve::JobSpec;
using eqimpact::sim::Scenario;

/// Ceiling of --cells: the top of the 10^5-10^6-cell range the sparse Ulam
/// operator and its eigensolvers are written for (the credit certificate
/// alone peaks near 460 MB there).
constexpr size_t kMaxCertifyCells = 1000000;

/// The CLI's own flags: modes and execution settings. The job itself
/// (scenario, trials, seed, bins, thread echoes, --set, --sweep) is a
/// serve::JobSpec read by the shared flag codec.
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
  std::string checkpoint_path;
  bool resume = false;
  /// --certify: print ergodicity certificates instead of running.
  bool certify = false;
  /// --cells=N: Ulam resolution of the certificate discretisation.
  size_t certify_cells = 4096;
};

bool ParseArgs(int argc, char** argv, JobSpec* job, CliSpec* spec) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  std::vector<std::string> own;
  std::string error;
  if (!eqimpact::serve::ParseJobFlags(args, job, &own, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return false;
  }
  const struct {
    const char* prefix;
    size_t* value;
    bool positive;
  } kCountFlags[] = {
      {"--port=", &spec->serve_port, false},
      {"--serve-workers=", &spec->serve_workers, true},
      {"--serve-queue=", &spec->serve_queue, false},
      {"--serve-threads=", &spec->serve_threads, false},
      {"--serve-cache=", &spec->serve_cache, true},
      {"--serve-max-connections=", &spec->serve_max_connections, false},
      {"--serve-idle-timeout=", &spec->serve_idle_timeout_ms, false},
      {"--cells=", &spec->certify_cells, true},
  };
  for (const std::string& arg : own) {
    const auto* count = std::find_if(
        std::begin(kCountFlags), std::end(kCountFlags),
        [&arg](const auto& flag) { return arg.rfind(flag.prefix, 0) == 0; });
    if (count != std::end(kCountFlags)) {
      const std::string text = arg.substr(std::strlen(count->prefix));
      if (!eqimpact::serve::ParseCountFlag(text, count->value) ||
          (count->positive && *count->value == 0)) {
        const char* want = count->positive ? "positive" : "non-negative";
        std::fprintf(stderr, "error: bad %s (want a %s integer)\n",
                     arg.c_str(), want);
        return false;
      }
    } else if (arg == "--list") {
      spec->list = true;
    } else if (arg == "--serve") {
      spec->serve = true;
    } else if (arg == "--force-scalar") {
      spec->force_scalar = true;
    } else if (arg == "--resume") {
      spec->resume = true;
    } else if (arg == "--certify") {
      spec->certify = true;
    } else if (arg.rfind("--port-file=", 0) == 0) {
      spec->port_file = arg.substr(std::strlen("--port-file="));
    } else if (arg.rfind("--checkpoint=", 0) == 0) {
      spec->checkpoint_path = arg.substr(std::strlen("--checkpoint="));
      if (spec->checkpoint_path.empty()) {
        std::fprintf(stderr, "error: --checkpoint needs a path\n");
        return false;
      }
    } else {
      std::fprintf(stderr, "error: unknown argument '%s'\n", arg.c_str());
      return false;
    }
  }
  if (spec->serve_port > 65535) {
    std::fprintf(stderr, "error: --port must be <= 65535\n");
    return false;
  }
  if (spec->certify_cells > kMaxCertifyCells) {
    std::fprintf(stderr, "error: --cells must be <= %zu\n", kMaxCertifyCells);
    return false;
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

int Usage() {
  std::fprintf(stderr,
               "usage: run_experiment --list | --scenario=NAME "
               "[--trials=N] [--seed=S] [--threads=T] [--trial-threads=T] "
               "[--point-threads=P] [--bins=B] "
               "[--checkpoint=PATH] [--resume] [--force-scalar] "
               "[--set name=value]... [--sweep name=v1,v2,...]... | "
               "--serve [--port=P] [--port-file=PATH] [--serve-workers=N] "
               "[--serve-queue=N] [--serve-threads=N] [--serve-cache=N] | "
               "--certify [--scenario=NAME] [--cells=N]\n");
  return 2;
}

/// The --checkpoint/--resume preflight, before anything runs: the
/// scenario must checkpoint, the --resume snapshot must decode in full
/// for this job, and the path's directory must take a temp file.
/// Prints the refusal and returns false otherwise.
bool PrepareCheckpoint(const JobSpec& job, const CliSpec& spec,
                       eqimpact::serve::JobRunOptions* run,
                       eqimpact::sim::ExperimentSnapshot* snapshot) {
  using eqimpact::base::SnapshotStatus;
  const std::unique_ptr<Scenario> scenario =
      eqimpact::serve::CreateJobScenario(job);
  if (!scenario->CheckpointFingerprint()) {
    std::fprintf(stderr,
                 "error: scenario '%s' does not support --checkpoint\n",
                 job.scenario.c_str());
    return false;
  }
  SnapshotStatus status = SnapshotStatus::kOk;
  if (spec.resume) {
    status = eqimpact::sim::ReadExperimentSnapshot(
        spec.checkpoint_path, *scenario,
        eqimpact::serve::JobExperimentOptions(job, *run), snapshot);
  }
  if (status == SnapshotStatus::kOk) {
    status = eqimpact::sim::CheckCheckpointWritable(spec.checkpoint_path);
  }
  if (status != SnapshotStatus::kOk) {
    std::fprintf(stderr, "error: checkpoint %s: %s\n",
                 spec.checkpoint_path.c_str(),
                 eqimpact::base::SnapshotStatusName(status));
    return false;
  }
  run->checkpoint_path = spec.checkpoint_path;
  if (spec.resume) run->resume = snapshot;
  return true;
}

/// One experiment or sweep through the shared run-and-render path, on
/// the thread budgets the flags request.
int RunJob(const JobSpec& job, const CliSpec& spec) {
  eqimpact::serve::JobRunOptions run;
  run.num_threads = job.num_threads;
  run.trial_threads = job.trial_threads;
  run.point_threads = job.point_threads;
  eqimpact::sim::ExperimentSnapshot snapshot;
  if (!spec.checkpoint_path.empty() &&
      !PrepareCheckpoint(job, spec, &run, &snapshot)) {
    return 2;
  }
  run.provenance_json = eqimpact::serve::RenderProvenance(
      spec.force_scalar, /*num_shards=*/0, spec.checkpoint_path, spec.resume,
      /*extra_json=*/"");
  const eqimpact::serve::JobResult result =
      eqimpact::serve::RunJobSpec(job, run);
  std::fwrite(result.payload.data(), 1, result.payload.size(), stdout);
  return 0;
}

// --- --certify mode ---------------------------------------------------

int RunCertify(const JobSpec& job, const CliSpec& spec) {
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
  if (job.scenario.empty()) {
    certificates = eqimpact::sim::CertifyRegisteredScenarios(options);
  } else {
    certificates.push_back(eqimpact::sim::CertifyScenario(
        *eqimpact::serve::CreateJobScenario(job), options));
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
  JobSpec job;
  CliSpec spec;
  if (!ParseArgs(argc, argv, &job, &spec)) return 2;
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
    if (spec.serve || job.is_sweep()) {
      std::fprintf(stderr,
                   "error: --certify computes closed-form certificates; it "
                   "cannot be combined with --sweep or --serve\n");
      return 2;
    }
    if (!spec.checkpoint_path.empty() || spec.resume) {
      std::fprintf(stderr,
                   "error: --certify runs no trials; --checkpoint/--resume "
                   "do not apply\n");
      return 2;
    }
    if (job.scenario.empty() && !job.assignments.empty()) {
      std::fprintf(stderr,
                   "error: --set with --certify needs --scenario=NAME "
                   "(certifying all scenarios takes their defaults)\n");
      return 2;
    }
  } else if (spec.serve) {
    if (!job.scenario.empty() || job.is_sweep()) {
      std::fprintf(stderr,
                   "error: --serve takes job specs over the wire, not "
                   "--scenario/--sweep flags\n");
      return 2;
    }
    return RunServer(spec);
  } else {
    if (job.scenario.empty()) return Usage();
    if (!spec.checkpoint_path.empty() && job.is_sweep()) {
      std::fprintf(stderr,
                   "error: --checkpoint tracks a single experiment; it "
                   "cannot be combined with --sweep\n");
      return 2;
    }
    if (spec.resume && spec.checkpoint_path.empty()) {
      std::fprintf(stderr, "error: --resume needs --checkpoint=PATH\n");
      return 2;
    }
  }
  eqimpact::serve::ErrorCode code;
  std::string message;
  if (!job.scenario.empty() &&
      !eqimpact::serve::ValidateJobSpec(job, &code, &message)) {
    const bool unknown = code == eqimpact::serve::ErrorCode::kUnknownScenario;
    std::fprintf(stderr, "error: %s%s\n", message.c_str(),
                 unknown ? " (try --list)" : "");
    return 2;
  }
  return spec.certify ? RunCertify(job, spec) : RunJob(job, spec);
}
