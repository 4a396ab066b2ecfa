#ifndef EQIMPACT_SERVE_SERVICE_H_
#define EQIMPACT_SERVE_SERVICE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "serve/protocol.h"
#include "serve/result_cache.h"
#include "serve/scheduler.h"
#include "sim/experiment.h"
#include "sim/scenario.h"

namespace eqimpact {
namespace serve {

/// Checks `spec` against the scenario registry on one probe instance:
/// the scenario exists, accepts every assignment and, on top of them,
/// every sweep value. Fills (code, message) with kUnknownScenario or
/// kBadParameter on failure.
bool ValidateJobSpec(const JobSpec& spec, ErrorCode* code,
                     std::string* message);

/// A fresh instance of `spec`'s scenario with its assignments applied,
/// in order. CHECK-fails on a spec that ValidateJobSpec rejects.
std::unique_ptr<sim::Scenario> CreateJobScenario(const JobSpec& spec);

/// How a job executes: every setting that, by the determinism
/// contract, never moves a bit of the payload.
struct JobRunOptions {
  /// Trial workers per experiment, within-trial workers per trial and
  /// grid-point workers per sweep (sim::ExperimentOptions and
  /// sim::SweepOptions conventions). The payload echoes the spec's
  /// requested values, not these.
  size_t num_threads = 0;
  size_t trial_threads = 0;
  size_t point_threads = 1;
  /// sim::ExperimentOptions checkpointing; single experiments only.
  /// `resume` is a snapshot read (sim::ReadExperimentSnapshot) for this
  /// spec under JobExperimentOptions; not owned.
  std::string checkpoint_path;
  const sim::ExperimentSnapshot* resume = nullptr;
  /// Called once per completed trial (unit "trial") or grid point
  /// (unit "point"), serialized by the engine.
  std::function<void(const char* unit, size_t index, size_t completed,
                     size_t total)>
      on_progress;
  /// The payload's one-line provenance object (RenderProvenance).
  std::string provenance_json;
};

/// The sim::ExperimentOptions a spec's experiment (or each of its sweep
/// points) runs with: RunJobSpec's own mapping, which a checkpoint
/// reader must share to decode the job's snapshot.
sim::ExperimentOptions JobExperimentOptions(const JobSpec& spec,
                                            const JobRunOptions& options);

/// The one run-and-render path of a validated spec: runs its
/// experiment, or its sweep when it has axes, and renders the
/// run_experiment document. The CLI, the service's workers and the
/// golden and serve tests call it, so a served payload equals the CLI's
/// stdout by construction, up to the provenance line.
JobResult RunJobSpec(const JobSpec& spec, const JobRunOptions& options);

/// Experiment service configuration.
struct ServiceOptions {
  SchedulerOptions scheduler;
  /// Completed-result LRU capacity (entries, not bytes; a serving-bench
  /// payload is a few KB).
  size_t cache_capacity = 64;
};

/// The transport-independent experiment service: one request line in,
/// a stream of event lines out. Composes the admission scheduler, the
/// digest-keyed result cache and in-flight dedup:
///
///  * a request whose spec fingerprint is cached is answered
///    immediately from cache (byte-identical payload, by the
///    determinism contract);
///  * a request identical to a job already running *joins* it as a
///    follower — one engine run fans its events out to every
///    subscriber — instead of burning a second worker on bitwise-
///    identical work;
///  * anything else is admitted to the bounded queue (or rejected with
///    a typed error) and streamed: accepted, per-trial/per-point
///    progress, then the result.
///
/// The TCP server and the in-process bench/tests drive this same class;
/// the transport only moves lines.
class ExperimentService {
 public:
  /// Receives one '\n'-terminated event line. Called from the
  /// submitting thread (accepted/error) and from worker threads
  /// (progress/result) — at most one call at a time per submission, but
  /// the callee must tolerate calls after Submit returned, until its
  /// result or error event arrives. Must not throw.
  using EventSink = std::function<void(const std::string& line)>;

  explicit ExperimentService(const ServiceOptions& options);
  ~ExperimentService();

  ExperimentService(const ExperimentService&) = delete;
  ExperimentService& operator=(const ExperimentService&) = delete;

  /// Handles one raw request line: parse, validate against the scenario
  /// registry, then cache / join / admit. Every submission produces
  /// either (accepted, progress*, result) or a single error event on
  /// `sink`; the accepted/error head event is emitted before this
  /// returns. Returns true iff the request was accepted (a result event
  /// will follow).
  bool Submit(const std::string& request_line, EventSink sink);

  /// Stops admitting (typed kShuttingDown) and drains in-flight jobs —
  /// the graceful-shutdown path. Idempotent.
  void Shutdown();

  /// Serving counters (tests and the bench's hit-rate line).
  size_t runs_started() const;
  size_t dedup_joins() const;
  size_t cache_hits() const { return cache_.hits(); }
  size_t cache_misses() const { return cache_.misses(); }
  size_t rejected_queue_full() const;
  const Scheduler& scheduler() const { return scheduler_; }

 private:
  struct Inflight;

  void RunJob(std::shared_ptr<Inflight> job, size_t job_threads);

  ResultCache cache_;
  Scheduler scheduler_;
  mutable std::mutex mutex_;
  /// Fingerprint -> running job; followers of a fingerprint attach here.
  std::unordered_map<uint64_t, std::shared_ptr<Inflight>> inflight_;
  uint64_t next_id_ = 1;
  size_t runs_started_ = 0;
  size_t dedup_joins_ = 0;
  size_t rejected_queue_full_ = 0;
};

}  // namespace serve
}  // namespace eqimpact

#endif  // EQIMPACT_SERVE_SERVICE_H_
