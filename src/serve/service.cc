#include "serve/service.h"

#include <condition_variable>
#include <utility>
#include <vector>

#include "base/check.h"
#include "serve/render_json.h"
#include "sim/scenario_registry.h"

namespace eqimpact {
namespace serve {

bool ValidateJobSpec(const JobSpec& spec, ErrorCode* code,
                     std::string* message) {
  std::unique_ptr<sim::Scenario> probe = sim::CreateScenario(spec.scenario);
  if (probe == nullptr) {
    *code = ErrorCode::kUnknownScenario;
    *message = "unknown scenario \"" + spec.scenario + "\"";
    return false;
  }
  // Dry-run every assignment and sweep value on the probe instance so a
  // rejected parameter is a typed error here instead of a CHECK failure
  // inside the engine.
  for (const auto& assignment : spec.assignments) {
    if (!probe->SetParameter(assignment.first, assignment.second)) {
      *code = ErrorCode::kBadParameter;
      *message = "scenario \"" + spec.scenario +
                 "\" rejects parameter \"" + assignment.first + "\"";
      return false;
    }
  }
  for (const auto& axis : spec.sweeps) {
    for (double value : axis.values) {
      if (!probe->SetParameter(axis.name, value)) {
        *code = ErrorCode::kBadParameter;
        *message = "scenario \"" + spec.scenario +
                   "\" rejects sweep parameter \"" + axis.name + "\"";
        return false;
      }
    }
  }
  return true;
}

std::unique_ptr<sim::Scenario> CreateJobScenario(const JobSpec& spec) {
  std::unique_ptr<sim::Scenario> scenario = sim::CreateScenario(spec.scenario);
  EQIMPACT_CHECK(scenario != nullptr);
  for (const auto& assignment : spec.assignments) {
    EQIMPACT_CHECK(
        scenario->SetParameter(assignment.first, assignment.second));
  }
  return scenario;
}

sim::ExperimentOptions JobExperimentOptions(const JobSpec& spec,
                                            const JobRunOptions& options) {
  sim::ExperimentOptions experiment;
  experiment.num_trials = spec.num_trials;
  experiment.master_seed = spec.master_seed;
  experiment.impact_bins = spec.impact_bins;
  experiment.num_threads = options.num_threads;
  experiment.trial_threads = options.trial_threads;
  experiment.checkpoint_path = options.checkpoint_path;
  experiment.resume = options.resume;
  return experiment;
}

JobResult RunJobSpec(const JobSpec& spec, const JobRunOptions& options) {
  RenderHeader header;
  header.num_trials = spec.num_trials;
  header.master_seed = spec.master_seed;
  header.num_threads = spec.num_threads;
  header.trial_threads = spec.trial_threads;
  header.point_threads = spec.point_threads;
  header.provenance_json = options.provenance_json;

  sim::ExperimentOptions experiment = JobExperimentOptions(spec, options);
  JobResult result;
  if (spec.is_sweep()) {
    // Every grid point starts from a fresh scenario with the
    // assignments applied, then the point's sweep values on top.
    sim::SweepOptions sweep;
    sweep.experiment = experiment;
    sweep.parameters = spec.sweeps;
    sweep.num_point_threads = options.point_threads;
    if (options.on_progress) {
      sweep.on_point_complete = [&options](size_t index, const sim::SweepPoint&,
                                           size_t completed, size_t total) {
        options.on_progress("point", index, completed, total);
      };
    }
    const sim::SweepResult swept =
        sim::RunSweep([&spec] { return CreateJobScenario(spec); }, sweep);
    result.digest = sim::SweepDigest(swept);
    result.payload = RenderSweepJson(swept, header);
  } else {
    if (options.on_progress) {
      experiment.on_trial_complete = [&options](size_t index,
                                                const sim::TrialOutcome&,
                                                size_t completed,
                                                size_t total) {
        options.on_progress("trial", index, completed, total);
      };
    }
    std::unique_ptr<sim::Scenario> scenario = CreateJobScenario(spec);
    const sim::ExperimentResult run =
        sim::RunExperiment(scenario.get(), experiment);
    result.digest = sim::ExperimentDigest(run);
    result.payload = RenderExperimentJson(run, header);
  }
  return result;
}

/// One admitted job and its subscribers. The leader (first submitter)
/// runs the engine once; followers of the same fingerprint attach and
/// receive the identical event stream under their own ids.
struct ExperimentService::Inflight {
  JobSpec spec;
  uint64_t fingerprint = 0;

  std::mutex mutex;
  /// (request id, sink) per subscriber; index 0 is the leader.
  std::vector<std::pair<std::string, EventSink>> followers;
  /// Set once the leader's accepted event is out; the worker holds the
  /// job at the starting line until then, so no stream ever sees a
  /// progress event ahead of its accepted event.
  bool announced = false;
  std::condition_variable announced_cv;
  /// Set under `mutex` when the terminal event has been broadcast; a
  /// late joiner observing it is answered directly instead of attaching.
  bool done = false;
  JobResult result;  ///< Valid iff done and ok.
  bool ok = false;
  std::string error_message;  ///< Valid iff done and !ok.

  /// Broadcasts one mid-stream event line under every follower's id.
  /// `line_for` maps an id to its event line.
  template <typename LineFor>
  void Broadcast(const LineFor& line_for) {
    std::lock_guard<std::mutex> lock(mutex);
    for (const auto& follower : followers) {
      follower.second(line_for(follower.first));
    }
  }
};

ExperimentService::ExperimentService(const ServiceOptions& options)
    : cache_(options.cache_capacity), scheduler_(options.scheduler) {
  // The registry is not thread-safe for registration; touching it here
  // forces the built-ins in before any worker thread can race the
  // first lookup.
  sim::RegisteredScenarioNames();
}

ExperimentService::~ExperimentService() { Shutdown(); }

bool ExperimentService::Submit(const std::string& request_line,
                               EventSink sink) {
  EQIMPACT_CHECK(sink != nullptr);
  JsonValue request;
  std::string parse_error;
  if (!ParseJson(request_line, &request, &parse_error)) {
    sink(ErrorEventLine("", ErrorCode::kBadJson, parse_error));
    return false;
  }
  JobSpec spec;
  ErrorCode code;
  std::string message;
  if (!ParseJobSpec(request, &spec, &code, &message)) {
    // A bad request may still carry a usable id to tag the error with.
    const JsonValue* id = request.Find("id");
    const std::string echo_id =
        (id != nullptr && id->kind() == JsonValue::Kind::kString)
            ? id->as_string()
            : "";
    sink(ErrorEventLine(echo_id, code, message));
    return false;
  }
  if (!ValidateJobSpec(spec, &code, &message)) {
    sink(ErrorEventLine(spec.id, code, message));
    return false;
  }

  const uint64_t fingerprint = JobSpecFingerprint(spec);
  std::shared_ptr<Inflight> job;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (spec.id.empty()) {
      spec.id = "srv-" + std::to_string(next_id_++);
    }

    JobResult cached;
    if (cache_.Lookup(fingerprint, &cached)) {
      sink(AcceptedEventLine(spec.id, /*cached=*/true, /*queue_depth=*/0));
      sink(ResultEventLine(spec.id, /*cached=*/true, cached.digest,
                           cached.payload));
      return true;
    }

    auto running = inflight_.find(fingerprint);
    if (running != inflight_.end()) {
      std::shared_ptr<Inflight> leader_job = running->second;
      std::lock_guard<std::mutex> job_lock(leader_job->mutex);
      if (!leader_job->done) {
        // Join the running identical job: one engine run, N streams.
        leader_job->followers.emplace_back(spec.id, std::move(sink));
        ++dedup_joins_;
        leader_job->followers.back().second(AcceptedEventLine(
            spec.id, /*cached=*/false, scheduler_.queue_depth()));
        return true;
      }
      // The job finished between the cache miss and here; answer from
      // its terminal state as a cache hit would.
      if (leader_job->ok) {
        sink(AcceptedEventLine(spec.id, /*cached=*/true, 0));
        sink(ResultEventLine(spec.id, /*cached=*/true,
                             leader_job->result.digest,
                             leader_job->result.payload));
      } else {
        sink(ErrorEventLine(spec.id, ErrorCode::kInternal,
                            leader_job->error_message));
      }
      return leader_job->ok;
    }

    job = std::make_shared<Inflight>();
    job->spec = spec;
    job->fingerprint = fingerprint;
    job->followers.emplace_back(spec.id, sink);

    const Admission admission =
        scheduler_.Submit([this, job](size_t job_threads) {
          RunJob(job, job_threads);
        });
    if (admission != Admission::kAccepted) {
      const ErrorCode reject = admission == Admission::kQueueFull
                                   ? ErrorCode::kQueueFull
                                   : ErrorCode::kShuttingDown;
      if (admission == Admission::kQueueFull) ++rejected_queue_full_;
      sink(ErrorEventLine(
          spec.id, reject,
          reject == ErrorCode::kQueueFull
              ? "admission queue is full; resubmit later"
              : "server is shutting down"));
      return false;
    }
    inflight_[fingerprint] = job;
    ++runs_started_;
    sink(AcceptedEventLine(spec.id, /*cached=*/false,
                           scheduler_.queue_depth()));
    {
      std::lock_guard<std::mutex> job_lock(job->mutex);
      job->announced = true;
    }
    job->announced_cv.notify_all();
  }
  return true;
}

void ExperimentService::RunJob(std::shared_ptr<Inflight> job,
                               size_t job_threads) {
  {
    // Hold at the starting line until the submitter's accepted event is
    // on the wire (the pool can dispatch faster than Submit returns).
    std::unique_lock<std::mutex> lock(job->mutex);
    job->announced_cv.wait(lock, [&job] { return job->announced; });
  }
  JobResult result;
  bool ok = false;
  std::string error_message;
  try {
    // Execution thread budgets come from the scheduler's per-job split,
    // not from the request: thread counts never move result bits, so
    // the payload echoes the *requested* values (like the CLI echoes
    // its flags) while execution stays inside the serving budget. A
    // sweep spends the budget on grid points, each point sequential
    // inside; an experiment spends it on trials.
    JobRunOptions run;
    run.num_threads = job->spec.is_sweep() ? 1 : job_threads;
    run.trial_threads = 1;
    run.point_threads = job_threads;
    run.on_progress = [&job](const char* unit, size_t index, size_t completed,
                             size_t total) {
      job->Broadcast([&](const std::string& id) {
        return ProgressEventLine(id, unit, index, completed, total);
      });
    };
    run.provenance_json = RenderProvenance(
        /*force_scalar=*/false, /*num_shards=*/0, /*checkpoint_path=*/"",
        /*resume=*/false, "\"served\": true");
    result = RunJobSpec(job->spec, run);
    ok = true;
  } catch (const std::exception& e) {
    error_message = e.what();
  } catch (...) {
    error_message = "experiment engine failure";
  }

  if (ok) {
    // Cache before the terminal broadcast so a submission racing the
    // finish finds either the inflight entry or the cache — never a gap.
    cache_.Insert(job->fingerprint, result);
  }
  std::vector<std::pair<std::string, EventSink>> followers;
  {
    std::lock_guard<std::mutex> lock(job->mutex);
    job->done = true;
    job->ok = ok;
    job->result = result;
    job->error_message = error_message;
    followers = job->followers;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    inflight_.erase(job->fingerprint);
  }
  for (const auto& follower : followers) {
    if (ok) {
      follower.second(ResultEventLine(follower.first, /*cached=*/false,
                                      result.digest, result.payload));
    } else {
      follower.second(ErrorEventLine(follower.first, ErrorCode::kInternal,
                                     error_message));
    }
  }
}

void ExperimentService::Shutdown() { scheduler_.Shutdown(); }

size_t ExperimentService::runs_started() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return runs_started_;
}

size_t ExperimentService::dedup_joins() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dedup_joins_;
}

size_t ExperimentService::rejected_queue_full() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rejected_queue_full_;
}

}  // namespace serve
}  // namespace eqimpact
