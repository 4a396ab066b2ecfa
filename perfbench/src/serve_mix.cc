// serve_mix: a regulator's query traffic against `run_experiment --serve`.
//
// Why this workload: an open loop of seeded Poisson arrivals hits an
// in-process serve::Server with the CLI defaults (epoll, 2 workers, queue
// 16, cache 64). Most requests repeat pre-warmed specs, so transport and
// protocol cost decide the median; fresh specs go to the engine, so queue
// wait plus engine time decide the tail. Duplicates of in-flight specs
// exercise dedup, and malformed lines must come back as typed errors.
// The server sees only the generated lines; every payload is checked
// byte for byte against a direct RunExperiment + RenderExperimentJson.
//
// User operation: one request, timed from its due time to its terminal
// event.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "rng/random.h"
#include "runtime/shard.h"
#include "runtime/thread_pool.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/render_json.h"
#include "serve/server.h"
#include "sim/experiment.h"
#include "sim/scenario_registry.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace eqimpact;

constexpr double kArrivalsPerS = 500.0;
/// Request mix; the remainder (1%) are malformed lines.
constexpr double kCachedShare = 0.85;
constexpr double kFreshShare = 0.10;
constexpr double kDedupShare = 0.04;
constexpr size_t kWarmSpecs = 12;
constexpr size_t kTrialsPerSpec = 2;
/// Goodput counts correct responses within this latency.
constexpr double kGoodputLimitS = 0.250;
/// Wait for stragglers this long after the last due time.
constexpr double kDrainTimeoutS = 15.0;
/// Set-ups (server start + pre-warm) timed before and after the windows.
constexpr size_t kSetupRepeats = 5;

enum class Kind { kCached, kFresh, kDedup, kError };

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kCached: return "cached";
    case Kind::kFresh: return "fresh";
    case Kind::kDedup: return "dedup";
    case Kind::kError: return "error";
  }
  return "";
}

std::string Num(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// A small experiment spec, as a client writes it.
struct Spec {
  std::string scenario;
  std::pair<std::string, double> size;
  uint64_t seed = 0;
  ExpectedOutcome expected;
  double engine_ms = 0.0;

  std::string Line(const std::string& id) const {
    return "{\"id\":\"" + id + "\",\"scenario\":\"" + scenario +
           "\",\"trials\":" + std::to_string(kTrialsPerSpec) +
           ",\"seed\":" + std::to_string(seed) + ",\"set\":{\"" +
           size.first + "\":" + Num(size.second) + "}}";
  }
};

Spec RandomSpec(rng::Random* random, size_t variant) {
  Spec spec;
  spec.seed = random->UniformInt(1u << 30);
  switch (variant % 3) {
    case 0:
      spec.scenario = "credit";
      spec.size = {"num_users", 100.0 + 50.0 * random->UniformInt(6)};
      break;
    case 1:
      spec.scenario = "ensemble";
      spec.size = {"num_agents", 10.0 + 10.0 * random->UniformInt(4)};
      break;
    default:
      spec.scenario = "market";
      spec.size = {"num_workers", 20.0 + 10.0 * random->UniformInt(3)};
      break;
  }
  return spec;
}

// The payload the service must return: the same experiment run directly
// and rendered with the served header. Returns the result for replays.
sim::ExperimentResult RunDirect(Spec* spec, size_t job_threads) {
  std::unique_ptr<sim::Scenario> scenario =
      sim::CreateScenario(spec->scenario);
  scenario->SetParameter(spec->size.first, spec->size.second);
  sim::ExperimentOptions options;
  options.num_trials = kTrialsPerSpec;
  options.master_seed = spec->seed;
  options.num_threads = job_threads;
  options.trial_threads = 1;
  const double start = NowSeconds();
  sim::ExperimentResult result = sim::RunExperiment(scenario.get(), options);
  spec->engine_ms = (NowSeconds() - start) * 1e3;
  serve::RenderHeader header;
  header.num_trials = kTrialsPerSpec;
  header.master_seed = spec->seed;
  header.provenance_json = serve::RenderProvenance(
      /*force_scalar=*/false, /*num_shards=*/0, /*checkpoint_path=*/"",
      /*resume=*/false, "\"served\": true");
  spec->expected.payload = serve::RenderExperimentJson(result, header);
  spec->expected.digest = sim::ExperimentDigest(result);
  return result;
}

struct Request {
  Kind kind = Kind::kCached;
  size_t spec = 0;  // Index into the spec table; unused for kError.
  size_t connection = 0;
  std::string id;
  std::string line;
  std::string error_code;  // kError only.
  OpenLoopTiming timing;
  double accepted = -1.0;
  ObservedOutcome observed;
};

/// The open-loop schedule of one measured window.
struct Schedule {
  std::vector<Request> requests;
  double seconds = 0.0;
};

// Malformed lines, each with the typed error the protocol owes it.
Request Malformed(size_t variant, const std::string& id) {
  Request request;
  request.kind = Kind::kError;
  request.id = id;
  switch (variant % 4) {
    case 0:  // Truncated JSON: the error carries no id.
      request.line = "{\"id\":\"" + id + "\",\"scenario\":\"credit\"";
      request.error_code = "bad_json";
      break;
    case 1:
      request.line = "{\"id\":\"" + id + "\",\"scenario\":\"credit\",\"trials\":0}";
      request.error_code = "bad_request";
      break;
    case 2:
      request.line = "{\"id\":\"" + id + "\",\"scenario\":\"lottery\"}";
      request.error_code = "unknown_scenario";
      break;
    default:
      request.line = "{\"id\":\"" + id +
                     "\",\"scenario\":\"credit\",\"set\":{\"num_users\":-5}}";
      request.error_code = "bad_parameter";
      break;
  }
  return request;
}

// Seeded Poisson arrivals over `seconds`, classified by the mix. Fresh
// specs are appended to `specs`; a duplicate repeats the latest fresh
// spec, which is usually still running.
Schedule MakeSchedule(uint64_t seed, double seconds, size_t connections,
                      size_t first_id, std::vector<Spec>* specs) {
  rng::Random random(seed);
  Schedule schedule;
  schedule.seconds = seconds;
  size_t latest_fresh = 0;
  bool any_fresh = false;
  for (double due = random.Exponential(kArrivalsPerS); due < seconds;
       due += random.Exponential(kArrivalsPerS)) {
    const size_t index = schedule.requests.size();
    const std::string id = "r-" + std::to_string(first_id + index);
    const double u = random.UniformDouble();
    Request request;
    if (u < kCachedShare) {
      request.kind = Kind::kCached;
      request.spec = random.UniformInt(kWarmSpecs);
    } else if (u < kCachedShare + kFreshShare + kDedupShare) {
      const bool dedup = u >= kCachedShare + kFreshShare && any_fresh;
      request.kind = dedup ? Kind::kDedup : Kind::kFresh;
      if (!dedup) {
        specs->push_back(RandomSpec(&random, specs->size()));
        latest_fresh = specs->size() - 1;
        any_fresh = true;
      }
      request.spec = latest_fresh;
    } else {
      request = Malformed(random.UniformInt(4), id);
    }
    request.id = id;
    if (request.kind != Kind::kError) {
      request.line = (*specs)[request.spec].Line(id);
    }
    request.connection = index % connections;
    request.timing.due = due;
    schedule.requests.push_back(std::move(request));
  }
  return schedule;
}

/// The server under test and its client connections.
struct Served {
  std::unique_ptr<serve::Server> server;
  std::vector<std::unique_ptr<serve::Client>> clients;
};

// Starts a server with the CLI defaults, connects the clients and
// pre-warms the cache with the warm specs (pipelined on one connection).
// Returns false unless every warm result matches its direct run.
bool StartAndWarm(size_t connections, const std::vector<Spec>& specs,
                  Served* served) {
  served->server.reset(new serve::Server(serve::ServerOptions()));
  if (!served->server->Start()) return false;
  served->clients.clear();
  for (size_t c = 0; c < connections; ++c) {
    served->clients.emplace_back(new serve::Client());
    std::string error;
    if (!served->clients.back()->Connect(served->server->port(), &error)) {
      return false;
    }
  }
  serve::Client& client = *served->clients.front();
  for (size_t s = 0; s < kWarmSpecs; ++s) {
    if (!client.Send(specs[s].Line("w-" + std::to_string(s)))) return false;
  }
  bool ok = true;
  for (size_t results = 0; results < kWarmSpecs;) {
    serve::ClientEvent event;
    std::string error;
    if (!client.ReadEvent(&event, &error)) return false;
    if (event.event == "error") return false;
    if (event.event != "result") continue;
    const size_t s = std::stoul(event.id.substr(2));
    ok = ok && s < kWarmSpecs && event.payload == specs[s].expected.payload &&
         event.digest == specs[s].expected.digest;
    ++results;
  }
  return ok;
}

struct Arrival {
  double time = 0.0;
  serve::ClientEvent event;
};

// Sends the schedule open-loop (each line at its due time, whatever the
// server is doing) while one reader per connection timestamps every
// event, then matches events to requests.
void Drive(Served* served, Schedule* schedule) {
  const size_t connections = served->clients.size();
  std::vector<size_t> expected_terminals(connections, 0);
  for (const Request& request : schedule->requests) {
    ++expected_terminals[request.connection];
  }
  std::vector<std::vector<Arrival>> arrivals(connections);
  std::atomic<size_t> terminals{0};
  std::vector<std::thread> readers;
  for (size_t c = 0; c < connections; ++c) {
    readers.emplace_back([&, c] {
      for (size_t seen = 0; seen < expected_terminals[c];) {
        Arrival arrival;
        std::string error;
        if (!served->clients[c]->ReadEvent(&arrival.event, &error)) return;
        arrival.time = NowSeconds();
        if (arrival.event.event == "progress") continue;
        const bool terminal =
            arrival.event.event == "result" || arrival.event.event == "error";
        arrivals[c].push_back(std::move(arrival));
        if (terminal) {
          ++seen;
          terminals.fetch_add(1);
        }
      }
    });
  }

  const double origin = NowSeconds() + 0.05;
  for (Request& request : schedule->requests) {
    request.timing.due += origin;
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(request.timing.due))));
    request.timing.sent = NowSeconds();
    served->clients[request.connection]->Send(request.line);
  }
  const double deadline = origin + schedule->seconds + kDrainTimeoutS;
  while (terminals.load() < schedule->requests.size() &&
         NowSeconds() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (terminals.load() < schedule->requests.size()) {
    // Closing the connections ends the readers; missing events count as
    // timeouts.
    served->server->Shutdown();
  }
  for (std::thread& reader : readers) reader.join();

  std::map<std::string, size_t> by_id;
  std::vector<std::vector<size_t>> untagged(connections);  // bad_json, FIFO.
  for (size_t i = 0; i < schedule->requests.size(); ++i) {
    const Request& request = schedule->requests[i];
    by_id[request.id] = i;
    if (request.error_code == "bad_json") {
      untagged[request.connection].push_back(i);
    }
  }
  for (size_t c = 0; c < connections; ++c) {
    size_t next_untagged = 0;
    for (Arrival& arrival : arrivals[c]) {
      size_t index = 0;
      if (arrival.event.id.empty()) {
        if (next_untagged == untagged[c].size()) continue;
        index = untagged[c][next_untagged++];
      } else {
        const auto it = by_id.find(arrival.event.id);
        if (it == by_id.end()) continue;
        index = it->second;
      }
      Request& request = schedule->requests[index];
      if (arrival.event.event == "accepted") {
        if (request.accepted < 0.0) request.accepted = arrival.time;
        continue;
      }
      request.timing.done = arrival.time;
      request.observed.finished = true;
      request.observed.is_error = arrival.event.event == "error";
      request.observed.error_code = arrival.event.code;
      request.observed.payload = std::move(arrival.event.payload);
      request.observed.digest = arrival.event.digest;
    }
  }
}

// Checks every request of the window; returns the per-request verdicts.
std::vector<bool> Verify(const Schedule& schedule,
                         const std::vector<Spec>& specs, Report* report) {
  std::vector<bool> ok;
  ExpectedOutcome typed_error;
  typed_error.is_error = true;
  for (const Request& request : schedule.requests) {
    typed_error.error_code = request.error_code;
    const ExpectedOutcome& expected = request.kind == Kind::kError
                                          ? typed_error
                                          : specs[request.spec].expected;
    std::string reason;
    ok.push_back(OutcomeMatches(expected, request.observed, &reason));
    report->Count(ok.back(), request.id + " (" + KindName(request.kind) +
                                 "): " + reason);
  }
  return ok;
}

std::vector<double> LatenciesMs(const Schedule& schedule) {
  std::vector<double> out;
  for (const Request& request : schedule.requests) {
    out.push_back(LatencyFromDue(request.timing) * 1e3);
  }
  return out;
}

/// Serving counters, read through the public accessors.
struct Counters {
  size_t hits = 0, misses = 0, dedup = 0, runs = 0, queue_full = 0;
  size_t failed_jobs = 0, pauses = 0, peak_queue_bytes = 0;

  static Counters Read(serve::Server& server) {
    serve::ExperimentService& service = server.service();
    const serve::TransportStats transport = server.transport_stats();
    Counters c;
    c.hits = service.cache_hits();
    c.misses = service.cache_misses();
    c.dedup = service.dedup_joins();
    c.runs = service.runs_started();
    c.queue_full = service.rejected_queue_full();
    c.failed_jobs = service.scheduler().failed_jobs();
    c.pauses = transport.backpressure_pauses;
    c.peak_queue_bytes = transport.peak_write_queue_bytes;
    return c;
  }
};

// Spans of one traced window, from the client-side timestamps: a request
// span from due to terminal event with the generator lag, the wait for
// the accepted event and the wait for the result as children.
void RecordSpans(const Schedule& schedule, SpanRecorder* recorder) {
  for (size_t i = 0; i < schedule.requests.size(); ++i) {
    const Request& r = schedule.requests[i];
    const OpenLoopTiming& t = r.timing;
    if (t.done < 0.0) continue;
    const uint64_t id = i + 1;  // Request ids start at 1; 0 = none.
    const uint64_t span = recorder->Record(
        std::string("serve.request.") + KindName(r.kind), t.due, t.done, 0,
        id);
    recorder->Record("serve.generator_lag", t.due, t.sent, span, id);
    if (r.accepted >= 0.0) {
      recorder->Record("serve.accepted", t.sent, r.accepted, span, id);
      recorder->Record("serve.result", r.accepted, t.done, span, id);
    } else {
      recorder->Record("serve.error", t.sent, t.done, span, id);
    }
  }
}

// Per-layer serving metrics derived from the traced window's spans.
void ReportSpans(const Schedule& schedule, const std::vector<Spec>& specs,
                 const SpanRecorder& recorder, Report* report) {
  std::map<uint64_t, std::map<std::string, double>> by_request;
  for (const Span& span : recorder.spans()) {
    by_request[span.request][span.name] += span.duration() * 1e3;
  }
  std::vector<double> to_accepted, queue_wait, engine;
  for (const auto& entry : by_request) {
    const std::map<std::string, double>& parts = entry.second;
    if (entry.first == 0 || !parts.count("serve.accepted")) continue;
    to_accepted.push_back(parts.at("serve.generator_lag") +
                          parts.at("serve.accepted"));
    const Request& request = schedule.requests[entry.first - 1];
    if (request.kind == Kind::kFresh) {
      const double engine_ms = specs[request.spec].engine_ms;
      queue_wait.push_back(parts.at("serve.result") - engine_ms);
      engine.push_back(engine_ms);
    }
  }
  const auto durations = [&](const char* kind) {
    return recorder.DurationsMs(std::string("serve.request.") + kind);
  };
  report->Set("serve.accepted_p50_ms", Median(to_accepted), "ms");
  report->Set("serve.cached_p50_ms", Median(durations("cached")), "ms");
  report->Set("serve.cached_p99_ms", Percentile(durations("cached"), 99),
              "ms");
  report->Set("serve.error_p50_ms", Median(durations("error")), "ms");
  report->Set("serve.fresh_p50_ms", Median(durations("fresh")), "ms");
  report->Set("serve.fresh_p99_ms", Percentile(durations("fresh"), 99), "ms");
  report->Set("serve.dedup_p50_ms", Median(durations("dedup")), "ms");
  report->Set("serve.queue_wait_p50_ms", Median(queue_wait), "ms");
  report->Set("sim.fresh_engine_ms", Median(engine), "ms");
  std::vector<double> lag;
  for (const Request& request : schedule.requests) {
    lag.push_back(GeneratorLag(request.timing) * 1e3);
  }
  report->Set("serve.generator_lag_p99_ms", Percentile(lag, 99), "ms");
}

// The serve layer's pure functions replayed on the window's own lines and
// on the warm results.
void ReplayFunctions(const Schedule& schedule,
                     const std::vector<sim::ExperimentResult>& warm_results,
                     const std::vector<Spec>& specs, SpanRecorder* recorder,
                     Report* report) {
  constexpr size_t kPasses = 5;
  std::vector<serve::JobSpec> parsed;
  size_t parseable = 0;  // Lines whose JSON and spec shape are valid.
  for (const Request& request : schedule.requests) {
    parseable += request.error_code != "bad_json" &&
                 request.error_code != "bad_request";
  }
  double seconds = MedianSeconds(kPasses, [&] {
    ScopedSpan span(recorder, "serve.parse");
    parsed.clear();
    for (const Request& request : schedule.requests) {
      serve::JsonValue value;
      std::string error;
      serve::JobSpec spec;
      serve::ErrorCode code;
      if (serve::ParseJson(request.line, &value, &error) &&
          serve::ParseJobSpec(value, &spec, &code, &error)) {
        parsed.push_back(std::move(spec));
      }
    }
  });
  report->Set("serve.parse_us", seconds * 1e6 / schedule.requests.size(),
              "us");
  uint64_t mixed = 0;
  seconds = MedianSeconds(kPasses, [&] {
    ScopedSpan span(recorder, "serve.fingerprint");
    for (const serve::JobSpec& spec : parsed) {
      mixed ^= serve::JobSpecFingerprint(spec);
    }
  });
  report->Set("serve.fingerprint_us", seconds * 1e6 / parsed.size(), "us");

  std::vector<std::string> rendered(warm_results.size());
  seconds = MedianSeconds(kPasses, [&] {
    ScopedSpan span(recorder, "serve.render");
    for (size_t s = 0; s < warm_results.size(); ++s) {
      serve::RenderHeader header;
      header.num_trials = kTrialsPerSpec;
      header.master_seed = specs[s].seed;
      header.provenance_json = serve::RenderProvenance(
          false, 0, "", false, "\"served\": true");
      rendered[s] = serve::RenderExperimentJson(warm_results[s], header);
    }
  });
  bool same = parsed.size() == parseable;
  for (size_t s = 0; s < warm_results.size(); ++s) {
    same = same && rendered[s] == specs[s].expected.payload;
  }
  report->Count(same, "parse or render replay differs from the served run");
  report->Set("serve.render_us", seconds * 1e6 / warm_results.size(), "us");

  size_t bytes = 0;
  seconds = MedianSeconds(kPasses, [&] {
    ScopedSpan span(recorder, "serve.event_line");
    for (size_t s = 0; s < warm_results.size(); ++s) {
      bytes += serve::ResultEventLine("w-" + std::to_string(s), true,
                                      specs[s].expected.digest,
                                      specs[s].expected.payload)
                   .size();
    }
  });
  report->Count(bytes > 0 && mixed != 0, "event line replay produced nothing");
  report->Set("serve.event_line_us", seconds * 1e6 / warm_results.size(),
              "us");
}

}  // namespace

void RunServeMix(const RunConfig& config, SpanRecorder* recorder,
                 Report* report) {
  const size_t connections = config.nproc;
  // The per-job thread budget the server's scheduler grants.
  const size_t job_threads =
      runtime::SplitBudget(runtime::ThreadPool::HardwareConcurrency(),
                           serve::SchedulerOptions().num_workers)
          .inner;
  rng::Random spec_random(rng::DeriveSeed(config.seed, 20));
  std::vector<Spec> specs;
  for (size_t s = 0; s < kWarmSpecs; ++s) {
    specs.push_back(RandomSpec(&spec_random, s));
  }
  std::vector<sim::ExperimentResult> warm_results;
  for (size_t s = 0; s < kWarmSpecs; ++s) {
    warm_results.push_back(RunDirect(&specs[s], job_threads));
  }

  // Set-up is timed before and after the windows, since a shared machine's
  // speed over milliseconds varies; the last one before them serves them.
  Served served;
  std::vector<double> setups;
  const auto set_up = [&] {
    if (served.server) served.server->Shutdown();
    served = Served();
    const double start = NowSeconds();
    const bool warm = StartAndWarm(connections, specs, &served);
    setups.push_back(NowSeconds() - start);
    report->Count(warm, "server start or cache pre-warm failed");
    return warm;
  };
  for (size_t i = 0; i < kSetupRepeats; ++i) {
    if (!set_up()) return;
  }
  const Counters before = Counters::Read(*served.server);

  // A traced run measures an untraced and a traced window of half length
  // each, on the same server, from different seeds.
  const size_t windows = config.trace ? 2 : 1;
  const double window_seconds = config.seconds / windows;
  std::vector<Schedule> schedules;
  size_t first_id = 0;
  for (size_t w = 0; w < windows; ++w) {
    schedules.push_back(MakeSchedule(rng::DeriveSeed(config.seed, 21 + w),
                                     window_seconds, connections, first_id,
                                     &specs));
    first_id += schedules.back().requests.size();
    Drive(&served, &schedules.back());
  }
  const Counters after = Counters::Read(*served.server);
  for (size_t i = 0; i < kSetupRepeats; ++i) set_up();
  served.server->Shutdown();
  report->Set("setup_s", Median(setups), "s");

  // Fresh specs run directly once the windows are over.
  for (size_t s = kWarmSpecs; s < specs.size(); ++s) {
    RunDirect(&specs[s], job_threads);
  }

  const Schedule& measured = schedules.back();
  std::vector<std::vector<bool>> verdicts;
  for (const Schedule& schedule : schedules) {
    verdicts.push_back(Verify(schedule, specs, report));
  }
  const std::vector<double> latencies = LatenciesMs(measured);
  if (!config.trace) {
    size_t good = 0;
    for (size_t i = 0; i < latencies.size(); ++i) {
      if (verdicts.back()[i] && latencies[i] <= kGoodputLimitS * 1e3) ++good;
    }
    const Tail tail = HighestSupportedPercentile(latencies);
    report->Set("rate_per_s", good / measured.seconds, "1/s");
    report->Set("goodput_per_s", good / measured.seconds, "1/s");
    report->Set("op_p50_ms", Median(latencies), "ms");
    report->Set("latency_p50_ms", Median(latencies), "ms");
    report->Set("latency_p99_ms", Percentile(latencies, 99), "ms");
    report->Set("op_tail_ms", tail.value, "ms");
    report->Set("op_tail_percentile", tail.percentile, "percent");
    report->Set("op_samples", static_cast<double>(tail.samples), "count");
    return;
  }

  RecordSpans(measured, recorder);
  ReportSpans(measured, specs, *recorder, report);
  ReplayFunctions(measured, warm_results, specs, recorder, report);
  report->Set("serve.latency_p99_ms", Percentile(latencies, 99), "ms");
  report->Set("trace.overhead_share",
              OverheadShare(Median(latencies),
                            Median(LatenciesMs(schedules.front()))),
              "ratio");
  const size_t lookups = (after.hits - before.hits) +
                         (after.misses - before.misses);
  report->Set("serve.cache_hit_ratio",
              lookups ? static_cast<double>(after.hits - before.hits) / lookups
                      : 0.0,
              "ratio");
  report->Set("serve.dedup_joins",
              static_cast<double>(after.dedup - before.dedup), "count");
  report->Set("serve.runs_started",
              static_cast<double>(after.runs - before.runs), "count");
  report->Set("serve.rejected_queue_full",
              static_cast<double>(after.queue_full - before.queue_full),
              "count");
  report->Set("serve.failed_jobs",
              static_cast<double>(after.failed_jobs - before.failed_jobs),
              "count");
  report->Set("serve.backpressure_pauses",
              static_cast<double>(after.pauses - before.pauses), "count");
  report->Set("serve.peak_write_queue_bytes",
              static_cast<double>(after.peak_queue_bytes), "B");
}

}  // namespace perfbench
