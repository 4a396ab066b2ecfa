// Serve-layer tests: the request protocol (JSON parsing, spec
// validation, fingerprints), the bounded-admission scheduler, the LRU
// result cache, the service's cache/dedup behaviour, and the TCP
// server end to end — including the serving contract that a served
// payload is byte-identical to the CLI renderer's output and carries
// the same digest as a direct engine run.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "serve/client.h"
#include "serve/event_loop.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/render_json.h"
#include "serve/result_cache.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "serve/service.h"
#include "sim/experiment.h"
#include "sim/scenario_registry.h"
#include "sim/sweep.h"

namespace {

using eqimpact::serve::Admission;
using eqimpact::serve::Client;
using eqimpact::serve::ClientEvent;
using eqimpact::serve::ErrorCode;
using eqimpact::serve::ExperimentService;
using eqimpact::serve::JobResult;
using eqimpact::serve::JobSpec;
using eqimpact::serve::JsonValue;
using eqimpact::serve::ParseJson;
using eqimpact::serve::RenderExperimentJson;
using eqimpact::serve::RenderSweepJson;
using eqimpact::serve::LineFramer;
using eqimpact::serve::ResultCache;
using eqimpact::serve::Scheduler;
using eqimpact::serve::SchedulerOptions;
using eqimpact::serve::Server;
using eqimpact::serve::ServerOptions;
using eqimpact::serve::ServiceOptions;
using eqimpact::serve::TransportStats;

// --- JSON -------------------------------------------------------------

TEST(ServeJson, ParsesObjectsArraysAndScalars) {
  JsonValue value;
  std::string error;
  ASSERT_TRUE(ParseJson(
      R"({"a": 1.5, "b": [true, null, "x\n"], "c": {"d": -2e3}})", &value,
      &error))
      << error;
  ASSERT_TRUE(value.is_object());
  EXPECT_DOUBLE_EQ(value.Find("a")->as_number(), 1.5);
  const JsonValue* b = value.Find("b");
  ASSERT_TRUE(b->is_array());
  ASSERT_EQ(b->items().size(), 3u);
  EXPECT_TRUE(b->items()[0].as_bool());
  EXPECT_TRUE(b->items()[1].is_null());
  EXPECT_EQ(b->items()[2].as_string(), "x\n");
  EXPECT_DOUBLE_EQ(value.Find("c")->Find("d")->as_number(), -2000.0);
}

TEST(ServeJson, RejectsMalformedInput) {
  JsonValue value;
  std::string error;
  const char* bad[] = {"",       "{",           "{\"a\": }", "[1,]",
                       "01",     "\"unclosed",  "{} extra",  "nan",
                       "+1",     "{'a': 1}",    "[1 2]",     "\"\\q\""};
  for (const char* text : bad) {
    EXPECT_FALSE(ParseJson(text, &value, &error)) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(ServeJson, DumpRoundTrips) {
  JsonValue object = JsonValue::Object();
  object.Set("name", JsonValue::String("a\"b\\c"));
  object.Set("count", JsonValue::Number(3));
  JsonValue array = JsonValue::Array();
  array.Append(JsonValue::Number(0.1));
  array.Append(JsonValue::Bool(false));
  object.Set("items", array);
  JsonValue reparsed;
  std::string error;
  ASSERT_TRUE(ParseJson(object.Dump(), &reparsed, &error)) << error;
  EXPECT_EQ(reparsed.Find("name")->as_string(), "a\"b\\c");
  EXPECT_DOUBLE_EQ(reparsed.Find("count")->as_number(), 3.0);
  EXPECT_DOUBLE_EQ(reparsed.Find("items")->items()[0].as_number(), 0.1);
}

TEST(ServeJson, RenderedDocumentsEscapeEveryQuotedString) {
  // The checkpoint path comes from the command line; names and labels
  // come from scenarios. Each must parse back to the bytes that went in.
  const std::string odd = "ck\"x\\y\nz.bin";
  JsonValue parsed;
  std::string error;
  eqimpact::serve::RenderHeader header;
  header.provenance_json =
      eqimpact::serve::RenderProvenance(false, 0, odd, true, "");

  std::unique_ptr<eqimpact::sim::Scenario> scenario =
      eqimpact::sim::CreateScenario("ensemble");
  ASSERT_TRUE(scenario->SetParameter("num_agents", 8));
  ASSERT_TRUE(scenario->SetParameter("steps", 10));
  eqimpact::sim::ExperimentOptions experiment;
  experiment.num_trials = 1;
  eqimpact::sim::ExperimentResult result =
      eqimpact::sim::RunExperiment(scenario.get(), experiment);
  result.scenario = odd;
  result.group_labels[1] = odd;
  result.metric_names[0] = odd;
  const std::string experiment_document = RenderExperimentJson(result, header);
  ASSERT_TRUE(ParseJson(experiment_document, &parsed, &error)) << error;
  EXPECT_EQ(
      parsed.Find("provenance")->Find("checkpoint_path")->as_string(), odd);
  EXPECT_EQ(parsed.Find("scenario")->as_string(), odd);
  EXPECT_EQ(parsed.Find("group_labels")->items()[1].as_string(), odd);
  EXPECT_EQ(parsed.Find("metrics")->members()[0].first, odd);

  eqimpact::sim::SweepOptions sweep;
  sweep.experiment = experiment;
  sweep.parameters = {{"gain", {0.05}}};
  eqimpact::sim::SweepResult swept = eqimpact::sim::RunSweep(
      [] {
        std::unique_ptr<eqimpact::sim::Scenario> point =
            eqimpact::sim::CreateScenario("ensemble");
        point->SetParameter("num_agents", 8);
        point->SetParameter("steps", 10);
        return point;
      },
      sweep);
  swept.scenario = odd;
  swept.parameter_names[0] = odd;
  swept.metric_names[2] = odd;
  const std::string sweep_document = RenderSweepJson(swept, header);
  ASSERT_TRUE(ParseJson(sweep_document, &parsed, &error)) << error;
  EXPECT_EQ(parsed.Find("scenario")->as_string(), odd);
  EXPECT_EQ(parsed.Find("parameters")->items()[0].as_string(), odd);
  EXPECT_EQ(parsed.Find("metric_names")->items()[2].as_string(), odd);
}

TEST(ServeJson, BoundsNestingDepth) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  JsonValue value;
  std::string error;
  EXPECT_FALSE(ParseJson(deep, &value, &error));
}

// --- Protocol ---------------------------------------------------------

JobSpec ParseSpecOrDie(const std::string& text) {
  JsonValue request;
  std::string error;
  EXPECT_TRUE(ParseJson(text, &request, &error)) << error;
  JobSpec spec;
  ErrorCode code;
  EXPECT_TRUE(eqimpact::serve::ParseJobSpec(request, &spec, &code, &error))
      << error;
  return spec;
}

TEST(ServeProtocol, ParsesFullSpec) {
  const JobSpec spec = ParseSpecOrDie(
      R"({"id": "j1", "scenario": "credit", "trials": 3, "seed": 7,
          "bins": 32, "threads": 2, "set": {"num_users": 500},
          "sweep": {"cutoff": [0.4, 0.6]}})");
  EXPECT_EQ(spec.id, "j1");
  EXPECT_EQ(spec.scenario, "credit");
  EXPECT_EQ(spec.num_trials, 3u);
  EXPECT_EQ(spec.master_seed, 7u);
  EXPECT_EQ(spec.impact_bins, 32u);
  EXPECT_EQ(spec.num_threads, 2u);
  ASSERT_EQ(spec.assignments.size(), 1u);
  EXPECT_EQ(spec.assignments[0].first, "num_users");
  EXPECT_DOUBLE_EQ(spec.assignments[0].second, 500.0);
  ASSERT_TRUE(spec.is_sweep());
  ASSERT_EQ(spec.sweeps.size(), 1u);
  EXPECT_EQ(spec.sweeps[0].name, "cutoff");
  EXPECT_EQ(spec.sweeps[0].values.size(), 2u);
}

JobSpec ParseFlagsOrDie(const std::vector<std::string>& args) {
  JobSpec spec;
  std::string error;
  EXPECT_TRUE(eqimpact::serve::ParseJobFlags(args, &spec, nullptr, &error))
      << error;
  return spec;
}

/// Field-for-field equality, doubles compared by bit pattern so a lost
/// sign of zero fails too.
void ExpectSameSpec(const JobSpec& a, const JobSpec& b) {
  auto same_bits = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  };
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.scenario, b.scenario);
  EXPECT_EQ(a.num_trials, b.num_trials);
  EXPECT_EQ(a.master_seed, b.master_seed);
  EXPECT_EQ(a.impact_bins, b.impact_bins);
  EXPECT_EQ(a.num_threads, b.num_threads);
  EXPECT_EQ(a.trial_threads, b.trial_threads);
  EXPECT_EQ(a.point_threads, b.point_threads);
  ASSERT_EQ(a.assignments.size(), b.assignments.size());
  for (size_t i = 0; i < a.assignments.size(); ++i) {
    EXPECT_EQ(a.assignments[i].first, b.assignments[i].first);
    EXPECT_TRUE(same_bits(a.assignments[i].second, b.assignments[i].second));
  }
  ASSERT_EQ(a.sweeps.size(), b.sweeps.size());
  for (size_t i = 0; i < a.sweeps.size(); ++i) {
    EXPECT_EQ(a.sweeps[i].name, b.sweeps[i].name);
    ASSERT_EQ(a.sweeps[i].values.size(), b.sweeps[i].values.size());
    for (size_t v = 0; v < a.sweeps[i].values.size(); ++v) {
      EXPECT_TRUE(same_bits(a.sweeps[i].values[v], b.sweeps[i].values[v]));
    }
  }
}

TEST(ServeProtocol, FlagSpecsRoundTripThroughTheWire) {
  const std::vector<std::vector<std::string>> cases = {
      {"--scenario=credit"},
      {"--scenario=market", "--trials=3", "--seed=1000000000000000",
       "--bins=7", "--threads=2", "--trial-threads=3", "--point-threads=0"},
      // A repeated name keeps both assignments, in order; -0 keeps its
      // sign.
      {"--scenario=credit", "--set", "num_users=150", "--set",
       "cutoff=-0", "--set", "num_users=200"},
      {"--scenario=market", "--sweep", "equalizer_strength=0.5"},
      {"--scenario=market", "--sweep", "a=1,2.5,-3e-7", "--sweep",
       "b=0x1p3", "--seed=0"},
      // A repeated count flag: the last one wins.
      {"--scenario=credit", "--trials=2", "--trials=4"},
  };
  for (const auto& args : cases) {
    JobSpec flags = ParseFlagsOrDie(args);
    flags.id = "round-trip";
    const JobSpec wire = ParseSpecOrDie(eqimpact::serve::EncodeJobSpec(flags));
    ExpectSameSpec(flags, wire);
    EXPECT_EQ(eqimpact::serve::JobSpecFingerprint(flags),
              eqimpact::serve::JobSpecFingerprint(wire));
  }

  // A bare command line and a bare request share one set of defaults.
  const JobSpec defaults = ParseFlagsOrDie(cases[0]);
  EXPECT_EQ(defaults.num_trials, 5u);
  EXPECT_EQ(defaults.master_seed, 42u);
  EXPECT_EQ(defaults.impact_bins, 64u);
  EXPECT_EQ(defaults.num_threads, 0u);
  EXPECT_EQ(defaults.trial_threads, 0u);
  EXPECT_EQ(defaults.point_threads, 1u);
  EXPECT_FALSE(defaults.is_sweep());
  ExpectSameSpec(defaults, ParseSpecOrDie(R"({"scenario": "credit"})"));

  const JobSpec repeated = ParseFlagsOrDie(cases[2]);
  ASSERT_EQ(repeated.assignments.size(), 3u);
  EXPECT_EQ(repeated.assignments[0].second, 150.0);
  EXPECT_TRUE(std::signbit(repeated.assignments[1].second));
  EXPECT_EQ(repeated.assignments[2].second, 200.0);
  const JobSpec hex = ParseFlagsOrDie(cases[4]);
  ASSERT_EQ(hex.sweeps.size(), 2u);
  EXPECT_EQ(hex.sweeps[1].values, std::vector<double>{8.0});
  EXPECT_EQ(ParseFlagsOrDie(cases[5]).num_trials, 4u);
}

TEST(ServeProtocol, BothCodecsRejectTheSameSpecs) {
  const struct {
    std::vector<std::string> flags;
    const char* json;
  } cases[] = {
      {{"--scenario=credit", "--trials=0"},
       R"({"scenario": "credit", "trials": 0})"},
      {{"--scenario=credit", "--bins=0"},
       R"({"scenario": "credit", "bins": 0})"},
      {{"--scenario=credit", "--seed=2000000000000000"},
       R"({"scenario": "credit", "seed": 2e15})"},
      {{"--scenario=credit", "--set", "x=inf"},
       R"({"scenario": "credit", "set": {"x": 1e999}})"},
      {{"--scenario=credit", "--sweep", "x="},
       R"({"scenario": "credit", "sweep": {"x": []}})"},
      {{"--scenario=credit", "--mystery=1"},
       R"({"scenario": "credit", "mystery": 1})"},
      {{"--scenario="}, R"({"scenario": ""})"},
  };
  for (const auto& test_case : cases) {
    JobSpec spec;
    std::string error;
    EXPECT_FALSE(eqimpact::serve::ParseJobFlags(test_case.flags, &spec,
                                                nullptr, &error))
        << test_case.json;
    EXPECT_FALSE(error.empty()) << test_case.json;
    JsonValue request;
    ErrorCode code;
    EXPECT_FALSE(ParseJson(test_case.json, &request, &error) &&
                 eqimpact::serve::ParseJobSpec(request, &spec, &code, &error))
        << test_case.json;
  }
}

TEST(ServeProtocol, CountRefusalsSpellTheBoundAsTheFlagsTakeIt) {
  // The count flags take decimal digits only, so a refusal that named
  // the bound as 1e15 named a spelling the same flags refuse.
  const struct {
    const char* flag;
    const char* message;
  } cases[] = {
      {"--trials=1e3",
       "bad --trials=1e3 (want a non-negative integer <= 1000000000000000)"},
      {"--trials=0", "'trials' must be a positive integer <= 1000000000000000"},
  };
  for (const auto& test_case : cases) {
    JobSpec spec;
    std::string error;
    EXPECT_FALSE(eqimpact::serve::ParseJobFlags({test_case.flag}, &spec,
                                                nullptr, &error));
    EXPECT_EQ(error, test_case.message);
  }
  // The bound as the messages spell it is a count the flags take.
  size_t count = 0;
  EXPECT_TRUE(eqimpact::serve::ParseCountFlag("1000000000000000", &count));
  EXPECT_EQ(count, size_t{1000000000000000});
  EXPECT_FALSE(eqimpact::serve::ParseCountFlag("1000000000000001", &count));
}

TEST(ServeProtocol, FlagCodecHandsBackTheBinarysOwnFlags) {
  const std::vector<std::string> args = {"--resume", "--scenario=credit",
                                         "--set", "a=1", "--checkpoint=ck.bin",
                                         "--trials=2"};
  JobSpec spec;
  std::vector<std::string> rest;
  std::string error;
  ASSERT_TRUE(eqimpact::serve::ParseJobFlags(args, &spec, &rest, &error))
      << error;
  const std::vector<std::string> own = {"--resume", "--checkpoint=ck.bin"};
  EXPECT_EQ(rest, own);
  EXPECT_EQ(spec.scenario, "credit");
  EXPECT_EQ(spec.num_trials, 2u);
  ASSERT_EQ(spec.assignments.size(), 1u);
  // The scenario may be absent (--list, --serve, --certify of all).
  JobSpec bare;
  EXPECT_TRUE(eqimpact::serve::ParseJobFlags({}, &bare, nullptr, &error));
  EXPECT_TRUE(bare.scenario.empty());
}

TEST(ServeProtocol, RejectsMalformedSpecs) {
  const struct {
    const char* text;
    ErrorCode expected;
  } cases[] = {
      {R"([1, 2])", ErrorCode::kBadRequest},
      {R"({"trials": 3})", ErrorCode::kBadRequest},  // no scenario
      {R"({"scenario": "credit", "trials": 0})", ErrorCode::kBadRequest},
      {R"({"scenario": "credit", "trials": -1})", ErrorCode::kBadRequest},
      {R"({"scenario": "credit", "trials": 2.5})", ErrorCode::kBadRequest},
      {R"({"scenario": "credit", "mystery": 1})", ErrorCode::kBadRequest},
      {R"({"scenario": "credit", "set": [1]})", ErrorCode::kBadRequest},
      {R"({"scenario": "credit", "sweep": {"x": []}})",
       ErrorCode::kBadRequest},
      {R"({"scenario": "credit", "sweep": {"x": [1, "y"]}})",
       ErrorCode::kBadRequest},
  };
  for (const auto& test_case : cases) {
    JsonValue request;
    std::string error;
    ASSERT_TRUE(ParseJson(test_case.text, &request, &error)) << error;
    JobSpec spec;
    ErrorCode code;
    EXPECT_FALSE(
        eqimpact::serve::ParseJobSpec(request, &spec, &code, &error))
        << test_case.text;
    EXPECT_EQ(code, test_case.expected) << test_case.text;
  }
}

TEST(ServeProtocol, FingerprintSeparatesSpecs) {
  const JobSpec base = ParseSpecOrDie(R"({"scenario": "credit"})");
  const JobSpec other_seed =
      ParseSpecOrDie(R"({"scenario": "credit", "seed": 43})");
  const JobSpec other_scenario = ParseSpecOrDie(R"({"scenario": "market"})");
  const JobSpec with_set = ParseSpecOrDie(
      R"({"scenario": "credit", "set": {"num_users": 100}})");
  const uint64_t base_print = eqimpact::serve::JobSpecFingerprint(base);
  EXPECT_NE(base_print, eqimpact::serve::JobSpecFingerprint(other_seed));
  EXPECT_NE(base_print,
            eqimpact::serve::JobSpecFingerprint(other_scenario));
  EXPECT_NE(base_print, eqimpact::serve::JobSpecFingerprint(with_set));
  // The client id never reaches the payload, so it never reaches the key.
  JobSpec with_id = base;
  with_id.id = "client-7";
  EXPECT_EQ(base_print, eqimpact::serve::JobSpecFingerprint(with_id));
}

// --- Scheduler --------------------------------------------------------

TEST(ServeScheduler, RejectsWhenQueueIsFull) {
  SchedulerOptions options;
  options.num_workers = 1;
  options.queue_capacity = 1;
  options.total_threads = 1;
  Scheduler scheduler(options);

  std::mutex mutex;
  std::condition_variable started_cv;
  std::condition_variable release_cv;
  bool started = false;
  bool release = false;
  auto blocker = [&](size_t) {
    std::unique_lock<std::mutex> lock(mutex);
    started = true;
    started_cv.notify_all();
    release_cv.wait(lock, [&] { return release; });
  };
  ASSERT_EQ(scheduler.Submit(blocker), Admission::kAccepted);
  {
    // The first job occupies the only worker before we fill the queue,
    // so the admission arithmetic below is deterministic.
    std::unique_lock<std::mutex> lock(mutex);
    started_cv.wait(lock, [&] { return started; });
  }
  EXPECT_EQ(scheduler.Submit([](size_t) {}), Admission::kAccepted);
  EXPECT_EQ(scheduler.queue_depth(), 1u);
  // Executing + queued == num_workers + queue_capacity: full.
  EXPECT_EQ(scheduler.Submit([](size_t) {}), Admission::kQueueFull);
  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  release_cv.notify_all();
  scheduler.Drain();
  EXPECT_EQ(scheduler.in_flight(), 0u);
}

TEST(ServeScheduler, ShutdownRejectsAndDrains) {
  SchedulerOptions options;
  options.num_workers = 2;
  options.total_threads = 1;
  Scheduler scheduler(options);
  std::atomic<int> ran{0};
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(scheduler.Submit([&ran](size_t) { ++ran; }),
              Admission::kAccepted);
  }
  scheduler.Shutdown();
  EXPECT_EQ(ran.load(), 5);
  EXPECT_EQ(scheduler.Submit([](size_t) {}), Admission::kShuttingDown);
}

TEST(ServeScheduler, SwallowsJobExceptions) {
  SchedulerOptions options;
  options.num_workers = 1;
  options.total_threads = 1;
  Scheduler scheduler(options);
  ASSERT_EQ(scheduler.Submit([](size_t) { throw std::runtime_error("x"); }),
            Admission::kAccepted);
  scheduler.Drain();
  EXPECT_EQ(scheduler.failed_jobs(), 1u);
  // The worker survives the throw.
  std::atomic<bool> ran{false};
  ASSERT_EQ(scheduler.Submit([&ran](size_t) { ran = true; }),
            Admission::kAccepted);
  scheduler.Drain();
  EXPECT_TRUE(ran.load());
}

TEST(ServeScheduler, SplitsTheThreadBudgetAcrossWorkers) {
  SchedulerOptions options;
  options.num_workers = 2;
  options.total_threads = 8;
  Scheduler scheduler(options);
  EXPECT_EQ(scheduler.job_threads(), 4u);
}

// --- Result cache -----------------------------------------------------

TEST(ServeResultCache, HitsReturnTheInsertedPayload) {
  ResultCache cache(4);
  JobResult result;
  EXPECT_FALSE(cache.Lookup(1, &result));
  cache.Insert(1, {0xabcdu, "payload-1"});
  ASSERT_TRUE(cache.Lookup(1, &result));
  EXPECT_EQ(result.digest, 0xabcdu);
  EXPECT_EQ(result.payload, "payload-1");
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ServeResultCache, EvictsLeastRecentlyUsed) {
  ResultCache cache(2);
  cache.Insert(1, {1, "one"});
  cache.Insert(2, {2, "two"});
  JobResult result;
  ASSERT_TRUE(cache.Lookup(1, &result));  // 1 is now most recent.
  cache.Insert(3, {3, "three"});          // Evicts 2.
  EXPECT_TRUE(cache.Lookup(1, &result));
  EXPECT_FALSE(cache.Lookup(2, &result));
  EXPECT_TRUE(cache.Lookup(3, &result));
}

// --- Service ----------------------------------------------------------

/// Collects one submission's event stream (sinks may fire from worker
/// threads; the service serializes per-submission calls).
struct EventLog {
  std::mutex mutex;
  std::condition_variable done_cv;
  std::vector<ClientEvent> events;
  bool done = false;

  ExperimentService::EventSink Sink() {
    return [this](const std::string& line) {
      ClientEvent event;
      std::string error;
      ASSERT_TRUE(eqimpact::serve::ParseEventLine(line, &event, &error))
          << error << ": " << line;
      std::lock_guard<std::mutex> lock(mutex);
      events.push_back(event);
      if (event.event == "result" || event.event == "error") {
        done = true;
        done_cv.notify_all();
      }
    };
  }

  void WaitDone() {
    std::unique_lock<std::mutex> lock(mutex);
    done_cv.wait(lock, [this] { return done; });
  }

  const ClientEvent& last() {
    std::lock_guard<std::mutex> lock(mutex);
    return events.back();
  }
};

ServiceOptions SmallService() {
  ServiceOptions options;
  options.scheduler.num_workers = 2;
  options.scheduler.queue_capacity = 4;
  options.scheduler.total_threads = 1;
  options.cache_capacity = 8;
  return options;
}

ServerOptions SmallServer() {
  ServerOptions options;
  options.service = SmallService();
  return options;
}

const char kSmallCreditJob[] =
    R"({"scenario": "credit", "trials": 2, "set": {"num_users": 150}})";

TEST(ServeService, StreamsAcceptedProgressResult) {
  ExperimentService service(SmallService());
  EventLog log;
  ASSERT_TRUE(service.Submit(kSmallCreditJob, log.Sink()));
  log.WaitDone();
  ASSERT_EQ(log.events.size(), 4u);  // accepted, 2x progress, result.
  EXPECT_EQ(log.events[0].event, "accepted");
  EXPECT_FALSE(log.events[0].cached);
  EXPECT_EQ(log.events[1].event, "progress");
  EXPECT_EQ(log.events[1].unit, "trial");
  EXPECT_EQ(log.events[2].completed, 2u);
  EXPECT_EQ(log.events[3].event, "result");
  EXPECT_NE(log.events[3].digest, 0u);
  EXPECT_FALSE(log.events[3].payload.empty());
}

TEST(ServeService, ServedDigestMatchesDirectEngineRun) {
  ExperimentService service(SmallService());
  EventLog log;
  ASSERT_TRUE(service.Submit(kSmallCreditJob, log.Sink()));
  log.WaitDone();

  std::unique_ptr<eqimpact::sim::Scenario> scenario =
      eqimpact::sim::CreateScenario("credit");
  ASSERT_TRUE(scenario->SetParameter("num_users", 150));
  eqimpact::sim::ExperimentOptions options;
  options.num_trials = 2;
  options.num_threads = 1;
  eqimpact::sim::ExperimentResult direct =
      eqimpact::sim::RunExperiment(scenario.get(), options);
  EXPECT_EQ(log.last().digest, eqimpact::sim::ExperimentDigest(direct));
}

TEST(ServeService, ServedSweepStreamsPointsAndMatchesTheCliPath) {
  ExperimentService service(SmallService());
  const char job[] =
      R"({"scenario": "market", "trials": 2,
          "set": {"rounds": 60, "num_workers": 40},
          "sweep": {"equalizer_strength": [0, 1]}})";
  EventLog log;
  ASSERT_TRUE(service.Submit(job, log.Sink()));
  log.WaitDone();
  ASSERT_EQ(log.events.size(), 4u);  // accepted, 2x progress, result.
  std::vector<size_t> points;
  for (size_t i = 1; i <= 2; ++i) {
    EXPECT_EQ(log.events[i].event, "progress");
    EXPECT_EQ(log.events[i].unit, "point");
    EXPECT_EQ(log.events[i].completed, i);
    EXPECT_EQ(log.events[i].total, 2u);
    points.push_back(log.events[i].index);
  }
  std::sort(points.begin(), points.end());
  EXPECT_EQ(points, (std::vector<size_t>{0, 1}));
  ASSERT_EQ(log.last().event, "result");

  // The same spec from the command line, on the CLI's thread budgets.
  const JobSpec cli = ParseFlagsOrDie(
      {"--scenario=market", "--trials=2", "--set", "rounds=60", "--set",
       "num_workers=40", "--sweep", "equalizer_strength=0,1"});
  eqimpact::serve::JobRunOptions run;
  run.num_threads = cli.num_threads;
  run.trial_threads = cli.trial_threads;
  run.point_threads = cli.point_threads;
  run.provenance_json = eqimpact::serve::RenderProvenance(
      false, 0, "", false, "\"served\": true");
  const JobResult direct = eqimpact::serve::RunJobSpec(cli, run);
  EXPECT_EQ(log.last().payload, direct.payload);
  EXPECT_EQ(log.last().digest, direct.digest);
}

TEST(ServeService, CacheHitIsBitwiseIdentical) {
  ExperimentService service(SmallService());
  EventLog first;
  ASSERT_TRUE(service.Submit(kSmallCreditJob, first.Sink()));
  first.WaitDone();
  EventLog second;
  ASSERT_TRUE(service.Submit(kSmallCreditJob, second.Sink()));
  second.WaitDone();
  // The repeat is answered from cache: no second engine run, and the
  // payload/digest are byte-for-byte the first run's.
  EXPECT_EQ(service.runs_started(), 1u);
  EXPECT_GE(service.cache_hits(), 1u);
  ASSERT_EQ(second.events.size(), 2u);  // accepted + result, no progress.
  EXPECT_TRUE(second.events[0].cached);
  EXPECT_TRUE(second.events[1].cached);
  EXPECT_EQ(second.last().payload, first.last().payload);
  EXPECT_EQ(second.last().digest, first.last().digest);
}

TEST(ServeService, ConcurrentIdenticalSubmissionsDedupToOneRun) {
  // One worker: the first submission occupies it, the identical
  // follow-ups must join it rather than queue their own runs.
  ServiceOptions options = SmallService();
  options.scheduler.num_workers = 1;
  ExperimentService service(options);
  const char job[] =
      R"({"scenario": "credit", "trials": 3, "set": {"num_users": 40000}})";
  EventLog logs[3];
  for (auto& log : logs) {
    ASSERT_TRUE(service.Submit(job, log.Sink()));
  }
  for (auto& log : logs) log.WaitDone();
  EXPECT_EQ(service.runs_started(), 1u);
  EXPECT_EQ(service.dedup_joins(), 2u);
  for (auto& log : logs) {
    EXPECT_EQ(log.last().event, "result");
    EXPECT_EQ(log.last().payload, logs[0].last().payload);
  }
  // Every subscriber's stream is tagged with its own id.
  EXPECT_NE(logs[0].last().id, logs[1].last().id);
}

TEST(ServeService, TypedErrorsDoNotReachTheScheduler) {
  ExperimentService service(SmallService());
  const struct {
    const char* request;
    const char* code;
  } cases[] = {
      {"{oops", "bad_json"},
      {R"({"scenario": "credit", "trials": "three"})", "bad_request"},
      {R"({"scenario": "galaxy"})", "unknown_scenario"},
      {R"({"scenario": "credit", "set": {"num_users": -5}})",
       "bad_parameter"},
      {R"({"scenario": "credit", "sweep": {"warp": [1]}})",
       "bad_parameter"},
      {R"({"scenario": "market", "set": {"skill_classes": 257}})",
       "bad_parameter"},
  };
  for (const auto& test_case : cases) {
    EventLog log;
    EXPECT_FALSE(service.Submit(test_case.request, log.Sink()))
        << test_case.request;
    ASSERT_EQ(log.events.size(), 1u) << test_case.request;
    EXPECT_EQ(log.events[0].event, "error");
    EXPECT_EQ(log.events[0].code, test_case.code) << test_case.request;
  }
  EXPECT_EQ(service.runs_started(), 0u);
  // The service keeps serving after every rejection.
  EventLog log;
  ASSERT_TRUE(service.Submit(kSmallCreditJob, log.Sink()));
  log.WaitDone();
  EXPECT_EQ(log.last().event, "result");
}

TEST(ServeService, ShutdownRejectsNewJobsWithTypedError) {
  ExperimentService service(SmallService());
  service.Shutdown();
  EventLog log;
  EXPECT_FALSE(service.Submit(kSmallCreditJob, log.Sink()));
  ASSERT_EQ(log.events.size(), 1u);
  EXPECT_EQ(log.events[0].code, "shutting_down");
}

// --- TCP server -------------------------------------------------------

TEST(ServeServer, ServesOverLoopbackByteIdenticallyToTheRenderer) {
  ServerOptions options;
  options.service = SmallService();
  Server server(options);
  ASSERT_TRUE(server.Start());
  ASSERT_GT(server.port(), 0);

  Client client;
  std::string error;
  ASSERT_TRUE(client.Connect(server.port(), &error)) << error;
  ClientEvent last;
  ASSERT_TRUE(client.SubmitAndWait(kSmallCreditJob, &last, &error)) << error;

  // The served payload equals the shared renderer's output for the
  // same spec — the serving path adds no bytes and loses none.
  std::unique_ptr<eqimpact::sim::Scenario> scenario =
      eqimpact::sim::CreateScenario("credit");
  ASSERT_TRUE(scenario->SetParameter("num_users", 150));
  eqimpact::sim::ExperimentOptions experiment;
  experiment.num_trials = 2;
  experiment.num_threads = 1;
  eqimpact::sim::ExperimentResult direct =
      eqimpact::sim::RunExperiment(scenario.get(), experiment);
  eqimpact::serve::RenderHeader header;
  header.num_trials = 2;
  header.provenance_json = eqimpact::serve::RenderProvenance(
      false, 0, "", false, "\"served\": true");
  EXPECT_EQ(last.payload,
            eqimpact::serve::RenderExperimentJson(direct, header));
  EXPECT_EQ(last.digest, eqimpact::sim::ExperimentDigest(direct));

  // A malformed line gets a typed error and leaves the connection and
  // the server alive for the next request.
  ASSERT_TRUE(client.Send("this is not json"));
  ClientEvent event;
  ASSERT_TRUE(client.ReadEvent(&event, &error)) << error;
  EXPECT_EQ(event.event, "error");
  EXPECT_EQ(event.code, "bad_json");
  ASSERT_TRUE(client.SubmitAndWait(kSmallCreditJob, &last, &error)) << error;
  EXPECT_TRUE(last.cached);

  server.Shutdown();
}

TEST(ServeServer, ShutdownDrainsInFlightJobs) {
  ServerOptions options;
  options.service = SmallService();
  Server server(options);
  ASSERT_TRUE(server.Start());

  Client client;
  std::string error;
  ASSERT_TRUE(client.Connect(server.port(), &error)) << error;
  ASSERT_TRUE(client.Send(
      R"({"scenario": "credit", "trials": 2, "set": {"num_users": 60000}})"));
  ClientEvent event;
  ASSERT_TRUE(client.ReadEvent(&event, &error)) << error;
  ASSERT_EQ(event.event, "accepted");

  // Shut down while the job runs: the drain must still deliver its
  // result before the socket closes.
  std::thread shutdown_thread([&server] { server.Shutdown(); });
  bool saw_result = false;
  while (client.ReadEvent(&event, &error)) {
    if (event.event == "result") {
      saw_result = true;
      break;
    }
  }
  shutdown_thread.join();
  EXPECT_TRUE(saw_result);
  EXPECT_EQ(server.service().runs_started(), 1u);
}

// --- Line framer ------------------------------------------------------

TEST(ServeLineFramer, FramesStripsAndSkipsAcrossChunks) {
  LineFramer framer(64);
  std::vector<std::string> lines;
  size_t overflows = 0;
  auto on_line = [&lines](std::string&& line) {
    lines.push_back(std::move(line));
  };
  auto on_overflow = [&overflows] { ++overflows; };
  // One line split across feeds, a '\r\n' line, and empty lines skipped.
  const std::string input = "hel";
  framer.Feed(input.data(), input.size(), on_line, on_overflow);
  const std::string rest = "lo\nworld\r\n\n\r\nsecond\n";
  framer.Feed(rest.data(), rest.size(), on_line, on_overflow);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "hello");
  EXPECT_EQ(lines[1], "world");
  EXPECT_EQ(lines[2], "second");
  EXPECT_EQ(overflows, 0u);
}

TEST(ServeLineFramer, OverflowDiscardsAndResyncsAtTheNextNewline) {
  LineFramer framer(8);
  std::vector<std::string> lines;
  size_t overflows = 0;
  auto on_line = [&lines](std::string&& line) {
    lines.push_back(std::move(line));
  };
  auto on_overflow = [&overflows] { ++overflows; };
  // An oversized line fed in pieces: exactly one overflow callback, the
  // tail is discarded, and the next line parses normally.
  const std::string big(20, 'x');
  framer.Feed(big.data(), big.size(), on_line, on_overflow);
  EXPECT_EQ(overflows, 1u);
  EXPECT_TRUE(framer.discarding());
  const std::string tail = "yyy\nok\n";
  framer.Feed(tail.data(), tail.size(), on_line, on_overflow);
  EXPECT_EQ(overflows, 1u);
  EXPECT_FALSE(framer.discarding());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "ok");
  // A line of exactly the cap passes.
  const std::string exact = std::string(8, 'z') + "\n";
  framer.Feed(exact.data(), exact.size(), on_line, on_overflow);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[1], std::string(8, 'z'));
  EXPECT_EQ(overflows, 1u);
}

// --- Event loop -------------------------------------------------------

TEST(ServeEventLoop, OversizedLineGetsTypedErrorAndResyncs) {
  ServerOptions options = SmallServer();
  options.limits.max_line_bytes = 256;
  Server server(options);
  ASSERT_TRUE(server.Start());

  Client client;
  std::string error;
  ASSERT_TRUE(client.Connect(server.port(), &error)) << error;
  ASSERT_TRUE(client.Send(std::string(1000, 'x')));
  ClientEvent event;
  ASSERT_TRUE(client.ReadEvent(&event, &error)) << error;
  EXPECT_EQ(event.event, "error");
  EXPECT_EQ(event.code, "bad_request");
  EXPECT_NE(event.message.find("exceeds"), std::string::npos);
  // The connection survives and the next request serves normally.
  ClientEvent last;
  ASSERT_TRUE(client.SubmitAndWait(kSmallCreditJob, &last, &error)) << error;
  EXPECT_EQ(last.event, "result");
  EXPECT_EQ(server.transport_stats().oversized_lines, 1u);
  server.Shutdown();
}

TEST(ServeEventLoop, IdleConnectionsAreClosed) {
  ServerOptions options = SmallServer();
  options.limits.idle_timeout_ms = 150;
  Server server(options);
  ASSERT_TRUE(server.Start());

  Client client;
  std::string error;
  ASSERT_TRUE(client.Connect(server.port(), &error)) << error;
  // No traffic: the server must close us (ReadEvent sees EOF).
  ClientEvent event;
  EXPECT_FALSE(client.ReadEvent(&event, &error));
  EXPECT_EQ(server.transport_stats().idle_closes, 1u);
  server.Shutdown();
}

TEST(ServeEventLoop, ConnectionCapRejectsWithTypedError) {
  ServerOptions options = SmallServer();
  options.limits.max_connections = 2;
  Server server(options);
  ASSERT_TRUE(server.Start());

  Client first;
  Client second;
  std::string error;
  ASSERT_TRUE(first.Connect(server.port(), &error)) << error;
  ASSERT_TRUE(second.Connect(server.port(), &error)) << error;
  // Make sure both connections are registered before the third arrives
  // (Connect returns at SYN time, before the server accepts).
  ClientEvent last;
  ASSERT_TRUE(first.SubmitAndWait(kSmallCreditJob, &last, &error)) << error;
  ASSERT_TRUE(second.SubmitAndWait(kSmallCreditJob, &last, &error)) << error;

  Client third;
  ASSERT_TRUE(third.Connect(server.port(), &error)) << error;
  ClientEvent event;
  ASSERT_TRUE(third.ReadEvent(&event, &error)) << error;
  EXPECT_EQ(event.event, "error");
  EXPECT_EQ(event.code, "too_many_connections");
  EXPECT_FALSE(third.ReadEvent(&event, &error));  // Then closed.
  EXPECT_EQ(server.transport_stats().connections_rejected, 1u);

  // The capped-out server still serves the admitted connections.
  ASSERT_TRUE(first.SubmitAndWait(kSmallCreditJob, &last, &error)) << error;
  EXPECT_EQ(last.event, "result");
  server.Shutdown();
}

TEST(ServeEventLoop, CachedRequestsAreNotHeldByNagle) {
  // A cached answer is two small event lines written back to back. With
  // Nagle's algorithm on either end, the second waits for the peer's
  // delayed ACK (~40 ms on Linux loopback) on every request; with
  // TCP_NODELAY a cached round trip takes well under a millisecond,
  // also in Debug and under the sanitizers, so the median's 10 ms
  // bound sits far from both.
  Server server(SmallServer());
  ASSERT_TRUE(server.Start());
  Client client;
  std::string error;
  ASSERT_TRUE(client.Connect(server.port(), &error)) << error;
  ClientEvent last;
  ASSERT_TRUE(client.SubmitAndWait(kSmallCreditJob, &last, &error)) << error;

  std::vector<double> round_trips_ms;
  for (int i = 0; i < 21; ++i) {
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(client.SubmitAndWait(kSmallCreditJob, &last, &error)) << error;
    ASSERT_TRUE(last.cached);
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - start;
    round_trips_ms.push_back(elapsed.count());
  }
  std::sort(round_trips_ms.begin(), round_trips_ms.end());
  EXPECT_LT(round_trips_ms[round_trips_ms.size() / 2], 10.0);
  server.Shutdown();
}

TEST(ServeEventLoop, SlowReaderHitsBackpressureWithoutCorruption) {
  ServerOptions options = SmallServer();
  // Tiny socket buffer and watermarks so a handful of cached results
  // cross the high watermark while the client refuses to read.
  options.limits.socket_send_buffer = 1;  // Kernel clamps to its floor.
  options.limits.write_high_watermark = 4 * 1024;
  options.limits.write_low_watermark = 512;
  Server server(options);
  ASSERT_TRUE(server.Start());

  // Raw socket so SO_RCVBUF can shrink before connect: the in-flight
  // window (server sndbuf + client rcvbuf) stays a few KB and the rest
  // of the event bytes must queue server-side.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int tiny = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
  sockaddr_in address;
  std::memset(&address, 0, sizeof(address));
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(server.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                      sizeof(address)),
            0);

  // Pipeline many identical jobs without reading a byte: one engine
  // run, every result served from cache/dedup into the write queue.
  const size_t kJobs = 30;
  std::string requests;
  for (size_t i = 0; i < kJobs; ++i) {
    requests += R"({"id": "slow-)" + std::to_string(i) +
                R"(", "scenario": "credit", "trials": 2, )" +
                R"("set": {"num_users": 150}})" + "\n";
  }
  size_t sent = 0;
  while (sent < requests.size()) {
    const ssize_t n = ::send(fd, requests.data() + sent,
                             requests.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<size_t>(n);
  }

  // The write queue must cross the high watermark while we stall.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.transport_stats().backpressure_pauses == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "no backpressure pause observed";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Now drain: every queued event must come out intact and in order.
  std::string stream;
  char chunk[4096];
  size_t results = 0;
  std::string first_payload;
  while (results < kJobs) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    ASSERT_GT(n, 0) << "connection closed before all results arrived";
    stream.append(chunk, static_cast<size_t>(n));
    size_t newline;
    while ((newline = stream.find('\n')) != std::string::npos) {
      const std::string line = stream.substr(0, newline);
      stream.erase(0, newline + 1);
      ClientEvent event;
      std::string error;
      ASSERT_TRUE(eqimpact::serve::ParseEventLine(line, &event, &error))
          << error << ": " << line;
      if (event.event != "result") continue;
      ++results;
      if (first_payload.empty()) {
        first_payload = event.payload;
      } else {
        EXPECT_EQ(event.payload, first_payload);  // No corruption.
      }
    }
  }
  ::close(fd);

  const TransportStats stats = server.transport_stats();
  EXPECT_GE(stats.backpressure_pauses, 1u);
  EXPECT_GE(stats.backpressure_resumes, 1u);
  EXPECT_GE(stats.peak_write_queue_bytes,
            options.limits.write_high_watermark);
  EXPECT_EQ(server.service().runs_started(), 1u);
  server.Shutdown();
}

TEST(ServeEventLoop, SixtyFourConnectionPipelinedBurstIsByteIdentical) {
  Server server(SmallServer());
  ASSERT_TRUE(server.Start());

  // Baseline payloads: one submission per distinct spec.
  const char* kSpecs[] = {
      R"("scenario": "credit", "trials": 2, "set": {"num_users": 150})",
      R"("scenario": "credit", "trials": 2, "seed": 43, "set": {"num_users": 150})",
      R"("scenario": "credit", "trials": 2, "set": {"num_users": 200})",
      R"("scenario": "credit", "trials": 2, "seed": 44, "set": {"num_users": 200})",
  };
  const size_t kDistinct = sizeof(kSpecs) / sizeof(kSpecs[0]);
  std::string error;
  std::vector<std::string> baseline(kDistinct);
  {
    Client warm;
    ASSERT_TRUE(warm.Connect(server.port(), &error)) << error;
    for (size_t i = 0; i < kDistinct; ++i) {
      ClientEvent last;
      ASSERT_TRUE(warm.SubmitAndWait(std::string("{") + kSpecs[i] + "}",
                                     &last, &error))
          << error;
      ASSERT_FALSE(last.payload.empty());
      baseline[i] = last.payload;
    }
  }

  // 64 concurrent connections, each pipelining one request per spec
  // before reading anything back.
  const size_t kConnections = 64;
  std::vector<std::unique_ptr<Client>> clients;
  for (size_t i = 0; i < kConnections; ++i) {
    clients.push_back(std::unique_ptr<Client>(new Client()));
    ASSERT_TRUE(clients.back()->Connect(server.port(), &error))
        << error << " (connection " << i << ")";
  }
  for (size_t i = 0; i < kConnections; ++i) {
    for (size_t k = 0; k < kDistinct; ++k) {
      const std::string request = R"({"id": "c)" + std::to_string(i) +
                                  "-s" + std::to_string(k) + R"(", )" +
                                  kSpecs[k] + "}";
      ASSERT_TRUE(clients[i]->Send(request));
    }
  }
  for (size_t i = 0; i < kConnections; ++i) {
    size_t results = 0;
    while (results < kDistinct) {
      ClientEvent event;
      ASSERT_TRUE(clients[i]->ReadEvent(&event, &error))
          << error << " (connection " << i << ")";
      ASSERT_NE(event.event, "error") << event.message;
      if (event.event != "result") continue;
      // "c<i>-s<k>": route the result back to its spec by id.
      const size_t spec = static_cast<size_t>(
          event.id[event.id.find("-s") + 2] - '0');
      ASSERT_LT(spec, kDistinct);
      EXPECT_EQ(event.payload, baseline[spec])
          << "payload diverged on connection " << i;
      ++results;
    }
  }

  const TransportStats stats = server.transport_stats();
  EXPECT_EQ(stats.connections_accepted, kConnections + 1);
  EXPECT_EQ(stats.connections_rejected, 0u);
  // 4 distinct engine runs, everything else cache/dedup.
  EXPECT_EQ(server.service().runs_started(), kDistinct);
  server.Shutdown();
}

}  // namespace
