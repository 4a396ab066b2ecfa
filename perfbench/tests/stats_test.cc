// Self-check of the benchmark's own statistics: the percentile rule,
// open-loop latency accounting, failure accounting and span self times. run.py runs it
// before every benchmark run; it exits non-zero on the first broken rule.

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "trace.h"

namespace {

int failures = 0;

void Expect(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "perfbench_selftest: FAILED %s\n", what);
    ++failures;
  }
}

std::vector<double> Ramp(size_t n) {
  std::vector<double> samples;
  for (size_t i = 1; i <= n; ++i) samples.push_back(static_cast<double>(i));
  return samples;
}

void PercentileRule() {
  using perfbench::HighestSupportedPercentile;
  // 1000 samples leave exactly 10 beyond p99, and only 1 beyond p99.9.
  perfbench::Tail tail = HighestSupportedPercentile(Ramp(1000));
  Expect(tail.percentile == 99.0 && tail.value == 990.0,
         "1000 samples report p99 = the 990th value");
  Expect(perfbench::SamplesBeyond(1000, 99.0) == 10,
         "p99 of 1000 samples has 10 beyond it");
  // 999 samples leave 9 beyond p99: the rule falls back to p90.
  tail = HighestSupportedPercentile(Ramp(999));
  Expect(tail.percentile == 90.0, "999 samples cannot support p99");
  tail = HighestSupportedPercentile(Ramp(100));
  Expect(tail.percentile == 90.0 && tail.value == 90.0,
         "100 samples report p90 = the 90th value");
  tail = HighestSupportedPercentile(Ramp(19));
  Expect(tail.percentile == 0.0 && tail.samples == 19,
         "19 samples support no percentile");
  tail = HighestSupportedPercentile(Ramp(20000));
  Expect(tail.percentile == 99.9, "20000 samples report p99.9");
  Expect(perfbench::Median(Ramp(4)) == 2.5, "median of an even sample");
  Expect(perfbench::Percentile(Ramp(10), 50) == 5.0,
         "nearest-rank p50 of 1..10");
}

void OpenLoopLatency() {
  using perfbench::OpenLoopTiming;
  // Requests due every millisecond; the generator stalls 50 ms, then
  // sends all three at once and each is answered 1 ms later.
  std::vector<OpenLoopTiming> timings = {
      {0.000, 0.050, 0.051}, {0.001, 0.050, 0.052}, {0.002, 0.050, 0.053}};
  for (const OpenLoopTiming& t : timings) {
    Expect(std::fabs(perfbench::LatencyFromDue(t) - 0.051) < 1e-12,
           "a stall is charged to every request queued behind it");
  }
  Expect(std::fabs(perfbench::GeneratorLag(timings[2]) - 0.048) < 1e-12,
         "generator lag is send time minus due time");
  const OpenLoopTiming lost{0.0, 0.0, -1.0};
  Expect(std::isinf(perfbench::LatencyFromDue(lost)),
         "a request with no terminal event has unbounded latency");
}

void FailureAccounting() {
  using perfbench::ExpectedOutcome;
  using perfbench::ObservedOutcome;
  std::string reason;
  ExpectedOutcome typed_error;
  typed_error.is_error = true;
  typed_error.error_code = "bad_json";
  ObservedOutcome got_error;
  got_error.finished = got_error.is_error = true;
  got_error.error_code = "bad_json";
  Expect(perfbench::OutcomeMatches(typed_error, got_error, &reason),
         "a malformed line answered with its typed error is a success");
  got_error.error_code = "internal";
  Expect(!perfbench::OutcomeMatches(typed_error, got_error, &reason),
         "a malformed line answered with another error is a failure");

  ExpectedOutcome result;
  result.payload = "{\"scenario\": \"credit\"}\n";
  result.digest = 0x1234;
  ObservedOutcome got;
  got.finished = true;
  got.payload = result.payload;
  got.digest = result.digest;
  Expect(perfbench::OutcomeMatches(result, got, &reason),
         "a byte-equal payload is a success");
  got.payload[3] ^= 1;
  Expect(!perfbench::OutcomeMatches(result, got, &reason),
         "a payload altered by one byte is a failure");
  got.payload = result.payload;
  got.digest = 0x1235;
  Expect(!perfbench::OutcomeMatches(result, got, &reason),
         "a wrong digest is a failure");
  ObservedOutcome rejected;
  rejected.finished = rejected.is_error = true;
  rejected.error_code = "queue_full";
  Expect(!perfbench::OutcomeMatches(result, rejected, &reason),
         "a queue_full rejection is a failure");
  Expect(!perfbench::OutcomeMatches(result, ObservedOutcome(), &reason) &&
             reason == "timeout",
         "a request that never finished is a timeout failure");

  perfbench::Report report;
  report.Count(true, "ok");
  report.Count(false, "bad");
  Expect(report.attempted() == 2 && report.failed() == 1 && !report.correct(),
         "the report counts failures against attempts");
}

void SelfTimes() {
  perfbench::SpanRecorder recorder(true);
  // Children cover [1, 5] (overlapping) and [8, 10] (clipped at the
  // parent's end): 6 of the parent's 10 ms.
  const uint64_t parent = recorder.Record("parent", 0.000, 0.010, 0);
  recorder.Record("child", 0.001, 0.003, parent);
  recorder.Record("child", 0.002, 0.005, parent);
  recorder.Record("child", 0.008, 0.012, parent);
  const std::map<std::string, double> self = recorder.SelfTimeMsByName();
  Expect(std::fabs(self.at("parent") - 4.0) < 1e-9,
         "self time subtracts the union of the children, clipped");
  Expect(std::fabs(self.at("child") - 9.0) < 1e-9,
         "childless spans keep their whole duration");
  perfbench::SpanRecorder off(false);
  Expect(off.Record("x", 0.0, 1.0, 0) == 0 && off.spans().empty(),
         "a disabled recorder records nothing");
}

}  // namespace

int main() {
  PercentileRule();
  OpenLoopLatency();
  FailureAccounting();
  SelfTimes();
  if (failures == 0) std::fprintf(stderr, "perfbench_selftest: all passed\n");
  return failures == 0 ? 0 : 1;
}
