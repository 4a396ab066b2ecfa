#include "bench_stats.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>

namespace perfbench {
namespace {

// Failure reasons kept for the run's diagnostics; the count is unbounded.
constexpr size_t kMaxKeptFailures = 20;

std::string Number(double value) {
  // JSON has no infinities; a run whose median latency is unbounded
  // reports the largest finite double instead.
  if (!std::isfinite(value)) {
    value = value < 0 ? -std::numeric_limits<double>::max()
                      : std::numeric_limits<double>::max();
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

size_t SamplesBeyond(size_t n, double p) {
  const size_t rank =
      static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return n - std::min(rank, n);
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  const size_t rank = std::max<size_t>(1, n - SamplesBeyond(n, p));
  return samples[rank - 1];
}

Tail HighestSupportedPercentile(const std::vector<double>& samples) {
  Tail tail;
  tail.samples = samples.size();
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    if (SamplesBeyond(samples.size(), p) < 10) break;
    tail.percentile = p;
  }
  if (tail.percentile > 0.0) {
    tail.value = Percentile(samples, tail.percentile);
  }
  return tail;
}

double LatencyFromDue(const OpenLoopTiming& timing) {
  if (timing.done < 0.0) return std::numeric_limits<double>::infinity();
  return timing.done - timing.due;
}

double GeneratorLag(const OpenLoopTiming& timing) {
  return timing.sent - timing.due;
}

bool OutcomeMatches(const ExpectedOutcome& expected,
                    const ObservedOutcome& observed, std::string* reason) {
  reason->clear();
  if (!observed.finished) {
    *reason = "timeout";
  } else if (expected.is_error) {
    if (!observed.is_error) {
      *reason = "expected error " + expected.error_code + ", got a result";
    } else if (observed.error_code != expected.error_code) {
      *reason = "expected error " + expected.error_code + ", got " +
                observed.error_code;
    }
  } else if (observed.is_error) {
    *reason = "error " + observed.error_code;
  } else if (observed.digest != expected.digest) {
    *reason = "digest mismatch";
  } else if (observed.payload != expected.payload) {
    *reason = "payload differs from the direct run";
  }
  return reason->empty();
}

void Report::Count(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < kMaxKeptFailures) failures_.push_back(what);
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

std::string Report::JsonLine() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& entry : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + entry.first + "\": {\"value\": " +
           Number(entry.second.value) + ", \"unit\": \"" +
           entry.second.unit + "\"}";
  }
  out += "}}";
  return out;
}

std::string Report::Text() const {
  std::string out;
  char line[160];
  for (const auto& entry : metrics_) {
    std::snprintf(line, sizeof(line), "  %-32s %16.6g %s\n",
                  entry.first.c_str(), entry.second.value,
                  entry.second.unit.c_str());
    out += line;
  }
  std::snprintf(line, sizeof(line), "  %-32s %16zu / %zu\n",
                "failed / attempted", failed_, attempted_);
  out += line;
  for (const std::string& failure : failures_) {
    out += "  failure: " + failure + "\n";
  }
  return out;
}

}  // namespace perfbench
