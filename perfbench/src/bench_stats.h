#ifndef PERFBENCH_BENCH_STATS_H_
#define PERFBENCH_BENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since an arbitrary fixed origin.
double NowSeconds();

/// Median of `samples` (mean of the middle pair for even counts); 0 for
/// an empty set.
double Median(std::vector<double> samples);

/// Nearest-rank percentile: the value at 1-based rank ceil(p/100 * n) of
/// the sorted samples. 0 for an empty set.
double Percentile(std::vector<double> samples, double p);

/// Samples strictly beyond the nearest-rank position of percentile `p`
/// among `n` samples: n - ceil(p/100 * n).
size_t SamplesBeyond(size_t n, double p);

/// A tail percentile that the sample supports.
struct Tail {
  double percentile = 0.0;  ///< 0 when no ladder percentile is supported.
  double value = 0.0;
  size_t samples = 0;
};

/// The percentile rule: the highest of p50, p90, p99 and p99.9 that has
/// at least ten samples beyond it. Fewer than 20 samples support none.
Tail HighestSupportedPercentile(const std::vector<double>& samples);

/// Open-loop timing of one request. The generator owes each request a
/// send at `due`; `sent` is when it actually went out and `done` when its
/// terminal event arrived (negative: never).
struct OpenLoopTiming {
  double due = 0.0;
  double sent = 0.0;
  double done = -1.0;
};

/// Latency charged to a request in seconds: from its due time, so a stall
/// of the generator or of the server is charged to every request queued
/// behind it. A request that never finished is charged +infinity.
double LatencyFromDue(const OpenLoopTiming& timing);

/// How late the generator sent the request, in seconds.
double GeneratorLag(const OpenLoopTiming& timing);

/// What a request should produce: a result whose payload (and digest)
/// equals the direct engine run, or a typed error of the given code.
struct ExpectedOutcome {
  bool is_error = false;
  std::string error_code;
  std::string payload;
  uint64_t digest = 0;
};

/// The terminal event a request actually produced.
struct ObservedOutcome {
  bool finished = false;  ///< False: no terminal event before the deadline.
  bool is_error = false;
  std::string error_code;
  std::string payload;
  uint64_t digest = 0;
};

/// Failure accounting: a request succeeds iff it finished with exactly the
/// expected outcome. An expected typed error is a success; a queue_full
/// rejection, a timeout, or a payload or digest that differs by a single
/// byte is a failure. `reason` names the failure (empty on success).
bool OutcomeMatches(const ExpectedOutcome& expected,
                    const ObservedOutcome& observed, std::string* reason);

/// The result of one benchmark run: the operations attempted and failed,
/// the first few failure reasons, and the metrics measured.
class Report {
 public:
  /// Counts one operation; failed ones keep their reason.
  void Count(bool ok, const std::string& what);
  /// Sets (or overwrites) a metric.
  void Set(const std::string& name, double value, const std::string& unit);

  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }
  bool correct() const { return attempted_ > 0 && failed_ == 0; }

  /// The one-line result object: correct, attempted, failed, metrics.
  std::string JsonLine() const;
  /// Multi-line human-readable listing of the metrics, by name and unit.
  std::string Text() const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  size_t attempted_ = 0;
  size_t failed_ = 0;
  std::vector<std::string> failures_;
  std::map<std::string, Metric> metrics_;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_STATS_H_
